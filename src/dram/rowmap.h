/**
 * @file
 * In-DRAM logical-to-physical row address mapping ("row scrambling").
 * DRAM vendors remap the row addresses exposed on the interface to
 * internal physical locations (Sec. 4.3, "Finding Physically Adjacent
 * Rows"); attackers and characterization studies must reverse-engineer
 * the mapping to hammer truly adjacent rows. We model three invertible
 * schemes representative of published reverse-engineering results.
 */
#ifndef SVARD_DRAM_ROWMAP_H
#define SVARD_DRAM_ROWMAP_H

#include <cstdint>

namespace svard::dram {

/**
 * Invertible logical<->physical row mapping. All schemes are
 * involutions or cheap closed forms so that `toLogical` is exact.
 */
class RowMapping
{
  public:
    enum class Scheme : uint8_t
    {
        Identity = 0,     ///< logical == physical
        MirrorPairs = 1,  ///< swap rows 2,3 in every group of 4 (XOR fold)
        BitSwap = 2,      ///< swap row-address bits 1 and 3
    };

    RowMapping(Scheme scheme, uint32_t rows);

    /** Construct from the integer scheme id stored in ModuleSpec. */
    RowMapping(int scheme_id, uint32_t rows);

    uint32_t toPhysical(uint32_t logical_row) const;
    uint32_t toLogical(uint32_t physical_row) const;

    uint32_t rows() const { return rows_; }

  private:
    Scheme scheme_;
    uint32_t rows_;
};

} // namespace svard::dram

#endif // SVARD_DRAM_ROWMAP_H
