/**
 * @file
 * Subarray structure of a DRAM bank. A bank is a stack of subarrays of
 * a few hundred to ~1K rows each, separated by sense-amplifier stripes;
 * read disturbance does not cross subarray boundaries, which is the
 * physical fact both the characterization (Sec. 5.4.1) and the
 * reverse-engineering methodology exploit.
 */
#ifndef SVARD_DRAM_SUBARRAY_H
#define SVARD_DRAM_SUBARRAY_H

#include <cstdint>
#include <vector>

#include "dram/module_spec.h"

namespace svard::dram {

/** Location of a physical row within its subarray. */
struct SubarrayLocation
{
    uint32_t subarray;     ///< subarray index within the bank
    uint32_t offset;       ///< row offset from the subarray's low edge
    uint32_t size;         ///< rows in this subarray
    /** Distance to the nearest sense-amplifier stripe (subarray edge). */
    uint32_t
    distanceToSenseAmps() const
    {
        const uint32_t from_high = size - 1 - offset;
        return offset < from_high ? offset : from_high;
    }
    bool isLowEdge() const { return offset == 0; }
    bool isHighEdge() const { return offset == size - 1; }
};

/**
 * Deterministic subarray map of a bank: a partition of the bank's
 * physical rows into consecutively laid-out subarrays whose sizes are
 * drawn (seeded) from the module's subarray-size distribution, matching
 * the paper's finding of 330-1027 rows per subarray and 32-206
 * subarrays per bank. The layout is a property of the chip design, so
 * all banks of a module share one map.
 */
class SubarrayMap
{
  public:
    /** Build the (per-design) map for the given module. */
    explicit SubarrayMap(const ModuleSpec &spec);

    uint32_t numSubarrays() const
    {
        return static_cast<uint32_t>(sizes_.size());
    }
    uint32_t rows() const { return rows_; }
    uint32_t subarraySize(uint32_t sa) const { return sizes_[sa]; }
    uint32_t subarrayBase(uint32_t sa) const { return bases_[sa]; }

    /** Locate a physical row. */
    SubarrayLocation locate(uint32_t phys_row) const;

    /** True if both rows lie in the same subarray. */
    bool sameSubarray(uint32_t row_a, uint32_t row_b) const;

    /**
     * Physical neighbors of a row that share its subarray (the rows an
     * activation of `phys_row` disturbs). One neighbor for edge rows,
     * two otherwise.
     */
    std::vector<uint32_t> disturbedNeighbors(uint32_t phys_row) const;

    /**
     * Allocation-free variant for per-activation hot paths: writes the
     * neighbors into `out` and returns how many there are (0..2).
     */
    uint32_t disturbedNeighbors(uint32_t phys_row,
                                uint32_t out[2]) const;

  private:
    uint32_t rows_;
    std::vector<uint32_t> sizes_;
    std::vector<uint32_t> bases_;  ///< first physical row of each subarray
};

} // namespace svard::dram

#endif // SVARD_DRAM_SUBARRAY_H
