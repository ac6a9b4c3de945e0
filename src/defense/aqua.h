/**
 * @file
 * AQUA (Saxena et al., MICRO 2022): quarantines aggressor rows. When a
 * row's activation count crosses a fraction of the threshold, its
 * content is migrated to a reserved quarantine region, breaking the
 * aggressor-victim adjacency; the quarantine is recycled FIFO. The
 * overhead is the migration bandwidth (one full row read + write).
 */
#ifndef SVARD_DEFENSE_AQUA_H
#define SVARD_DEFENSE_AQUA_H

#include <vector>

#include "defense/defense.h"

namespace svard::defense {

class Aqua : public RowCountDefense
{
  public:
    /** Fraction of the threshold that triggers quarantine. */
    static constexpr double kMigrateFraction = 0.5;
    /** Quarantine region size as a fraction of the bank's rows. */
    static constexpr double kQuarantineFraction = 0.01;

    using RowCountDefense::RowCountDefense;

    const char *name() const override { return "AQUA"; }

    void onActivate(uint32_t bank, uint32_t row, dram::Tick now,
                    std::vector<PreventiveAction> &out) override;

  private:
    std::vector<uint32_t> nextQuarantine_; ///< per bank, grown on demand
};

} // namespace svard::defense

#endif // SVARD_DEFENSE_AQUA_H
