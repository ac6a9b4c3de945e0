/**
 * @file
 * RRS — Randomized Row Swap (Saileshwar et al., ASPLOS 2022): when a
 * row's activation count crosses a fraction of the threshold, the row
 * is swapped with a random row of the same bank, breaking the spatial
 * correlation between aggressor and victim. Each swap moves two full
 * rows (read+write both ways), twice AQUA's migration traffic, which
 * is why RRS tops the paper's overhead chart at low thresholds.
 */
#ifndef SVARD_DEFENSE_RRS_H
#define SVARD_DEFENSE_RRS_H

#include "common/rng.h"
#include "defense/defense.h"

namespace svard::defense {

class Rrs : public RowCountDefense
{
  public:
    /** Fraction of the threshold that triggers a swap. */
    static constexpr double kSwapFraction = 0.5;

    explicit Rrs(std::shared_ptr<const core::ThresholdProvider> thr,
                 uint64_t seed = 1);

    const char *name() const override { return "RRS"; }

    void onActivate(uint32_t bank, uint32_t row, dram::Tick now,
                    std::vector<PreventiveAction> &out) override;

  private:
    Rng rng_;
};

} // namespace svard::defense

#endif // SVARD_DEFENSE_RRS_H
