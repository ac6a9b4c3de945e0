/**
 * @file
 * The Svärd mechanism (paper Sec. 6): a small metadata table consulted
 * on every row activation that supplies the read-disturbance defense
 * with a per-victim-row HC_first threshold instead of the worst-case
 * chip-wide value. Defenses consume a ThresholdProvider; "no Svärd" is
 * the UniformThreshold provider pinned at the chip's worst-case
 * HC_first, which is exactly how the paper's baselines are configured.
 */
#ifndef SVARD_CORE_SVARD_H
#define SVARD_CORE_SVARD_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.h"
#include "core/vuln_profile.h"

namespace svard::core {

/**
 * Per-row threshold oracle consulted by defenses on each activation:
 * a direct index into a const VulnProfile, so one provider may be
 * read by any number of threads. Thresholds are expressed in hammers
 * (activation pairs), matching HC_first's unit.
 */
class ThresholdProvider
{
  public:
    /**
     * Safe HC_first lower bound of a potential *victim* row. A bank
     * past the profile's banks folds onto them (bank % banks()), e.g.
     * a profile characterized on fewer banks than the simulated
     * geometry exposes.
     */
    double
    victimThreshold(uint32_t bank, uint32_t row) const
    {
        if (bank >= profile_->banks())
            bank %= profile_->banks();
        return profile_->thresholdOf(bank, row);
    }

    /**
     * Activation budget of an *aggressor* row: the smallest safe
     * threshold among the rows its activation disturbs (its one or two
     * in-bank neighbors).
     */
    double
    aggressorBudget(uint32_t bank, uint32_t row) const
    {
        double budget = profile_->minThreshold() * 1e9; // above any bound
        if (row > 0)
            budget = std::min(budget, victimThreshold(bank, row - 1));
        if (row + 1 < rowsPerBank())
            budget = std::min(budget, victimThreshold(bank, row + 1));
        return budget;
    }

    /** Same as aggressorBudget; the benchmark's lookup probe calls it
     *  by this name. */
    double
    aggressorBudgetMemo(uint32_t bank, uint32_t row) const
    {
        return aggressorBudget(bank, row);
    }

    uint32_t rowsPerBank() const { return profile_->rowsPerBank(); }

    /** Banks the provider distinguishes (1 for a uniform threshold). */
    uint32_t banks() const { return profile_->banks(); }

  protected:
    explicit ThresholdProvider(std::shared_ptr<const VulnProfile> profile)
        : profile_(std::move(profile))
    {
        SVARD_ASSERT(profile_ != nullptr, "provider needs a profile");
    }

  private:
    std::shared_ptr<const VulnProfile> profile_;
};

/**
 * Baseline configuration without Svärd: every row is treated as being
 * as vulnerable as the chip's weakest row (a one-bank, one-bin
 * profile).
 */
class UniformThreshold : public ThresholdProvider
{
  public:
    UniformThreshold(double hc_first, uint32_t rows_per_bank)
        : ThresholdProvider(std::make_shared<const VulnProfile>(
              "uniform", 1, rows_per_bank, std::vector<double>{hc_first},
              std::vector<uint8_t>(rows_per_bank, 0)))
    {}
};

/**
 * Svärd proper: the memory-controller (or in-DRAM) metadata table that
 * maps an activated row address to its vulnerability bin's threshold
 * (paper Fig. 11). Lookup is a direct index — overlappable with the
 * row activation itself (Sec. 6.4) — and the storage cost is the
 * profile's metadataBits().
 */
class Svard : public ThresholdProvider
{
  public:
    explicit Svard(std::shared_ptr<const VulnProfile> profile)
        : ThresholdProvider(std::move(profile))
    {}
};

} // namespace svard::core

#endif // SVARD_CORE_SVARD_H
