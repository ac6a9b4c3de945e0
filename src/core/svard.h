/**
 * @file
 * The Svärd mechanism (paper Sec. 6): a small metadata table consulted
 * on every row activation that supplies the read-disturbance defense
 * with a per-victim-row HC_first threshold instead of the worst-case
 * chip-wide value. Defenses consume the ThresholdProvider interface;
 * "no Svärd" is the UniformThreshold provider pinned at the chip's
 * worst-case HC_first, which is exactly how the paper's baselines are
 * configured.
 */
#ifndef SVARD_CORE_SVARD_H
#define SVARD_CORE_SVARD_H

#include <cstdint>
#include <cstdlib>
#include <memory>

#include "core/vuln_profile.h"

namespace svard::core {

/**
 * Per-row threshold oracle consulted by defenses on each activation.
 * Thresholds are expressed in hammers (activation pairs), matching
 * HC_first's unit.
 */
class ThresholdProvider
{
  public:
    virtual ~ThresholdProvider() = default;

    /** Safe HC_first lower bound of a potential *victim* row. */
    virtual double victimThreshold(uint32_t bank, uint32_t row) const = 0;

    /**
     * Activation budget of an *aggressor* row: the smallest safe
     * threshold among the rows its activation disturbs (its two
     * logical neighbors; conservatively clamped at array edges).
     */
    virtual double aggressorBudget(uint32_t bank, uint32_t row) const;

    /** Chip-wide worst case (used for sizing defense structures). */
    virtual double worstCase() const = 0;

    virtual uint32_t rowsPerBank() const = 0;

    /**
     * Banks the provider distinguishes, or 0 when the threshold is
     * bank-agnostic (uniform). Defenses fold flat bank indices into
     * this space before looking thresholds up.
     */
    virtual uint32_t banks() const { return 0; }

    /**
     * Memoized aggressorBudget: the per-ACT hot path of every counter
     * defense. The first touch of a (bank,row) pays the two virtual
     * victimThreshold calls and parks the result in a flat
     * banks x rowsPerBank array; every later ACT of that aggressor is
     * one load. The memo is lazily sized on first use and is why
     * providers must not be shared across concurrently-running sweep
     * cells (the engine already builds one provider per cell).
     */
    double
    aggressorBudgetMemo(uint32_t bank, uint32_t row) const
    {
        if (!memoReady_)
            initBudgetMemo();
        if (row >= memoRows_ || !budgetMemo_)
            return aggressorBudget(bank, row);
        if (bank >= memoBanks_)
            bank %= memoBanks_; // bank-agnostic providers memo one bank
        double &slot =
            budgetMemo_[static_cast<size_t>(bank) * memoRows_ + row];
        if (slot == 0.0)
            slot = aggressorBudget(bank, row);
        return slot;
    }

  private:
    void
    initBudgetMemo() const
    {
        memoBanks_ = banks() == 0 ? 1 : banks();
        memoRows_ = rowsPerBank();
        // calloc, not a value-initialized vector: the memo is tens of
        // megabytes per provider and mostly untouched, so zero-fill
        // should come from the OS's zero pages, not a memset.
        budgetMemo_.reset(static_cast<double *>(std::calloc(
            static_cast<size_t>(memoBanks_) * memoRows_,
            sizeof(double))));
        memoReady_ = true;
    }

    // Zero marks "not yet computed": real budgets are positive, and a
    // degenerate zero budget merely recomputes (still correct).
    struct FreeDeleter
    {
        void operator()(double *p) const { std::free(p); }
    };
    mutable std::unique_ptr<double[], FreeDeleter> budgetMemo_;
    mutable uint32_t memoBanks_ = 1;
    mutable uint32_t memoRows_ = 0;
    mutable bool memoReady_ = false;
};

/**
 * Baseline configuration without Svärd: every row is treated as being
 * as vulnerable as the chip's weakest row.
 */
class UniformThreshold : public ThresholdProvider
{
  public:
    UniformThreshold(double hc_first, uint32_t rows_per_bank)
        : hcFirst_(hc_first), rowsPerBank_(rows_per_bank)
    {}

    double
    victimThreshold(uint32_t, uint32_t) const override
    {
        return hcFirst_;
    }
    double worstCase() const override { return hcFirst_; }
    uint32_t rowsPerBank() const override { return rowsPerBank_; }

  private:
    double hcFirst_;
    uint32_t rowsPerBank_;
};

/**
 * Svärd proper: the memory-controller (or in-DRAM) metadata table that
 * maps an activated row address to its vulnerability bin's threshold
 * (paper Fig. 11). Lookup is a direct index — overlappable with the
 * row activation itself (Sec. 6.4) — and the storage cost is
 * profile().metadataBits().
 */
class Svard : public ThresholdProvider
{
  public:
    explicit Svard(std::shared_ptr<const VulnProfile> profile);

    double victimThreshold(uint32_t bank, uint32_t row) const override;
    double worstCase() const override;
    uint32_t rowsPerBank() const override;
    uint32_t banks() const override;

    const VulnProfile &profile() const { return *profile_; }

  private:
    std::shared_ptr<const VulnProfile> profile_;
};

} // namespace svard::core

#endif // SVARD_CORE_SVARD_H
