/**
 * @file
 * Common interface of read-disturbance defenses.
 *
 * A defense observes every row activation the memory controller issues
 * and may demand preventive actions: victim-row refreshes (PARA,
 * Hydra), activation throttling (BlockHammer), row migration (AQUA) or
 * row swaps (RRS), and metadata traffic (Hydra's off-chip counters).
 * The controller executes the actions, which is where the performance
 * overhead the paper measures comes from.
 *
 * Every defense consults a core::ThresholdProvider for the HC_first
 * threshold to enforce. The provider is the Svärd integration point
 * (paper Fig. 11): UniformThreshold reproduces the defense's baseline
 * configuration; core::Svard supplies per-row thresholds.
 */
#ifndef SVARD_DEFENSE_DEFENSE_H
#define SVARD_DEFENSE_DEFENSE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.h"
#include "core/svard.h"
#include "dram/types.h"

namespace svard::defense {

/** One preventive action demanded by a defense. */
struct PreventiveAction
{
    enum class Kind : uint8_t
    {
        RefreshRow,     ///< preventively refresh a victim row
        Throttle,       ///< delay the triggering activation
        MigrateRow,     ///< move `row` to `row2` (quarantine)
        SwapRows,       ///< swap `row` and `row2`
        MetadataAccess, ///< off-chip metadata transfer (counter r/w)
    };
    Kind kind;
    uint32_t bank = 0;   ///< flat bank index
    uint32_t row = 0;
    uint32_t row2 = 0;   ///< migration/swap partner
    dram::Tick delay = 0;///< throttle duration
};

/**
 * Reusable buffer for the actions one ACT produces. The controller
 * owns one per instance and clears (not reallocates) it per
 * activation, so the observe-act-respond hot path stays allocation
 * free once the buffer has grown to the largest burst seen.
 */
using ActionBuffer = std::vector<PreventiveAction>;

/**
 * Map a defense-issued action bank onto a controller with
 * `total_banks` flat banks. Defenses observe controller flat bank
 * indices and must emit preventive actions in that same space; this
 * helper is the single agreed fold point (the controller used to
 * apply a silent `% total_banks`, which would mask a defense emitting
 * banks from the wrong space instead of failing loudly).
 */
inline uint32_t
resolveActionBank(uint32_t bank, size_t total_banks)
{
    SVARD_ASSERT(bank < total_banks,
                 "defense action bank outside the controller's flat "
                 "bank space");
    return bank;
}

/** Common statistics every defense maintains. */
struct DefenseStats
{
    uint64_t activationsObserved = 0;
    uint64_t preventiveRefreshes = 0;
    uint64_t throttleEvents = 0;
    dram::Tick throttleDelayTotal = 0;
    uint64_t migrations = 0;
    uint64_t swaps = 0;
    uint64_t metadataAccesses = 0;
};

/**
 * Read-disturbance defense observing the controller's ACT stream.
 * Banks are flat indices across ranks; rows are logical addresses.
 */
class Defense
{
  public:
    explicit Defense(std::shared_ptr<const core::ThresholdProvider> thr)
        : threshold_(std::move(thr))
    {}
    virtual ~Defense() = default;

    virtual const char *name() const = 0;

    /**
     * Observe an activation; append any preventive actions to `out`.
     * Called by the controller for every ACT (demand or maintenance).
     */
    virtual void onActivate(uint32_t bank, uint32_t row, dram::Tick now,
                            std::vector<PreventiveAction> &out) = 0;

    /** Refresh-window rollover: counters of this epoch reset. */
    virtual void onEpochEnd(dram::Tick now) { (void)now; }

    /**
     * Observability: live entries and lifetime rehash count summed
     * over the defense's tracking tables (0/0 for table-free defenses
     * like PARA). Never consulted by simulation logic.
     */
    virtual void
    tableStats(uint64_t *entries, uint64_t *rehashes) const
    {
        *entries = 0;
        *rehashes = 0;
    }

    const DefenseStats &stats() const { return stats_; }

    const core::ThresholdProvider &threshold() const
    {
        return *threshold_;
    }

    /**
     * Configure how many banks one rank holds so flat controller bank
     * indices fold onto the profile's bank space. Called by the
     * registry / simulation engine with the geometry under test;
     * defaults to the paper system's 16 banks per rank.
     */
    void
    setBanksPerRank(uint32_t banks_per_rank)
    {
        banksPerRank_ = banks_per_rank == 0 ? 1 : banks_per_rank;
    }

    uint32_t banksPerRank() const { return banksPerRank_; }

  protected:
    /** Threshold lookup for a victim row (bank folded to profile). */
    double
    victimThreshold(uint32_t bank, uint32_t row) const
    {
        return threshold_->victimThreshold(foldBank(bank), row);
    }

    /** Activation budget of an aggressor row. Served from the
     *  provider's flat per-(bank,row) memo: one load per ACT in
     *  steady state instead of two virtual victimThreshold calls. */
    double
    aggressorBudget(uint32_t bank, uint32_t row) const
    {
        return threshold_->aggressorBudgetMemo(foldBank(bank), row);
    }

    /**
     * Profiles cover one rank's banks; fold flat bank indices into
     * the configured banks-per-rank, then into the provider's own
     * bank space when it is narrower (e.g. a profile characterized on
     * fewer banks than the simulated geometry exposes).
     */
    uint32_t
    foldBank(uint32_t bank) const
    {
        uint32_t folded = bank % banksPerRank_;
        const uint32_t provider_banks = threshold_->banks();
        if (provider_banks != 0 && folded >= provider_banks)
            folded %= provider_banks;
        return folded;
    }

    std::shared_ptr<const core::ThresholdProvider> threshold_;
    DefenseStats stats_;
    uint32_t banksPerRank_ = 16;
};

} // namespace svard::defense

#endif // SVARD_DEFENSE_DEFENSE_H
