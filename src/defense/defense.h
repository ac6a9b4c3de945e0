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
 * configuration; core::Svard supplies per-row thresholds. Either is an
 * immutable table lookup, so one provider may serve many defenses.
 *
 * Graphene, AQUA and RRS share one mechanism, RowCountDefense: count a
 * row's ACTs in the refresh window and act once the count reaches a
 * fixed fraction of the row's budget. They differ only in the action.
 */
#ifndef SVARD_DEFENSE_DEFENSE_H
#define SVARD_DEFENSE_DEFENSE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_table.h"
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

    /**
     * Configure how many banks one rank holds so flat controller bank
     * indices fold onto the profile's bank space. Called by
     * makeDefenseByName with the geometry under test;
     * defaults to the paper system's 16 banks per rank.
     */
    void
    setBanksPerRank(uint32_t banks_per_rank)
    {
        banksPerRank_ = banks_per_rank == 0 ? 1 : banks_per_rank;
    }

    uint32_t banksPerRank() const { return banksPerRank_; }

  protected:
    /** Key of a (bank,row) pair in the defenses' FlatTables. */
    static uint64_t
    rowKey(uint32_t bank, uint32_t row)
    {
        return (static_cast<uint64_t>(bank) << 32) | row;
    }

    /** Refresh the in-bank neighbors row-1 and row+1. */
    void
    refreshNeighbors(uint32_t bank, uint32_t row,
                     std::vector<PreventiveAction> &out)
    {
        const uint32_t rows = threshold_->rowsPerBank();
        for (int d : {-1, +1}) {
            const int64_t victim = static_cast<int64_t>(row) + d;
            if (victim < 0 || victim >= static_cast<int64_t>(rows))
                continue;
            out.push_back({PreventiveAction::Kind::RefreshRow, bank,
                           static_cast<uint32_t>(victim), 0, 0});
            ++stats_.preventiveRefreshes;
        }
    }

    /** Threshold lookup for a victim row (bank folded to profile). */
    double
    victimThreshold(uint32_t bank, uint32_t row) const
    {
        return threshold_->victimThreshold(foldBank(bank), row);
    }

    /** Activation budget of an aggressor row (bank folded to profile). */
    double
    aggressorBudget(uint32_t bank, uint32_t row) const
    {
        return threshold_->aggressorBudget(foldBank(bank), row);
    }

    /**
     * Profiles cover one rank's banks: fold flat bank indices into the
     * configured banks-per-rank. The provider folds once more when its
     * profile has fewer banks still.
     */
    uint32_t foldBank(uint32_t bank) const { return bank % banksPerRank_; }

    std::shared_ptr<const core::ThresholdProvider> threshold_;
    DefenseStats stats_;
    uint32_t banksPerRank_ = 16;
};

/**
 * Defense built on exact per-(bank,row) ACT counts that reset at the
 * end of each refresh window (Graphene, AQUA, RRS).
 */
class RowCountDefense : public Defense
{
  public:
    using Defense::Defense;

    void onEpochEnd(dram::Tick /* now */) override { counts_.clear(); }

    void
    tableStats(uint64_t *entries, uint64_t *rehashes) const override
    {
        *entries = counts_.size();
        *rehashes = counts_.rehashes();
    }

  protected:
    /**
     * Count one ACT of (bank,row). Returns true, and restarts the
     * count, once it reaches `fraction` of the row's aggressor budget.
     */
    bool
    countReaches(uint32_t bank, uint32_t row, double fraction)
    {
        const double budget = aggressorBudget(bank, row);
        uint32_t &count = counts_.refOrInsert(rowKey(bank, row));
        if (static_cast<double>(++count) < fraction * budget)
            return false;
        count = 0;
        return true;
    }

    /** Per-(bank,row) ACT counts; generation-cleared at epoch end. */
    FlatTable<uint32_t> counts_;
};

} // namespace svard::defense

#endif // SVARD_DEFENSE_DEFENSE_H
