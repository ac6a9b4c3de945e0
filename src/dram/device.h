/**
 * @file
 * Behavioral DDR4 DRAM device with read-disturbance fault injection.
 *
 * This is the library's stand-in for a real DDR4 module under test: it
 * executes DRAM commands (ACT/PRE/RD/WR/REF) with explicit timestamps,
 * keeps each touched row's content as a fill byte plus dense word
 * deltas (RowData), and injects RowHammer/RowPress bitflips
 * according to a pluggable DisturbanceModel. The interface operates on
 * *logical* row addresses (what a memory controller sees); the device
 * applies the module's internal row scrambling and subarray structure,
 * so adjacency-dependent effects behave as they do on real chips.
 */
#ifndef SVARD_DRAM_DEVICE_H
#define SVARD_DRAM_DEVICE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_table.h"
#include "common/rng.h"
#include "dram/disturbance.h"
#include "dram/module_spec.h"
#include "dram/rowdata.h"
#include "dram/rowmap.h"
#include "dram/subarray.h"
#include "dram/timing.h"
#include "dram/types.h"

namespace svard::dram {

/** Command and bitflip counts since construction. */
struct DeviceStats
{
    uint64_t activates = 0;       ///< ACT commands executed
    uint64_t precharges = 0;      ///< PRE commands executed
    uint64_t bitflipsInjected = 0;///< read-disturbance bitflips realized
};

/**
 * Behavioral DRAM device (one rank's worth of lock-stepped chips).
 *
 * Commands carry explicit picosecond timestamps supplied by the caller
 * (the DRAM-Bender-style TestSession or the cycle-level simulator); the
 * device derives aggressor on-time (tAggOn) from the ACT->PRE gap, which
 * is what makes RowPress emerge from command timing rather than from a
 * special-cased API.
 */
class DramDevice
{
  public:
    DramDevice(const ModuleSpec &spec,
               std::shared_ptr<const SubarrayMap> subarrays,
               std::shared_ptr<const DisturbanceModel> model,
               uint64_t seed = 1);

    // ------------------------------------------------------------
    // Command interface (logical row addresses, picosecond times)
    // ------------------------------------------------------------

    /** Open a row; realizes pending disturbance on it (charge restore). */
    void activate(uint32_t bank, uint32_t row, Tick now);

    /** Close the open row; credits disturbance to its neighbors. */
    void precharge(uint32_t bank, Tick now);

    /**
     * Refresh every row of every bank: pending disturbance is realized
     * (flips that already crossed threshold are locked in) and the
     * accumulated disturbance of all rows resets.
     */
    void refreshAllRows(Tick now);

    /** Refresh one row (victim-row preventive refresh). */
    void refreshRow(uint32_t bank, uint32_t row, Tick now);

    /**
     * Bulk hammer: `count` back-to-back ACT/PRE pairs of one row, each
     * held open for `t_on`. Semantically identical to the per-command
     * loop (the hammered row's neighbors are never activated in
     * between, so their accumulation is linear in count), but O(1)
     * instead of O(count) — this is what makes full Alg. 1 sweeps
     * tractable. The bank must be precharged.
     */
    void hammer(uint32_t bank, uint32_t row, uint64_t count, Tick t_on);

    // ------------------------------------------------------------
    // Data access (used while the row is open)
    // ------------------------------------------------------------

    /** Fill the open row with a repeating data-pattern byte. */
    void writeRowFill(uint32_t bank, uint32_t row, uint8_t fill);

    /**
     * Count bits in the row that differ from the expected repeating
     * fill byte; realizes pending disturbance first. This is the BER
     * numerator of Alg. 1's measure_BER.
     */
    uint64_t countMismatchedBits(uint32_t bank, uint32_t row,
                                 uint8_t expected_fill);

    /** Full row content snapshot (realizes pending disturbance). */
    std::vector<uint8_t> readRow(uint32_t bank, uint32_t row);

    // ------------------------------------------------------------
    // RowClone (Sec. 5.4.1 Key Insight 2)
    // ------------------------------------------------------------

    /**
     * Attempt an intra-subarray RowClone (ACT src -> PRE -> ACT dst in
     * quick succession, violating tRAS). Succeeds only when both rows
     * share a subarray AND the (deterministic, per-pair) circuit margin
     * allows it; cross-subarray attempts always fail and corrupt the
     * destination. Returns true on a clean copy.
     */
    bool rowClone(uint32_t bank, uint32_t src_row, uint32_t dst_row,
                  Tick now);

    // ------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------

    const ModuleSpec &spec() const { return spec_; }
    const SubarrayMap &subarrays() const { return *subarrays_; }
    const RowMapping &mapping() const { return mapping_; }
    const DisturbanceModel &model() const { return *model_; }
    const DeviceStats &stats() const { return stats_; }
    const TimingParams &timing() const { return timing_; }

    /** Shared handles, for spawning sibling devices of the same module
     *  (the characterizer's per-row isolated workspaces). */
    std::shared_ptr<const SubarrayMap> subarraysShared() const
    {
        return subarrays_;
    }
    std::shared_ptr<const DisturbanceModel> modelShared() const
    {
        return model_;
    }

    /** Open row of a bank, if any (logical address). */
    std::optional<uint32_t> openRow(uint32_t bank) const;

    /** Accumulated effective hammers pending on a *logical* row. */
    double pendingHammers(uint32_t bank, uint32_t row) const;

  private:
    struct BankState
    {
        bool open = false;
        uint32_t physRow = 0;
        Tick actTime = 0;
    };

    static uint64_t
    key(uint32_t bank, uint32_t phys_row)
    {
        return (static_cast<uint64_t>(bank) << 32) | phys_row;
    }

    RowData &rowRef(uint32_t bank, uint32_t phys_row);

    /**
     * Lazily-memoized per-row model quantities. The disturbance model
     * derives each from seeded hashes (exp/log/trig per query), and
     * realize() needs the same values for every ACT of a row during a
     * hammer sweep — so the device caches them per (bank, phys row) in
     * a flat table the first time each row is touched.
     */
    struct ModelMemo
    {
        double hcFirst = 0.0;
        double trueCellFrac = 0.0;
        double sameCoupling = 0.0;
        double worstSeverity = 0.0;
        Tick actWeightTon = -1;   ///< on-time the cached weight is for
        double actWeight = 0.0;
        uint32_t sevFills = ~0u;  ///< (victim<<8|aggr) fills of sevRaw
        double sevRaw = 0.0;
        uint8_t flags = 0;
    };

    ModelMemo &memoRef(uint32_t bank, uint32_t phys_row);
    double memoHcFirst(uint32_t bank, uint32_t phys_row);
    double memoActWeight(uint32_t bank, uint32_t phys_row, Tick t_on);

    /**
     * Apply any pending disturbance to a physical row's stored data
     * (called when the row's charge is restored: ACT or REF of that
     * row) and reset its accumulator. Past the row's threshold it
     * draws a flip count from the BER model and places each flip in
     * turn with RowData::flipBitIf, straight into the row's word
     * array. The placement attempts run as one branch-free loop: a
     * landed flip or a spent retry budget advances the flip index by
     * arithmetic, so no branch depends on whether a draw hit a
     * charged cell.
     */
    void realize(uint32_t bank, uint32_t phys_row);

    /** Severity in (0,1] of the current data pattern around a victim. */
    double patternSeverity(uint32_t bank, uint32_t phys_row,
                           ModelMemo &memo);

    /** severityRaw with a one-entry per-row (fills -> value) cache:
     *  a hammer sweep realizes its victim with the same data pattern
     *  over and over, so the repeat lookup skips the jitter RNG. */
    double severityRawCached(uint32_t bank, uint32_t phys_row,
                             ModelMemo &memo, uint8_t victim_fill,
                             uint8_t aggr_fill);

    /** Worst-case severity over the canonical pattern set (Table 2). */
    double worstCaseSeverityRaw(uint32_t bank, uint32_t phys_row,
                                const ModelMemo &memo);

    double severityRaw(uint32_t bank, uint32_t phys_row,
                       const ModelMemo &memo, uint8_t victim_fill,
                       uint8_t aggr_fill);

    const ModuleSpec &spec_;
    std::shared_ptr<const SubarrayMap> subarrays_;
    std::shared_ptr<const DisturbanceModel> model_;
    RowMapping mapping_;
    TimingParams timing_;
    Rng rng_;

    std::vector<BankState> bankState_;
    FlatTable<RowData> rows_;
    FlatTable<double> pending_;
    FlatTable<ModelMemo> memo_;
    std::vector<uint64_t> refreshKeys_; ///< reused refreshAllRows buffer
    DeviceStats stats_;
};

} // namespace svard::dram

#endif // SVARD_DRAM_DEVICE_H
