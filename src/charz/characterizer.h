/**
 * @file
 * The paper's core characterization loop (Alg. 1): per-row worst-case
 * data pattern discovery at 128K hammers, the 14-point hammer-count
 * sweep that yields HC_first, tAggOn sweeps for RowPress, and the
 * bank/row iteration with worst-case-over-iterations recording.
 *
 * Rows are characterized on *isolated per-row workspaces*: each row
 * gets a fresh sibling device (same module spec / subarray map / fault
 * model) whose RNG stream is seeded by hash(module seed, bank, row).
 * That makes every RowResult a pure function of its coordinates —
 * independent of which rows were measured before it and of how many
 * threads the sweep uses — which is what lets characterizeModule shard
 * rows across the common/parallel.h pool while staying bit-identical
 * at any thread count.
 */
#ifndef SVARD_CHARZ_CHARACTERIZER_H
#define SVARD_CHARZ_CHARACTERIZER_H

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/vuln_profile.h"
#include "dram/device.h"
#include "fault/patterns.h"

namespace svard::charz {

/** Knobs of the Alg. 1 test loop. */
struct CharzOptions
{
    /** Banks to test: one representative bank per bank group (Sec. 4.3). */
    std::vector<uint32_t> banks = {1, 4, 10, 15};

    /** Test every Nth row of a bank (1 = all rows, as the paper does). */
    uint32_t rowStep = 1;

    /** Extra victim rows to include regardless of rowStep. */
    std::vector<uint32_t> extraRows;

    /** Aggressor on-time (36 ns = max activation rate; Alg. 1). */
    dram::Tick tAggOn = 36 * dram::kPsPerNs;

    /**
     * Test repetitions; the smallest HC_first and largest BER across
     * iterations are recorded (Sec. 4.1, worst-case measure).
     */
    int iterations = 1;

    /**
     * When set, WCDP discovery tests only the two row stripes instead
     * of all six patterns (fast mode; stripes dominate WCDP).
     */
    bool quickWcdp = false;

    /**
     * Worker threads for characterizeModule (0 = hardware
     * concurrency). Results are bit-identical at any value:
     * every row runs on its own deterministically-seeded workspace.
     */
    unsigned threads = 1;
};

/** Per-victim-row characterization result. */
struct RowResult
{
    uint32_t bank = 0;
    uint32_t logicalRow = 0;
    uint32_t physRow = 0;
    double relativeLocation = 0.0;     ///< physRow / rowsPerBank
    fault::DataPattern wcdp = fault::DataPattern::RowStripe;
    double ber128k = 0.0;              ///< BER at 128K hammers, WCDP
    int64_t hcFirst = 0;               ///< quantized to tested counts
    bool flippedAtMaxCount = false;    ///< any flip observed at 128K
    uint32_t numAggressors = 2;        ///< 1 at subarray edges
};

/**
 * Runs Alg. 1 against a device-under-test through a TestSession.
 * The characterizer never consults the fault model directly — all
 * knowledge comes from DRAM commands and read-back data, exactly as on
 * the real infrastructure.
 */
class Characterizer
{
  public:
    explicit Characterizer(dram::DramDevice &device);

    /**
     * Characterize one victim row (WCDP + HC_first sweep) on an
     * isolated workspace. The result depends only on (module, bank,
     * victim, options) — repeated calls return identical results.
     */
    RowResult characterizeRow(uint32_t bank, uint32_t victim,
                              const CharzOptions &opt);

    /**
     * The Alg. 1 sweep: every bank in opt.banks per the options' row
     * sampling (rows 0, rowStep, 2*rowStep, ..., then opt.extraRows
     * off that stride), sharded over opt.threads workers from one
     * shared row pool. Results come bank-major in opt.banks order, so
     * a caller can group them by RowResult::bank.
     */
    std::vector<RowResult> characterizeModule(const CharzOptions &opt);

    /**
     * Total measure_BER invocations issued by this characterizer so
     * far, across all workspaces and threads (perf instrumentation;
     * the HC_first bisection exists to push this down).
     */
    uint64_t berMeasurements() const
    {
        return berMeasurements_.load(std::memory_order_relaxed);
    }

  private:
    dram::DramDevice &device_;
    std::atomic<uint64_t> berMeasurements_{0};
};

/**
 * Build a Svärd vulnerability profile from characterization results,
 * binned by VulnProfile::fromTestedCounts like the oracle profile.
 * Rows the sweep skipped inherit the HC_first of the nearest tested
 * row in the same bank (a deployment would characterize every row;
 * subsampled sweeps use this interpolation and stay safe only
 * statistically — fromModel() gives the exact full-characterization
 * profile).
 */
core::VulnProfile buildProfile(const dram::ModuleSpec &spec,
                               const std::vector<RowResult> &results,
                               uint32_t num_bins = 14);

} // namespace svard::charz

#endif // SVARD_CHARZ_CHARACTERIZER_H
