/**
 * @file
 * Declarative experiment grids. The paper's headline evaluations
 * (Fig. 12 performance overheads, Fig. 13 adversarial workloads) are
 * grids of {DRAM module/geometry x defense x threshold provider x
 * workload} runs; a SweepSpec names each axis once and the engine
 * enumerates, shards, and executes the cells. Geometry is a sweep
 * axis too: every cell resamples its module profile onto its
 * SimConfig's banks-per-rank x rows-per-bank space, so HBM-style or
 * multi-channel configurations drop in without touching defense code.
 */
#ifndef SVARD_ENGINE_SWEEP_H
#define SVARD_ENGINE_SWEEP_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/system.h"
#include "sim/workload.h"

namespace svard::io {
class ResultSink;
class SweepCache;
} // namespace svard::io

namespace svard::engine {

/** One threshold-provider configuration of the sweep. */
struct ProviderSpec
{
    std::string name;        ///< display name (e.g. "Svard-S0")
    std::string moduleLabel; ///< empty: uniform worst-case threshold

    /** The paper's No-Svärd baseline (uniform worst case). */
    static ProviderSpec
    uniform()
    {
        return {"NoSvard", ""};
    }

    /** Svärd over the named module's vulnerability profile. */
    static ProviderSpec
    svard(const std::string &module_label)
    {
        return {"Svard-" + module_label, module_label};
    }
};

/**
 * One entry of the temporal-drift sweep axis: how per-row HC_first
 * moves over tREFW-sized epochs (fault/drift.h grammar), which
 * recalibration policy the defense runs (core/recal.h grammar), how
 * many drifted epochs the cell covers, and the calibration guardband.
 * The default entry is the static path: no drift, no policy, and the
 * engine reproduces pre-drift results bit for bit.
 */
struct DriftSpec
{
    std::string model = "none";  ///< fault::DriftModelSpec grammar
    std::string policy = "none"; ///< core::RecalPolicy grammar
    uint32_t epochs = 0;         ///< drifted tREFW epochs (0 = static)
    double guardband = 0.0;      ///< fractional threshold headroom

    bool
    isStatic() const
    {
        return model == "none" && policy == "none" && epochs == 0 &&
               guardband == 0.0;
    }

    /** Axis display name ("aging:64/periodic:8/e32/g0.05"). */
    std::string name() const;
};

/** Drift outcome of one cell (zero on the static path). */
struct DriftMetrics
{
    uint64_t escapes = 0;        ///< stale-profile threshold escapes
    uint64_t recalibrations = 0; ///< policy-triggered recals
    double escapeRate = 0.0;     ///< escapes / (epochs x sampled rows)
    double recalCost = 0.0;      ///< refresh-duty fraction charged
};

/**
 * The full grid: geometries x defenses x thresholds x providers x
 * drifts x mixes. Axes with one entry are fixed; the engine runs the
 * cross product of the rest.
 */
struct SweepSpec
{
    /** Base system configuration (also the default geometry). */
    sim::SimConfig config;

    /**
     * Optional geometry axis by preset name (sim/presets.h), resolved
     * through sim::presets::get. Every entry is swept as its own
     * (channels/ranks/banks/rows) system; its `geometry` label lands
     * in the sink's geometry column and in cache fingerprints. Empty
     * defaults the axis to {config}. Unknown names throw
     * std::invalid_argument at construction — a typoed preset must
     * never silently sweep the default system.
     */
    std::vector<std::string> geometryNames;

    std::vector<std::string> defenses;  ///< registry names; "none" ok
    std::vector<double> thresholds;     ///< worst-case HC_first sweep
    std::vector<ProviderSpec> providers;
    std::vector<sim::WorkloadMix> mixes;

    /**
     * Optional temporal-drift axis (model x policy x epochs x
     * guardband per entry). Empty defaults to a single static entry,
     * which reproduces the pre-drift engine byte for byte. Malformed
     * model/policy grammar throws std::invalid_argument at
     * construction.
     */
    std::vector<DriftSpec> drifts;

    size_t requestsPerCore = 6000;
    uint64_t baseSeed = 11;

    /** Worker threads for cell sharding (0 = hardware concurrency). */
    unsigned threads = 0;

    /**
     * Optional streaming sink: finished cells are emitted in final
     * enumeration order as soon as every predecessor has completed,
     * so a paper-scale sweep can be tailed while it runs and the
     * final file is bit-identical at any thread count.
     */
    std::shared_ptr<io::ResultSink> sink;

    /**
     * Optional per-cell cache / checkpoint: before scheduling, every
     * cell is looked up by (deterministic seed, spec fingerprint);
     * hits skip execution, misses are appended as workers finish.
     * Re-running an interrupted or edited sweep against the same
     * cache executes only missing/changed cells.
     */
    std::shared_ptr<io::SweepCache> cache;

    /**
     * Optional run-manifest path (obs/manifest.h): after the sweep
     * finishes, a JSON record of what produced the output — spec
     * fingerprint, seed, thread count, build flags, wall time, cell
     * counts, and the final metrics snapshot — is written
     * here. Conventionally `<out>.manifest.json` next to the sink.
     */
    std::string manifestPath;

    /**
     * Optional graceful-stop flag (signal handlers set it). Workers
     * finish their in-flight cell, skip the rest, and run() returns
     * the partial table with interrupted() true after flushing the
     * sink and cache and writing the manifest with
     * `"interrupted": true`. Finished cells stay checkpointed, so a
     * re-run resumes where the stop landed.
     */
    std::atomic<bool> *stopFlag = nullptr;

    /** Progress-line phase label ("fig12-sweep" etc). */
    std::string progressLabel = "sweep";
};

/** Grid coordinates of one cell. */
struct SweepCell
{
    uint32_t geom = 0;
    uint32_t defense = 0;
    uint32_t threshold = 0;
    uint32_t provider = 0;
    uint32_t mix = 0;
    /** Drift-axis index; last field so the pre-drift five-coordinate
     *  aggregate initializers keep meaning the static entry. */
    uint32_t drift = 0;
};

/** One executed cell. */
struct CellResult
{
    SweepCell cell;
    uint64_t seed = 0;          ///< deterministic per-cell seed
    uint64_t fingerprint = 0;   ///< hash of the cell's resolved inputs
    std::string geometry;       ///< geometry label (preset name)
    std::string defense;        ///< resolved axis values for reporting
    double threshold = 0.0;
    std::string provider;
    std::string mix;
    /** Resolved drift-axis values ("none"/"none"/0/0 when static). */
    std::string driftModel = "none";
    std::string driftPolicy = "none";
    uint32_t driftEpochs = 0;
    double guardband = 0.0;
    sim::MixMetrics metrics{};    ///< raw paper metrics
    sim::MixMetrics normalized{}; ///< vs. same-geometry/mix no-defense run
    DriftMetrics drift{};         ///< escapes / recals (static: zeros)
};

/** Mean normalized metrics of one configuration across its mixes. */
struct SummaryRow
{
    uint32_t geom = 0;
    std::string defense;
    double threshold = 0.0;
    std::string provider;
    std::string drift = "none"; ///< DriftSpec::name() of the group
    uint32_t mixCount = 0;
    sim::MixMetrics meanNormalized;
    DriftMetrics driftMetrics;  ///< per-mix means (counts: first cell)
};

// ------------------------------------------------------------------
// Adversarial sweeps (Fig. 13)
// ------------------------------------------------------------------

/** A defense under a family of adversarial traces. */
struct AdversarialCase
{
    std::string name;    ///< display name (e.g. "Hydra-thrash")
    std::string defense; ///< registry name
    /** Traces averaged over (the expected-case attacker does not know
     *  the module's profile, so evaluations vary the target rows). */
    std::vector<std::vector<sim::TraceEntry>> traces;
};

struct AdversarialSpec
{
    sim::SimConfig config;
    double threshold = 64.0; ///< worst-case HC_first
    std::vector<AdversarialCase> cases;
    std::vector<ProviderSpec> providers;
    size_t requestsPerCore = 6000;
    uint64_t baseSeed = 11;
    unsigned threads = 0;

    /** Optional streaming sink for defended cells (see SweepSpec). */
    std::shared_ptr<io::ResultSink> sink;

    /** Optional per-cell cache; covers reference runs too, so a
     *  resumed adversarial sweep re-executes nothing it finished. */
    std::shared_ptr<io::SweepCache> cache;

    /** Optional run-manifest path (see SweepSpec::manifestPath). */
    std::string manifestPath;

    /** Optional graceful-stop flag (see SweepSpec::stopFlag). */
    std::atomic<bool> *stopFlag = nullptr;

    /** Progress-line phase label. */
    std::string progressLabel = "adversarial";
};

/** Cache effectiveness of one sweep execution. */
struct SweepIoStats
{
    size_t executed = 0; ///< grid cells actually simulated this run
    size_t cached = 0;   ///< grid cells satisfied from the cache
};

struct AdversarialResult
{
    std::string caseName;
    std::string defense;
    std::string provider;
    double benignWs = 0.0;  ///< mean benign weighted speedup
    double slowdown = 0.0;  ///< mean no-defense WS / defended WS
    /** slowdown / the same case's first-provider slowdown. Put the
     *  No-Svärd baseline first in AdversarialSpec::providers to get
     *  the paper's normalize-to-NoSvärd bars. */
    double normalizedSlowdown = 0.0;
};

} // namespace svard::engine

#endif // SVARD_ENGINE_SWEEP_H
