/**
 * @file
 * Parallel experiment engine: enumerates a SweepSpec's cells, shards
 * them across a std::thread pool, and emits one result table the
 * figure benches consume. Every cell derives its RNG seed from its
 * grid coordinates (hashSeed over the axis indices), and each worker
 * writes only its own pre-allocated result slot, so the output is
 * bit-identical for any thread count — a 4-thread sharded sweep
 * reproduces the single-threaded run cell for cell.
 *
 * Baselines are part of the grid: per-(geometry, benchmark) alone
 * IPCs and per-(geometry, mix) no-defense runs are sharded first,
 * then defense cells run against those fixed references.
 */
#ifndef SVARD_ENGINE_RUNNER_H
#define SVARD_ENGINE_RUNNER_H

#include <map>
#include <memory>
#include <vector>

#include "core/vuln_profile.h"
#include "engine/sweep.h"

namespace svard::engine {

/**
 * Execute an adversarial grid (Fig. 13): {attack case x provider x
 * trace} cells sharded across a thread pool, no-defense reference
 * runs shared across providers. Deterministic for any thread count.
 * Runs through the same grid executor as ExperimentRunner::run():
 * the spec's sink receives defended cells in enumeration order, and
 * the cache checkpoints alone-IPC, reference and defended runs, all
 * skipped on resume. `io_stats`, when given, receives the
 * executed/cached counts of defended cells (baselines are reported
 * in the run manifest).
 */
std::vector<AdversarialResult>
runAdversarialSweep(const AdversarialSpec &adv,
                    SweepIoStats *io_stats = nullptr);

class ExperimentRunner
{
  public:
    /**
     * @throws std::invalid_argument for unknown defense/module names
     *         and for degenerate specs (an empty defense, threshold,
     *         provider, or mix axis; a mix without benchmarks; zero
     *         requests per core) — a silent empty grid is never run.
     */
    explicit ExperimentRunner(SweepSpec spec);

    /** Execute the grid (cached: repeat calls return the same run). */
    const std::vector<CellResult> &run();

    /** run() stopped early via spec.stopFlag: the returned table is
     *  a valid prefix-complete partial (finished cells are real and
     *  checkpointed; unfinished ones carry zero metrics). */
    bool interrupted() const { return interrupted_; }

    /** Enumerate + resolve every cell's metadata (coords, seed,
     *  fingerprint) without executing; sets specFingerprint().
     *  Idempotent; returns the cell count. */
    size_t prepareCells();

    /** Build profiles/traces/baselines if not yet built (cache-aware
     *  and checkpointed, so a resumed run skips re-simulating them).
     *  Requires prepareCells(). Idempotent, not thread-safe — call
     *  before sharding. */
    void ensureBaselines();

    /** Cell metadata after prepareCells() (coords, seed, fingerprint;
     *  metrics are filled by run()). */
    const std::vector<CellResult> &resolvedCells() const
    {
        return results_;
    }

    /** Cells actually simulated by run() (cache misses). */
    size_t executedCells() const { return executed_; }

    /** Cells satisfied from the sweep cache without execution. */
    size_t cachedCells() const { return cachedHits_; }

    /** Baseline runs (alone-IPC + no-defense mixes) simulated. */
    size_t executedBaselines() const { return executedBase_; }

    /** Baseline runs satisfied from the sweep cache — a partial
     *  resume stops recomputing them. */
    size_t cachedBaselines() const { return cachedBase_; }

    /** Order-sensitive hash over every cell fingerprint (the whole
     *  grid's identity; recorded in the run manifest). 0 before
     *  run(). */
    uint64_t specFingerprint() const { return specFingerprint_; }

    /** Mean normalized metrics per configuration, axis order. */
    std::vector<SummaryRow> summarize();

    const SweepSpec &spec() const { return spec_; }

    /** The geometry axis after defaulting (geometryNames or config). */
    const std::vector<sim::SimConfig> &geometries() const
    {
        return geoms_;
    }

    /** Alone IPC baseline of a benchmark under a geometry (post-run).
     *  Only populated when at least one cell executed: a fully cached
     *  run skips baseline simulation entirely. */
    double aloneIpc(uint32_t geom, uint32_t bench_idx) const;

  private:
    /** Deterministic seed of a cell from its grid coordinates.
     *  Excludes the drift coordinate: the static entry of a drift
     *  axis must reproduce the pre-drift RNG streams bit for bit. */
    uint64_t cellSeed(const SweepCell &c) const;

    /** Seed of a cell's drift trajectory. Hashes the drift entry's
     *  *identity* (model, epochs, guardband) plus the geometry /
     *  threshold / provider coordinates — but neither defense nor
     *  mix, so every defense and workload is judged against the same
     *  physical trajectory, and not the policy, so policies compare
     *  on identical drift. */
    uint64_t driftSeed(const SweepCell &c) const;

    /**
     * Fill a cell's metadata (coords, seed, resolved axis values)
     * without executing it, and its cache fingerprint: a hash of the
     * seed and every input that shapes its result (geometry + timing,
     * request count, defense name, threshold value, provider, workload
     * mix, drift entry). Two runs compute the same
     * fingerprint for a cell iff the cell would simulate identically,
     * which is what makes the sweep cache safe across spec edits.
     */
    void resolveCellMeta(const SweepCell &c, CellResult *out) const;

    /** Simulate cell `i` into results_[i] (drift evaluation, mix run,
     *  normalization); the caller checkpoints it. */
    void simulateCell(size_t i);

    sim::MixMetrics runMixCell(uint32_t geom, uint32_t mix,
                               const std::string &defense_name,
                               std::shared_ptr<
                                   const core::ThresholdProvider>
                                   provider,
                               uint64_t seed,
                               double recal_duty = 0.0) const;

    SweepSpec spec_;
    std::vector<sim::SimConfig> geoms_;
    std::vector<DriftSpec> drifts_; ///< defaulted + canonicalized
    /** (geometry, module label) -> profile. */
    using ProfileMap = std::map<std::pair<uint32_t, std::string>,
                                std::shared_ptr<const core::VulnProfile>>;
    /** Built before sharding; each cell scales its module's profile
     *  to its threshold, a copy that shares the bins. */
    ProfileMap profiles_;

    /** Per-mix core traces, generated once and copied into each cell
     *  (traces depend only on the base seed, not the geometry). */
    std::vector<std::vector<std::vector<sim::TraceEntry>>> mixTraces_;
    std::vector<std::vector<double>> aloneIpc_;         ///< [geom][bench]
    std::vector<std::vector<sim::MixMetrics>> mixBase_; ///< [geom][mix]
    std::vector<CellResult> results_;
    std::vector<SweepCell> cells_; ///< enumeration order (prepareCells)
    bool prepared_ = false;
    bool baselinesReady_ = false;
    bool interrupted_ = false;
    bool ran_ = false;
    size_t executed_ = 0;
    size_t cachedHits_ = 0;
    size_t executedBase_ = 0;
    size_t cachedBase_ = 0;
    uint64_t specFingerprint_ = 0;
};

} // namespace svard::engine

#endif // SVARD_ENGINE_RUNNER_H
