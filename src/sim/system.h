/**
 * @file
 * Multi-core system glue: cores release trace requests into the
 * (possibly multi-channel) memory engine, completions feed back into
 * the cores' windows, and the run ends when every core finishes its
 * measured request count. Also hosts the single-threaded MixRunner
 * used by examples and tests: per-benchmark alone-IPC baselines,
 * per-mix weighted/harmonic speedup and maximum slowdown. Large
 * declarative sweeps run through engine::ExperimentRunner instead,
 * which shards cells of {module x defense x provider x workload}
 * across a thread pool.
 */
#ifndef SVARD_SIM_SYSTEM_H
#define SVARD_SIM_SYSTEM_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "defense/registry.h"
#include "sim/core_model.h"
#include "sim/engine.h"
#include "sim/workload.h"

namespace svard::sim {

/** Result of one multi-programmed run. */
struct RunResult
{
    std::vector<double> ipc;        ///< per core
    ControllerStats controller;     ///< aggregated over channels
    defense::DefenseStats defense;  ///< zeros when no defense
    std::vector<ControllerStats> perChannel;
    dram::Tick endTime = 0;
};

/** Cores + memory-engine co-simulation. */
class System
{
  public:
    /**
     * Legacy single-defense construction (tests, harness-style use).
     * @param traces one trace per core
     * @param primary measured requests per core (trace repeats after)
     * @param defense optional defense under test (not owned); its
     *        bank folding is configured to `cfg`'s geometry. Needs a
     *        1-channel config unless null.
     */
    System(const SimConfig &cfg,
           std::vector<std::vector<TraceEntry>> traces, size_t primary,
           defense::Defense *defense);

    /**
     * Registry construction: one defense instance per channel, built
     * from `defense_name` over `provider` with per-channel seeds.
     * `params` is forwarded into every channel's DefenseContext.
     */
    System(const SimConfig &cfg,
           std::vector<std::vector<TraceEntry>> traces, size_t primary,
           const std::string &defense_name,
           std::shared_ptr<const core::ThresholdProvider> provider,
           uint64_t seed, const defense::DefenseParams &params = {});

    /** Run to completion of all cores' measured phases. */
    RunResult run();

    const SimEngine &engine() const { return *engine_; }

    /** Report channel `c`'s issued DRAM commands to `obs` (not
     *  owned; observation only, the run is unchanged). */
    void
    setCommandObserver(uint32_t c, CommandObserver *obs)
    {
        engine_->setObserver(c, obs);
    }

  private:
    const SimConfig &cfg_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
    std::unique_ptr<SimEngine> engine_;
    /** Set by the completion callback: core c's release gate may have
     *  opened, so its cached next-release time must be recomputed. */
    std::vector<char> releaseDirty_;
};

// ------------------------------------------------------------------
// Single-threaded mix runner (examples, tests, engine baselines)
// ------------------------------------------------------------------

/** Per-mix system metrics vs. per-benchmark alone baselines. */
struct MixMetrics
{
    double weightedSpeedup = 0.0;
    double harmonicSpeedup = 0.0;
    double maxSlowdown = 0.0;
};

/** Per-benchmark alone-IPC lookup (index into benchmarkSuite()). */
using AloneIpcFn = std::function<double(uint32_t)>;

/**
 * The three paper metrics of one run against fixed alone baselines.
 * Single source of the formula for MixRunner and the experiment
 * engine, so sharded sweeps stay comparable with inline runs.
 */
MixMetrics computeMixMetrics(const RunResult &res,
                             const WorkloadMix &mix,
                             const AloneIpcFn &alone_ipc);

/**
 * One adversarial run (Fig. 13): core 0 executes `attack_trace`, the
 * remaining cores run adversarialBenignMix(cfg.cores) with traces
 * seeded by `trace_seed`. Returns the benign cores' weighted speedup
 * vs. their alone baselines.
 */
double adversarialBenignWs(
    const SimConfig &cfg, const std::vector<TraceEntry> &attack_trace,
    size_t requests_per_core, uint64_t trace_seed,
    const std::string &defense_name,
    std::shared_ptr<const core::ThresholdProvider> provider,
    uint64_t defense_seed, const AloneIpcFn &alone_ipc);

/**
 * Runs mixes through a defense configuration and reports the three
 * paper metrics. Alone-IPC baselines (single core, no defense) are
 * computed once per benchmark and cached inside the runner. Not
 * thread-safe: each thread of a sharded sweep owns its cells end to
 * end (see engine::ExperimentRunner).
 */
class MixRunner
{
  public:
    MixRunner(SimConfig cfg, size_t requests_per_core,
              uint64_t seed = 11);

    /** Metrics of one mix under a defense configuration. */
    MixMetrics runMix(const WorkloadMix &mix,
                      const std::string &defense_name,
                      std::shared_ptr<const core::ThresholdProvider>
                          provider,
                      RunResult *raw = nullptr);

    /** Alone IPC of a benchmark (cached). */
    double aloneIpc(uint32_t bench_idx);

    const SimConfig &config() const { return cfg_; }
    size_t requestsPerCore() const { return requests_; }
    uint64_t seed() const { return seed_; }

  private:
    std::vector<std::vector<TraceEntry>>
    tracesForMix(const WorkloadMix &mix) const;

    SimConfig cfg_;
    size_t requests_;
    uint64_t seed_;
    std::vector<double> aloneCache_;
};

} // namespace svard::sim

#endif // SVARD_SIM_SYSTEM_H
