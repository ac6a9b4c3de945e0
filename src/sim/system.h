/**
 * @file
 * Multi-core system glue: cores release trace requests into the
 * (possibly multi-channel) memory engine, completions feed back into
 * the cores' windows, and the run ends when every core finishes its
 * measured request count. Also hosts what every mix run shares:
 * mixTraces() seeds one trace per core, aloneIpc() is a benchmark's
 * single-core no-defense baseline, and computeMixMetrics() scores a
 * run against those baselines. Grids of runs go through
 * engine::ExperimentRunner, which shards cells of {module x defense x
 * provider x workload} across a thread pool.
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
// Mix runs: traces, alone baselines, paper metrics
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
 * Single source of the formula for the experiment engine and for
 * code that runs System directly, so their numbers stay comparable.
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
 * One trace per core of `mix`, core c seeded with
 * coreTraceOffset(seed, c). The single definition of how a mix is
 * seeded, so the engine and code that runs System directly replay
 * the same request streams.
 */
std::vector<std::vector<TraceEntry>>
mixTraces(const WorkloadMix &mix, size_t requests, uint64_t seed);

/**
 * Alone IPC of benchmark `bench` (index into benchmarkSuite()): one
 * core running mixTraces' core-0 trace with no defense, clamped to
 * at least 1e-9.
 */
double aloneIpc(const SimConfig &cfg, uint32_t bench, size_t requests,
                uint64_t seed);

} // namespace svard::sim

#endif // SVARD_SIM_SYSTEM_H
