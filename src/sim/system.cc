#include "sim/system.h"

#include <algorithm>

#include "common/log.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace svard::sim {

namespace {
constexpr dram::Tick kFar = std::numeric_limits<dram::Tick>::max() / 4;
/** Co-simulation quantum: bounded drift between cores and controller. */
constexpr dram::Tick kQuantum = 500 * dram::kPsPerNs;

/**
 * Fold one finished run's controller/defense stats into the process
 * metrics registry. Pure observation: reads completed stats, feeds
 * nothing back, so results are identical with metrics on or off.
 */
void
foldRunMetrics(const std::vector<defense::Defense *> &defenses,
               const RunResult &res)
{
    if (!obs::metricsEnabled())
        return;
    static const obs::MetricId runs = obs::counter("sim.runs");
    static const obs::MetricId reads = obs::counter("sim.reads");
    static const obs::MetricId writes = obs::counter("sim.writes");
    static const obs::MetricId acts = obs::counter("sim.activations");
    static const obs::MetricId rowHits = obs::counter("sim.row_hits");
    static const obs::MetricId rowConf =
        obs::counter("sim.row_conflicts");
    static const obs::MetricId refr = obs::counter("sim.refreshes");
    static const obs::MetricId tfaw = obs::counter("sim.tfaw_stalls");
    static const obs::MetricId defActs =
        obs::counter("defense.activations_observed");
    static const obs::MetricId defPrev =
        obs::counter("defense.preventive_refreshes");
    static const obs::MetricId defThrottle =
        obs::counter("defense.throttle_events");
    static const obs::MetricId defMigr =
        obs::counter("defense.migrations");
    static const obs::MetricId defSwaps = obs::counter("defense.swaps");
    static const obs::MetricId defMeta =
        obs::counter("defense.metadata_accesses");
    static const obs::MetricId defEntries =
        obs::gauge("defense.table_entries");
    static const obs::MetricId defRehashes =
        obs::counter("defense.table_rehashes");

    const ControllerStats &c = res.controller;
    obs::add(runs);
    obs::add(reads, c.reads);
    obs::add(writes, c.writes);
    obs::add(acts, c.activations);
    obs::add(rowHits, c.rowHits);
    obs::add(rowConf, c.rowConflicts);
    obs::add(refr, c.refreshes);
    obs::add(tfaw, c.tfawStalls);

    if (std::none_of(defenses.begin(), defenses.end(),
                     [](const defense::Defense *d) { return d != nullptr; }))
        return;
    const defense::DefenseStats &d = res.defense;
    obs::add(defActs, d.activationsObserved);
    obs::add(defPrev, d.preventiveRefreshes);
    obs::add(defThrottle, d.throttleEvents);
    obs::add(defMigr, d.migrations);
    obs::add(defSwaps, d.swaps);
    obs::add(defMeta, d.metadataAccesses);
    uint64_t entries = 0, rehashes = 0;
    for (const defense::Defense *def : defenses) {
        if (def) {
            uint64_t e = 0, r = 0;
            def->tableStats(&e, &r);
            entries += e;
            rehashes += r;
        }
    }
    obs::gaugeMax(defEntries, entries);
    obs::add(defRehashes, rehashes);
}
} // anonymous namespace

System::System(const SimConfig &cfg,
               std::vector<std::vector<TraceEntry>> traces,
               size_t primary, defense::Defense *defense)
    : cfg_(cfg), mapper_(cfg)
{
    SVARD_ASSERT(defense == nullptr || cfg_.channels == 1,
                 "a shared external defense is single-channel only; "
                 "use the registry constructor for multi-channel runs");
    if (defense)
        defense->setBanksPerRank(cfg_.banksPerRank());
    defenses_.assign(cfg_.channels, defense);
    build(std::move(traces), primary);
}

System::System(const SimConfig &cfg,
               std::vector<std::vector<TraceEntry>> traces,
               size_t primary, const std::string &defense_name,
               std::shared_ptr<const core::ThresholdProvider> provider,
               uint64_t seed)
    : cfg_(cfg), mapper_(cfg)
{
    for (uint32_t c = 0; c < cfg_.channels; ++c) {
        // Channel 0 keeps the caller's seed, so a 1-channel run
        // seeds its defense with `seed` itself.
        const uint64_t chan_seed =
            c == 0 ? seed : hashSeed({seed, c, 0xC4A77E1ULL});
        ownedDefenses_.push_back(defense::makeDefenseByName(
            defense_name,
            defense::DefenseContext(cfg_, provider, chan_seed)));
        defenses_.push_back(ownedDefenses_.back().get());
    }
    build(std::move(traces), primary);
}

void
System::build(std::vector<std::vector<TraceEntry>> traces,
              size_t primary)
{
    SVARD_ASSERT(!traces.empty(), "system needs traces");
    SVARD_ASSERT(cfg_.channels >= 1, "need at least one channel");
    for (uint32_t c = 0; c < traces.size(); ++c)
        cores_.push_back(std::make_unique<CoreModel>(
            cfg_, c, std::move(traces[c]), primary));
    releaseDirty_.assign(cores_.size(), 1);

    const MemController::Completion on_complete =
        [this](const MemRequest &req, dram::Tick when) {
            cores_[req.core]->onReadComplete(req.token, when);
            releaseDirty_[req.core] = 1;
        };
    for (defense::Defense *d : defenses_)
        controllers_.push_back(
            std::make_unique<MemController>(cfg_, d, on_complete));
}

dram::Tick
System::clock() const
{
    dram::Tick t = controllers_[0]->now();
    for (const auto &mc : controllers_)
        t = std::min(t, mc->now());
    return t;
}

RunResult
System::run()
{
    const dram::Tick hard_stop = 30000 * dram::kPsPerMs; // 30 s simulated
    // primaryDone is monotonic, so finished cores are checked once
    // and dropped instead of being re-polled every loop iteration.
    std::vector<char> done(cores_.size(), 0);
    size_t done_count = 0;
    auto all_done = [&] {
        for (size_t c = 0; c < cores_.size(); ++c) {
            if (done[c])
                continue;
            if (!cores_[c]->primaryDone())
                return false;
            done[c] = 1;
            ++done_count;
        }
        return done_count == cores_.size();
    };

    // Cached per-core release gates: canRelease(now) is exactly
    // nextReleaseTime() <= now, and a core's release time moves only
    // through its own releases/stalls (refreshed below) or a read
    // completion (releaseDirty_, set by the completion callback), so
    // blocked cores are skipped without re-polling them.
    std::vector<dram::Tick> next_rel(cores_.size(), 0);

    while (!all_done() && clock() < hard_stop) {
        const dram::Tick now = clock();
        bool released = false;
        for (size_t c = 0; c < cores_.size(); ++c) {
            if (!releaseDirty_[c] && next_rel[c] > now)
                continue;
            CoreModel &core = *cores_[c];
            while (core.canRelease(now)) {
                // Route by channel before releasing: backpressure is
                // per-channel, and enqueue is irreversible for the
                // core's state.
                const dram::Address addr =
                    mapper_.map(core.peek().address);
                MemController &mc = *controllers_[addr.channel];
                if (mc.readQueueFull() || mc.writeQueueFull()) {
                    core.stallUntil(now + 20 * dram::kPsPerNs);
                    break;
                }
                uint64_t token = 0;
                const TraceEntry e = core.release(now, &token);
                MemRequest req;
                req.core = core.id();
                req.write = e.write;
                req.addr = addr;
                req.arrive = now;
                req.token = token;
                const bool ok = mc.enqueue(req);
                SVARD_ASSERT(ok, "enqueue failed after capacity check");
                released = true;
            }
            next_rel[c] = core.nextReleaseTime();
            releaseDirty_[c] = 0;
        }
        if (released)
            continue;

        dram::Tick next_core = kFar;
        for (size_t c = 0; c < cores_.size(); ++c)
            next_core = std::min(next_core, next_rel[c]);
        dram::Tick until = std::min(next_core, now + kQuantum);
        if (until <= now)
            until = now + kQuantum;
        // All channels advance in lockstep to the same target tick.
        for (auto &mc : controllers_)
            mc->run(until);
        if (clock() <= now) {
            // Defensive: guarantee forward progress.
            for (auto &mc : controllers_)
                mc->run(now + cfg_.timing.tCK);
            if (clock() <= now)
                break;
        }
    }

    RunResult out;
    for (const auto &core : cores_)
        out.ipc.push_back(core->ipc());
    for (const auto &mc : controllers_) {
        out.perChannel.push_back(mc->stats());
        out.controller += mc->stats();
    }
    // Each non-null defense is its channel's own instance: the
    // caller-owned constructor allows one only on a single channel.
    for (const defense::Defense *d : defenses_) {
        if (!d)
            continue;
        const defense::DefenseStats &s = d->stats();
        out.defense.activationsObserved += s.activationsObserved;
        out.defense.preventiveRefreshes += s.preventiveRefreshes;
        out.defense.throttleEvents += s.throttleEvents;
        out.defense.throttleDelayTotal += s.throttleDelayTotal;
        out.defense.migrations += s.migrations;
        out.defense.swaps += s.swaps;
        out.defense.metadataAccesses += s.metadataAccesses;
    }
    out.endTime = clock();
    foldRunMetrics(defenses_, out);
    return out;
}

std::vector<std::vector<TraceEntry>>
mixTraces(const WorkloadMix &mix, size_t requests, uint64_t seed)
{
    std::vector<std::vector<TraceEntry>> traces;
    const auto &suite = benchmarkSuite();
    for (uint32_t c = 0; c < mix.benchIdx.size(); ++c) {
        SVARD_ASSERT(mix.benchIdx[c] < suite.size(), "bench out of range");
        traces.push_back(generateTrace(suite[mix.benchIdx[c]], requests,
                                       seed, coreTraceOffset(seed, c)));
    }
    return traces;
}

double
aloneIpc(const SimConfig &cfg, uint32_t bench, size_t requests,
         uint64_t seed)
{
    const WorkloadMix solo{"alone", {bench}};
    System sys(cfg, mixTraces(solo, requests, seed), requests, nullptr);
    return std::max(sys.run().ipc[0], 1e-9);
}

MixMetrics
computeMixMetrics(const RunResult &res, const WorkloadMix &mix,
                  const AloneIpcFn &alone_ipc)
{
    MixMetrics m;
    double harm_acc = 0.0;
    for (uint32_t c = 0; c < mix.benchIdx.size(); ++c) {
        const double alone =
            std::max(alone_ipc(mix.benchIdx[c]), 1e-9);
        const double shared = std::max(res.ipc[c], 1e-9);
        m.weightedSpeedup += shared / alone;
        harm_acc += alone / shared;
        m.maxSlowdown = std::max(m.maxSlowdown, alone / shared);
    }
    m.harmonicSpeedup =
        static_cast<double>(mix.benchIdx.size()) / harm_acc;
    return m;
}

double
adversarialBenignWs(
    const SimConfig &cfg, const std::vector<TraceEntry> &attack_trace,
    size_t requests_per_core, uint64_t trace_seed,
    const std::string &defense_name,
    std::shared_ptr<const core::ThresholdProvider> provider,
    uint64_t defense_seed, const AloneIpcFn &alone_ipc)
{
    // Core 0 is the attacker; the rest run the fixed benign mix.
    const WorkloadMix benign = adversarialBenignMix(cfg.cores);
    const auto &suite = benchmarkSuite();

    std::vector<std::vector<TraceEntry>> traces;
    traces.push_back(attack_trace);
    for (uint32_t c = 1; c < cfg.cores; ++c)
        traces.push_back(generateTrace(suite[benign.benchIdx[c - 1]],
                                       requests_per_core, trace_seed,
                                       coreTraceOffset(trace_seed, c)));

    System sys(cfg, std::move(traces), requests_per_core, defense_name,
               std::move(provider), defense_seed);
    const RunResult res = sys.run();

    double ws = 0.0;
    for (uint32_t c = 1; c < cfg.cores; ++c)
        ws += std::max(res.ipc[c], 1e-9) /
              std::max(alone_ipc(benign.benchIdx[c - 1]), 1e-9);
    return ws;
}

} // namespace svard::sim
