#include "engine/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>

#include "common/log.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "engine/drift_eval.h"
#include "fault_inject/fault_inject.h"
#include "dram/module_spec.h"
#include "fault/drift.h"
#include "fault/vuln_model.h"
#include "io/result_sink.h"
#include "io/sweep_cache.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sim/presets.h"

namespace svard::engine {

namespace {

using Clock = std::chrono::steady_clock;

double
safeRatio(double num, double den)
{
    return num / std::max(den, 1e-12);
}

void
requireSpec(bool ok, const std::string &what)
{
    if (!ok)
        throw std::invalid_argument("degenerate sweep spec: " + what);
}

/**
 * Streams results to a sink in final enumeration order while workers
 * complete cells in arbitrary order: complete(i) marks slot i done
 * and emits every consecutive done slot past the cursor. The emitted
 * stream is therefore a growing prefix of the final table — tailable
 * mid-run, bit-identical at any thread count.
 */
class OrderedEmitter
{
  public:
    OrderedEmitter(const std::vector<CellResult> &results,
                   io::ResultSink *sink)
        : results_(results), sink_(sink), done_(results.size(), 0)
    {}

    void
    complete(size_t i)
    {
        // The disabled check belongs under the lock: the unlocked
        // early-return it replaced raced a concurrent disable() on
        // the sink_ pointer (caught by thread-safety annotation).
        MutexLock lock(mu_);
        if (!sink_)
            return;
        done_[i] = 1;
        while (cursor_ < done_.size() && done_[cursor_]) {
            sink_->write(results_[cursor_]);
            ++cursor_;
        }
    }

    /** Stop emitting (after a cell or sink failure, which the pool
     *  rethrows once every cell has run). */
    void
    disable()
    {
        MutexLock lock(mu_);
        sink_ = nullptr;
    }

  private:
    const std::vector<CellResult> &results_;
    io::ResultSink *sink_ SVARD_GUARDED_BY(mu_);
    std::vector<char> done_ SVARD_GUARDED_BY(mu_);
    size_t cursor_ SVARD_GUARDED_BY(mu_) = 0;
    Mutex mu_;
};

/** Fold the full system configuration (geometry + timing) into a
 *  fingerprint: any field that changes simulation behaviour must be
 *  mixed here, or an edited config would wrongly hit the cache. */
void
hashConfig(HashStream &h, const sim::SimConfig &g)
{
    // The geometry label and standard are part of the cell identity:
    // a cached DDR4 cell must never be attributed to an HBM2 or DDR5
    // preset even if an (unlikely) field-for-field collision existed.
    h.mix(g.geometry).mix(static_cast<uint32_t>(g.standard));
    h.mix(g.cores).mix(g.cpuGhz).mix(g.issueWidth).mix(g.instrWindow);
    h.mix(g.channels).mix(g.ranks).mix(g.bankGroups);
    h.mix(g.banksPerGroup).mix(g.rowsPerBank).mix(g.rowBytes);
    h.mix(g.readQueue).mix(g.writeQueue).mix(g.columnCap);
    h.mix(g.mopWidth).mix(g.recalDuty);
    const dram::TimingParams &t = g.timing;
    h.mix(t.tCK).mix(t.tRCD).mix(t.tRP).mix(t.tRAS).mix(t.tRC);
    h.mix(t.tCL).mix(t.tCWL).mix(t.tBL).mix(t.tCCD_S).mix(t.tCCD_L);
    h.mix(t.tRRD_S).mix(t.tRRD_L).mix(t.tFAW).mix(t.tWR).mix(t.tRTP);
    h.mix(t.tWTR_S).mix(t.tWTR_L).mix(t.tRFC).mix(t.tREFI);
    h.mix(t.tREFW);
}

void
hashTrace(HashStream &h, const std::vector<sim::TraceEntry> &trace)
{
    h.mix(trace.size());
    for (const auto &e : trace)
        h.mix(e.gap).mix(e.write ? 1 : 0).mix(e.address);
}

/**
 * Reject typoed module labels on the caller's thread: inside a
 * sharded worker, moduleByLabel's fatal() would kill the sweep
 * uncatchably mid-run.
 */
void
validateProviderLabels(const std::vector<ProviderSpec> &providers)
{
    const auto &modules = dram::allModules();
    for (const auto &p : providers) {
        if (!p.moduleLabel.empty() &&
            std::none_of(modules.begin(), modules.end(), [&](auto &m) {
                return m.label == p.moduleLabel;
            }))
            throw std::invalid_argument(
                "unknown module label \"" + p.moduleLabel +
                "\" in provider spec \"" + p.name + "\"");
    }
}

using ProfileMap =
    std::map<std::pair<uint32_t, std::string>,
             std::shared_ptr<const core::VulnProfile>>;

/** Module profiles of every (geometry index, provider label) pair,
 *  each resampled onto its geometry; built in parallel, read-only
 *  once sharding starts. */
ProfileMap
buildProfiles(const std::vector<sim::SimConfig> &geoms,
              const std::vector<ProviderSpec> &providers,
              unsigned threads)
{
    ProfileMap out;
    std::vector<std::pair<uint32_t, std::string>> wanted;
    for (uint32_t g = 0; g < geoms.size(); ++g)
        for (const auto &p : providers)
            if (!p.moduleLabel.empty() &&
                out.try_emplace({g, p.moduleLabel}).second)
                wanted.push_back({g, p.moduleLabel});
    // Assign through find(): keys were inserted serially above, and
    // map::find is data-race-const, unlike operator[].
    parallelFor(wanted.size(), threads, [&](size_t i) {
        const sim::SimConfig &cfg = geoms[wanted[i].first];
        const auto &spec = dram::moduleByLabel(wanted[i].second);
        fault::VulnerabilityModel model(
            spec, std::make_shared<dram::SubarrayMap>(spec));
        out.find(wanted[i])->second =
            std::make_shared<core::VulnProfile>(
                core::VulnProfile::fromModel(model).resampledTo(
                    cfg.banksPerRank(), cfg.rowsPerBank));
    });
    return out;
}

/** A cell's threshold provider: Svärd over its module's profile
 *  scaled to the cell's threshold (an O(bins) copy sharing the
 *  module's bins), or the uniform worst case when the provider names
 *  none. */
std::shared_ptr<const core::ThresholdProvider>
cellProvider(const ProfileMap &profiles, uint32_t geom,
             const std::string &label, double threshold,
             uint32_t rows_per_bank)
{
    if (label.empty())
        return std::make_shared<core::UniformThreshold>(threshold,
                                                        rows_per_bank);
    return std::make_shared<core::Svard>(
        std::make_shared<const core::VulnProfile>(
            profiles.at({geom, label})->scaledTo(threshold)));
}

/** Alone-IPC baseline record of one benchmark (the IPC rides in
 *  weightedSpeedup). */
sim::MixMetrics
aloneRun(const sim::SimConfig &cfg, uint32_t bench, size_t requests,
         uint64_t seed)
{
    return {.weightedSpeedup = sim::aloneIpc(cfg, bench, requests, seed)};
}

/** Fill a resolved cell's outcome from its checkpoint; false on a
 *  miss. */
bool
restoreCell(io::SweepCache *cache, CellResult &out)
{
    return cache && cache->lookup(out.seed, out.fingerprint, &out);
}

/** What a batch of runs (grid cells or baselines) did. */
struct RunCounts
{
    size_t executed = 0;      ///< runs simulated
    size_t cached = 0;        ///< runs served from the cache
    bool interrupted = false; ///< the stop flag dropped unstarted cells
};

/**
 * Resolve baseline records in place, sharded: a checkpointed record
 * keeps its metrics; a miss runs `compute` and is checkpointed under
 * the same fingerprint scheme as grid cells, so a partial resume stops
 * recomputing it. parallelFor rethrows the first cache I/O failure once
 * every record has run.
 */
void
cacheOrCompute(
    io::SweepCache *cache, unsigned threads,
    std::vector<CellResult> &records,
    const std::function<sim::MixMetrics(const CellResult &)> &compute,
    RunCounts *counts)
{
    std::atomic<size_t> executed{0};
    parallelFor(records.size(), threads, [&](size_t i) {
        CellResult &rec = records[i];
        if (restoreCell(cache, rec))
            return;
        rec.metrics = compute(rec);
        executed.fetch_add(1);
        if (cache)
            cache->store(rec);
    });
    counts->executed += executed.load();
    counts->cached += records.size() - executed.load();
}

/**
 * The grid executor of both grid kinds; `spec` is a SweepSpec or an
 * AdversarialSpec (they spell the I/O fields alike). `results` holds
 * every cell's resolved seed and fingerprint in enumeration order.
 * Cached cells keep their checkpointed metrics; `prepare` runs only
 * when some cell misses; `execute(i)` fills results[i]. Cells stream
 * to the sink in final order, bit-identical at any thread count.
 */
template <class Spec>
RunCounts
runGrid(const Spec &spec, std::vector<CellResult> &results,
        const char *span_name,
        const std::function<void(obs::Span &, const CellResult &)>
            &span_args,
        const std::function<void()> &prepare,
        const std::function<void(size_t)> &execute)
{
    static const obs::MetricId cells_executed =
        obs::counter("sweep.cells_executed");
    static const obs::MetricId cells_cached =
        obs::counter("sweep.cells_cached");
    static const obs::MetricId cell_wall =
        obs::histogram("sweep.cell_wall_us");

    io::SweepCache *cache = spec.cache.get();
    io::ResultSink *sink = spec.sink.get();
    RunCounts run;
    std::vector<size_t> pending;
    std::vector<char> hit(results.size(), 0);
    {
        obs::Span probe_span("sweep", "cache_probe");
        for (size_t i = 0; i < results.size(); ++i) {
            if (restoreCell(cache, results[i]))
                hit[i] = 1;
            else
                pending.push_back(i);
        }
        run.cached = results.size() - pending.size();
        probe_span.arg("hits", static_cast<uint64_t>(run.cached));
    }
    obs::add(cells_cached, run.cached);
    obs::ProgressMeter progress(spec.progressLabel, results.size());
    progress.addCached(run.cached);

    if (!pending.empty())
        prepare();

    // Cached cells are complete up front (a resumed sweep's sink emits
    // the finished prefix at once, on the caller's thread where sink
    // errors may throw).
    OrderedEmitter emitter(results, sink);
    for (size_t i = 0; i < results.size(); ++i)
        if (hit[i])
            emitter.complete(i);

    std::atomic<size_t> executed{0};
    parallelFor(pending.size(), spec.threads, [&](size_t j) {
        const size_t i = pending[j];
        // Graceful stop: drop not-yet-started cells; in-flight ones
        // finish and checkpoint, so a resume continues from here.
        if (spec.stopFlag && spec.stopFlag->load(std::memory_order_relaxed))
            return;
        obs::Span cell_span("sweep", span_name);
        span_args(cell_span, results[i]);
        const auto cell_start = Clock::now();
        // Checkpoint before emitting: a kill between the two loses
        // sink tail rows (rewritten on resume) but never cached work.
        // After a failure the emitter stops, so the sink keeps a clean
        // prefix; parallelFor rethrows the first failure once every
        // cell has run.
        try {
            // Kill/stall drills at cell granularity (no bytes in
            // flight here, so eio/short/torn outcomes are ignored).
            faults::check("runner.cell");
            execute(i);
            executed.fetch_add(1);
            if (cache)
                cache->store(results[i]);
            emitter.complete(i);
        } catch (...) {
            emitter.disable();
            throw;
        }
        const auto cell_us = std::chrono::duration_cast<
            std::chrono::microseconds>(Clock::now() - cell_start);
        obs::observe(cell_wall, static_cast<uint64_t>(cell_us.count()));
        obs::add(cells_executed);
        progress.tick();
    });
    run.executed = executed.load();
    run.interrupted =
        spec.stopFlag && spec.stopFlag->load(std::memory_order_relaxed);
    if (sink)
        sink->flush();
    progress.finish();
    return run;
}

/** Fill the manifest fields both grid kinds share and write it; the
 *  caller has set the kind-specific ones (kind, geometries, spec
 *  fingerprint). */
template <class Spec>
void
writeGridManifest(const Spec &spec, obs::RunManifest &m,
                  Clock::time_point start, size_t cells,
                  const RunCounts &run, const RunCounts &base)
{
    m.baseSeed = spec.baseSeed;
    m.threads = resolveThreadCount(spec.threads);
    m.requestsPerCore = spec.requestsPerCore;
    m.buildFlags = obs::buildFlagsString();
    m.wallSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    m.cellsTotal = cells;
    m.cellsExecuted = run.executed;
    m.cellsCached = run.cached;
    m.baselinesExecuted = base.executed;
    m.baselinesCached = base.cached;
    m.interrupted = run.interrupted;
    if (spec.cache)
        m.cachePath = spec.cache->path();
    writeManifest(spec.manifestPath, m, obs::snapshot());
}

} // anonymous namespace

ExperimentRunner::ExperimentRunner(SweepSpec spec)
    : spec_(std::move(spec))
{
    // Geometry axis: named presets (resolved here so a typo throws
    // on the caller's thread), else the base config alone.
    for (const auto &name : spec_.geometryNames)
        geoms_.push_back(sim::presets::get(name));
    if (geoms_.empty())
        geoms_.push_back(spec_.config);
    // Validate names up front: a typo must throw here on the caller's
    // thread, not inside a sharded worker.
    for (const auto &name : spec_.defenses)
        if (!defense::isDefenseName(name))
            throw std::invalid_argument(
                "unknown defense \"" + name + "\" in sweep spec");
    validateProviderLabels(spec_.providers);
    // A degenerate spec would silently enumerate an empty (or
    // unrunnable) grid; refuse it loudly instead.
    requireSpec(!spec_.defenses.empty(), "defense axis is empty");
    requireSpec(!spec_.thresholds.empty(), "threshold axis is empty");
    requireSpec(!spec_.providers.empty(), "provider axis is empty");
    requireSpec(!spec_.mixes.empty(), "workload-mix axis is empty");
    requireSpec(spec_.requestsPerCore > 0, "requestsPerCore is zero");
    for (const auto &mix : spec_.mixes)
        requireSpec(!mix.benchIdx.empty(),
                    "mix \"" + mix.name + "\" has no benchmarks");
    // Drift axis: default to one static entry, parse-validate the
    // model/policy grammar on the caller's thread, and canonicalize
    // the names so every spelling of the same entry fingerprints
    // (and reports) identically.
    drifts_ = spec_.drifts;
    if (drifts_.empty())
        drifts_.push_back(DriftSpec{});
    for (DriftSpec &d : drifts_) {
        d.model = fault::DriftModelSpec::parse(d.model).name();
        d.policy = core::RecalPolicy::parse(d.policy).name();
        requireSpec(d.guardband >= 0.0 && d.guardband < 0.9,
                    "drift guardband must be in [0, 0.9)");
    }
}

uint64_t
ExperimentRunner::cellSeed(const SweepCell &c) const
{
    return hashSeed({spec_.baseSeed, c.geom, c.defense, c.threshold,
                     c.provider, c.mix, 0x5EEDCE11ULL});
}

uint64_t
ExperimentRunner::driftSeed(const SweepCell &c) const
{
    const DriftSpec &d = drifts_[c.drift];
    HashStream h;
    h.mix(std::string("svard-drift-v1"));
    h.mix(spec_.baseSeed);
    h.mix(c.geom).mix(c.threshold).mix(c.provider);
    h.mix(d.model).mix(d.epochs).mix(d.guardband);
    return h.value();
}

void
ExperimentRunner::resolveCellMeta(const SweepCell &c,
                                  CellResult *out) const
{
    out->cell = c;
    out->seed = cellSeed(c);
    out->geometry = geoms_[c.geom].geometry;
    out->defense = spec_.defenses[c.defense];
    out->threshold = spec_.thresholds[c.threshold];
    out->provider = spec_.providers[c.provider].name;
    out->mix = spec_.mixes[c.mix].name;
    const DriftSpec &ds = drifts_[c.drift];
    out->driftModel = ds.model;
    out->driftPolicy = ds.policy;
    out->driftEpochs = ds.epochs;
    out->guardband = ds.guardband;

    const ProviderSpec &prov = spec_.providers[c.provider];
    const sim::WorkloadMix &mix = spec_.mixes[c.mix];
    HashStream h;
    // v2: the drift axis joined the cell identity (and the cache
    // format moved to SVC4); v1 records predate temporal drift.
    h.mix(std::string("svard-cell-v2"));
    h.mix(out->seed); // covers baseSeed and the coordinate-derived RNG
    hashConfig(h, geoms_[c.geom]);
    h.mix(spec_.requestsPerCore);
    h.mix(out->defense);
    h.mix(out->threshold);
    h.mix(prov.name).mix(prov.moduleLabel);
    h.mix(mix.name).mix(mix.benchIdx.size());
    for (uint32_t b : mix.benchIdx)
        h.mix(b);
    // The retired defense-parameter bag's (always empty) size: kept
    // so fingerprints, and every cache keyed by them, stay valid.
    h.mix(uint64_t{0});
    // Canonicalized drift entry: the default axis hashes exactly like
    // an explicit static entry, so a spec that never mentions drift
    // and one that spells out {"none","none",0,0} share fingerprints.
    h.mix(ds.model).mix(ds.policy).mix(ds.epochs).mix(ds.guardband);
    out->fingerprint = h.value();
}

sim::MixMetrics
ExperimentRunner::runMixCell(
    uint32_t geom, uint32_t mix, const std::string &defense_name,
    std::shared_ptr<const core::ThresholdProvider> provider,
    uint64_t seed, double recal_duty) const
{
    // Drift cells charge their policy's recalibration duty to the
    // controller; zero duty leaves the config (and every schedule
    // decision) exactly as the static path computes it.
    sim::SimConfig cfg = geoms_[geom];
    cfg.recalDuty = recal_duty;
    // Copy the prebuilt traces: System consumes them, and cells
    // sharing a mix run concurrently.
    sim::System sys(cfg, mixTraces_[mix],
                    spec_.requestsPerCore, defense_name,
                    std::move(provider), seed);
    const auto &alone = aloneIpc_[geom];
    return sim::computeMixMetrics(
        sys.run(), spec_.mixes[mix],
        [&](uint32_t b) { return alone[b]; });
}

void
ExperimentRunner::ensureBaselines()
{
    if (baselinesReady_)
        return;
    obs::Span base_span("sweep", "baselines");
    // Phase 0: module profiles (each cell scales its own copy).
    profiles_ = buildProfiles(geoms_, spec_.providers, spec_.threads);

    // Phase 1: per-mix traces (seeded by the base seed only, so one
    // generation serves every geometry and defense configuration).
    const auto &suite = sim::benchmarkSuite();
    mixTraces_.resize(spec_.mixes.size());
    parallelFor(spec_.mixes.size(), spec_.threads, [&](size_t m) {
        mixTraces_[m] = sim::mixTraces(
            spec_.mixes[m], spec_.requestsPerCore, spec_.baseSeed);
    });

    // Phase 2: per-(geometry, benchmark) alone IPCs; phase 3: per-
    // (geometry, mix) no-defense baselines against them.
    RunCounts counts;
    std::set<uint32_t> benches;
    for (const auto &mix : spec_.mixes)
        benches.insert(mix.benchIdx.begin(), mix.benchIdx.end());
    std::vector<CellResult> recs;
    for (uint32_t g = 0; g < geoms_.size(); ++g)
        for (uint32_t b : benches) {
            CellResult r{.cell = {g, 0, 0, 0, b},
                         .seed = hashSeed({spec_.baseSeed, g, b, 0xA10EULL}),
                         .geometry = geoms_[g].geometry,
                         .defense = "none",
                         .provider = "(alone)",
                         .mix = suite[b].name};
            HashStream h;
            hashConfig(h.mix(std::string("svard-alone-v1")).mix(r.seed),
                       geoms_[g]);
            h.mix(spec_.requestsPerCore).mix(static_cast<uint64_t>(b));
            r.fingerprint = h.value();
            recs.push_back(std::move(r));
        }
    cacheOrCompute(
        spec_.cache.get(), spec_.threads, recs,
        [&](const CellResult &r) {
            return aloneRun(geoms_[r.cell.geom], r.cell.mix,
                            spec_.requestsPerCore, spec_.baseSeed);
        },
        &counts);
    aloneIpc_.assign(geoms_.size(),
                     std::vector<double>(suite.size(), 0.0));
    for (const CellResult &r : recs)
        aloneIpc_[r.cell.geom][r.cell.mix] = r.metrics.weightedSpeedup;

    recs.clear();
    for (uint32_t g = 0; g < geoms_.size(); ++g)
        for (uint32_t m = 0; m < spec_.mixes.size(); ++m) {
            const sim::WorkloadMix &mix = spec_.mixes[m];
            const SweepCell cell{g, 0, 0, 0, m};
            // Keep the seed the baseline *run* already used, so cached
            // and freshly-simulated baselines are bit-identical by
            // construction.
            CellResult r{.cell = cell,
                         .seed = cellSeed(cell),
                         .geometry = geoms_[g].geometry,
                         .defense = "none",
                         .provider = "(baseline)",
                         .mix = mix.name};
            HashStream h;
            hashConfig(h.mix(std::string("svard-base-v1")).mix(r.seed),
                       geoms_[g]);
            h.mix(spec_.requestsPerCore);
            h.mix(mix.name).mix(mix.benchIdx.size());
            for (uint32_t b : mix.benchIdx)
                h.mix(b);
            r.fingerprint = h.value();
            recs.push_back(std::move(r));
        }
    cacheOrCompute(
        spec_.cache.get(), spec_.threads, recs,
        [&](const CellResult &r) {
            return runMixCell(r.cell.geom, r.cell.mix, "none", nullptr,
                              r.seed);
        },
        &counts);
    mixBase_.assign(geoms_.size(), std::vector<sim::MixMetrics>(
                                       spec_.mixes.size()));
    for (const CellResult &r : recs)
        mixBase_[r.cell.geom][r.cell.mix] = r.metrics;
    executedBase_ = counts.executed;
    cachedBase_ = counts.cached;
    base_span.arg("executed", static_cast<uint64_t>(executedBase_));
    base_span.arg("cached", static_cast<uint64_t>(cachedBase_));
    baselinesReady_ = true;
}

size_t
ExperimentRunner::prepareCells()
{
    if (prepared_)
        return cells_.size();
    // Enumerate the grid, axis order fixed by the spec.
    // The drift axis nests between provider and mix, keeping cells
    // mix-contiguous — summarize() groups on that invariant.
    for (uint32_t g = 0; g < geoms_.size(); ++g)
        for (uint32_t d = 0; d < spec_.defenses.size(); ++d)
            for (uint32_t t = 0; t < spec_.thresholds.size(); ++t)
                for (uint32_t p = 0; p < spec_.providers.size(); ++p)
                    for (uint32_t dr = 0; dr < drifts_.size(); ++dr)
                        for (uint32_t m = 0; m < spec_.mixes.size();
                             ++m)
                            cells_.push_back({g, d, t, p, m, dr});
    // Resolve metadata serially: coordinates, seeds, and fingerprints
    // always come from the *current* spec, so they stay consistent
    // even when a cached record predates a spec edit. The spec
    // fingerprint — an order-sensitive hash over every cell
    // fingerprint — identifies the grid in the run manifest: two
    // runs agree on it iff they would simulate the same grid.
    results_.assign(cells_.size(), CellResult{});
    HashStream spec_hash;
    spec_hash.mix(std::string("svard-spec-v1"));
    for (size_t i = 0; i < cells_.size(); ++i) {
        resolveCellMeta(cells_[i], &results_[i]);
        spec_hash.mix(results_[i].fingerprint);
    }
    specFingerprint_ = spec_hash.value();
    prepared_ = true;
    return cells_.size();
}

void
ExperimentRunner::simulateCell(size_t i)
{
    const SweepCell &c = cells_[i];
    CellResult &out = results_[i];
    const DriftSpec &ds = drifts_[c.drift];
    const sim::SimConfig &cfg = geoms_[c.geom];
    const std::string &label = spec_.providers[c.provider].moduleLabel;
    double recal_duty = 0.0;
    if (!ds.isStatic()) {
        // Drift evaluation first: it is pure and cheap, and its
        // recalibration cost parameterizes the mix simulation below.
        out.drift = evaluateDrift(
            {.model = fault::DriftModelSpec::parse(ds.model),
             .policy = core::RecalPolicy::parse(ds.policy),
             .epochs = ds.epochs,
             .guardband = ds.guardband,
             .seed = driftSeed(c),
             .banks = cfg.banksPerRank(),
             .rowsPerBank = cfg.rowsPerBank,
             .profile = label.empty()
                            ? nullptr
                            : profiles_.at({c.geom, label}).get(),
             .tRcPs = static_cast<double>(cfg.timing.tRC),
             .tRefwPs = static_cast<double>(cfg.timing.tREFW)});
        recal_duty = out.drift.recalCost;
    }
    out.metrics = runMixCell(
        c.geom, c.mix, out.defense,
        cellProvider(profiles_, c.geom, label, out.threshold,
                     cfg.rowsPerBank),
        out.seed, recal_duty);
    const sim::MixMetrics &m = out.metrics;
    const sim::MixMetrics &base = mixBase_[c.geom][c.mix];
    out.normalized = {safeRatio(m.weightedSpeedup, base.weightedSpeedup),
                      safeRatio(m.harmonicSpeedup, base.harmonicSpeedup),
                      safeRatio(m.maxSlowdown, base.maxSlowdown)};
    // The recalibration write path: the caller checkpoints this record
    // next, which is what a mid-recal kill drill must tear.
    if (spec_.cache && !ds.isStatic())
        faults::check("recal.write");
}

const std::vector<CellResult> &
ExperimentRunner::run()
{
    if (ran_)
        return results_;
    const auto wall_start = Clock::now();
    obs::Span run_span("sweep", "run");
    prepareCells();
    run_span.arg("cells", static_cast<uint64_t>(cells_.size()));

    const RunCounts grid = runGrid(
        spec_, results_, "cell",
        [](obs::Span &span, const CellResult &r) {
            span.arg("geometry", r.geometry);
            span.arg("defense", r.defense);
            span.arg("hc_first", r.threshold);
            span.arg("provider", r.provider);
            span.arg("mix", r.mix);
            span.arg("seed", r.seed);
        },
        [this] { ensureBaselines(); },
        [this](size_t i) { simulateCell(i); });
    executed_ = grid.executed;
    cachedHits_ = grid.cached;
    interrupted_ = grid.interrupted;
    // An interrupted run is resumable, not finished: leave ran_
    // false so a later run() (same process, flag cleared) continues.
    ran_ = !interrupted_;

    if (!spec_.manifestPath.empty()) {
        obs::RunManifest m;
        m.kind = "sweep";
        for (const sim::SimConfig &g : geoms_)
            m.geometries.push_back(g.geometry);
        m.specFingerprint = specFingerprint_;
        // Drift observability: policy axis plus run-wide totals,
        // summed over the full result table so cached cells count
        // too (a resumed sweep reports the same totals as a cold
        // one).
        for (const DriftSpec &d : drifts_)
            m.driftPolicies.push_back(d.name());
        for (const CellResult &r : results_) {
            m.escapes += r.drift.escapes;
            m.recalibrations += r.drift.recalibrations;
        }
        writeGridManifest(spec_, m, wall_start, cells_.size(), grid,
                          {executedBase_, cachedBase_});
    }
    return results_;
}

std::vector<SummaryRow>
ExperimentRunner::summarize()
{
    run();
    std::vector<SummaryRow> rows;
    const size_t mixes = spec_.mixes.size();
    // Cells are mix-contiguous in enumeration order (the drift axis
    // nests outside mix), so each group is one (geometry, defense,
    // threshold, provider, drift) configuration.
    for (size_t start = 0; start < results_.size(); start += mixes) {
        const CellResult &first = results_[start];
        SummaryRow row;
        row.geom = first.cell.geom;
        row.defense = first.defense;
        row.threshold = first.threshold;
        row.provider = first.provider;
        row.drift = drifts_[first.cell.drift].name();
        row.mixCount = static_cast<uint32_t>(mixes);
        for (size_t m = 0; m < mixes; ++m) {
            const sim::MixMetrics &n = results_[start + m].normalized;
            row.meanNormalized.weightedSpeedup += n.weightedSpeedup;
            row.meanNormalized.harmonicSpeedup += n.harmonicSpeedup;
            row.meanNormalized.maxSlowdown += n.maxSlowdown;
            row.driftMetrics.escapeRate +=
                results_[start + m].drift.escapeRate;
            row.driftMetrics.recalCost +=
                results_[start + m].drift.recalCost;
        }
        row.meanNormalized.weightedSpeedup /= mixes;
        row.meanNormalized.harmonicSpeedup /= mixes;
        row.meanNormalized.maxSlowdown /= mixes;
        row.driftMetrics.escapeRate /= mixes;
        row.driftMetrics.recalCost /= mixes;
        // The trajectory is shared across a group's mixes, so the
        // counts of any member cell are the group's counts.
        row.driftMetrics.escapes = first.drift.escapes;
        row.driftMetrics.recalibrations = first.drift.recalibrations;
        rows.push_back(std::move(row));
    }
    return rows;
}

double
ExperimentRunner::aloneIpc(uint32_t geom, uint32_t bench_idx) const
{
    SVARD_ASSERT(geom < aloneIpc_.size() &&
                     bench_idx < aloneIpc_[geom].size(),
                 "alone-IPC index out of range");
    return aloneIpc_[geom][bench_idx];
}

std::vector<AdversarialResult>
runAdversarialSweep(const AdversarialSpec &adv,
                    SweepIoStats *io_stats)
{
    const sim::SimConfig &cfg = adv.config;
    const auto &suite = sim::benchmarkSuite();

    const auto wall_start = Clock::now();
    obs::Span run_span("sweep", "adversarial_run");

    // Typos must throw here, not inside a sharded worker thread.
    for (const auto &c : adv.cases)
        if (!defense::isDefenseName(c.defense))
            throw std::invalid_argument("unknown defense \"" +
                                        c.defense +
                                        "\" in adversarial spec");
    validateProviderLabels(adv.providers);
    requireSpec(!adv.cases.empty(), "adversarial case list is empty");
    requireSpec(!adv.providers.empty(), "provider axis is empty");
    requireSpec(adv.requestsPerCore > 0, "requestsPerCore is zero");
    for (const auto &c : adv.cases)
        requireSpec(!c.traces.empty(),
                    "case \"" + c.name + "\" has no traces");

    // Shared fingerprint prefix: everything but the per-cell axes.
    // (The defense threshold is mixed into defended cells only; the
    // no-defense references do not depend on it.)
    auto base_hash = [&](const char *tag) {
        HashStream h;
        hashConfig(h.mix(std::string(tag)), cfg);
        h.mix(adv.requestsPerCore).mix(adv.baseSeed);
        return h;
    };

    // Defended cells: the full {case x provider x trace} grid. Cell
    // coordinates are {0, case, 0, provider, trace}.
    std::vector<CellResult> cells;
    HashStream spec_hash;
    spec_hash.mix(std::string("svard-adv-spec-v1"));
    for (uint32_t c = 0; c < adv.cases.size(); ++c)
        for (uint32_t p = 0; p < adv.providers.size(); ++p)
            for (uint32_t t = 0; t < adv.cases[c].traces.size(); ++t) {
                const ProviderSpec &prov = adv.providers[p];
                CellResult out{
                    .cell = {0, c, 0, p, t},
                    .seed = hashSeed({adv.baseSeed, c, p, t, 0xADF1ULL}),
                    .geometry = cfg.geometry,
                    .defense = adv.cases[c].defense,
                    .threshold = adv.threshold,
                    .provider = prov.name,
                    .mix = adv.cases[c].name + "#" + std::to_string(t)};
                HashStream h = base_hash("svard-adv-v1");
                h.mix(out.seed).mix(out.defense).mix(adv.threshold);
                h.mix(prov.name).mix(prov.moduleLabel);
                hashTrace(h, adv.cases[c].traces[t]);
                out.fingerprint = h.value();
                spec_hash.mix(out.fingerprint);
                cells.push_back(std::move(out));
            }

    // One adversarial system run: attacker on core 0, benign cores
    // scored against the shared alone-IPC baselines.
    std::vector<double> alone(suite.size(), 0.0);
    auto run_one = [&](const std::vector<sim::TraceEntry> &attack,
                       const std::string &defense_name,
                       std::shared_ptr<const core::ThresholdProvider>
                           provider,
                       uint64_t seed) {
        return sim::adversarialBenignWs(
            cfg, attack, adv.requestsPerCore, adv.baseSeed,
            defense_name, std::move(provider), seed,
            [&](uint32_t b) { return alone[b]; });
    };

    // Baselines: alone IPCs of the benign benchmarks, then the
    // no-defense reference runs (shared across providers), both
    // checkpointed so a resume re-executes nothing it finished.
    RunCounts base;
    std::vector<std::vector<double>> ref(adv.cases.size());
    auto resolve_refs = [&] {
        const sim::WorkloadMix benign =
            sim::adversarialBenignMix(cfg.cores);
        std::vector<CellResult> metas;
        for (uint32_t b : std::set<uint32_t>(benign.benchIdx.begin(),
                                             benign.benchIdx.end())) {
            CellResult meta{.cell = {0, 0, 0, 0, b},
                            .seed = hashSeed({adv.baseSeed, b, 0xA10FULL}),
                            .geometry = cfg.geometry,
                            .defense = "none",
                            .provider = "(alone)",
                            .mix = suite[b].name};
            meta.fingerprint = base_hash("svard-adv-alone-v1")
                                   .mix(meta.seed)
                                   .mix(static_cast<uint64_t>(b))
                                   .value();
            metas.push_back(std::move(meta));
        }
        cacheOrCompute(
            adv.cache.get(), adv.threads, metas,
            [&](const CellResult &m) {
                return aloneRun(cfg, m.cell.mix, adv.requestsPerCore,
                                adv.baseSeed);
            },
            &base);
        for (const CellResult &m : metas)
            alone[m.cell.mix] = m.metrics.weightedSpeedup;

        metas.clear();
        for (uint32_t c = 0; c < adv.cases.size(); ++c)
            for (uint32_t t = 0; t < adv.cases[c].traces.size(); ++t) {
                CellResult meta{
                    .cell = {0, c, 0, 0, t},
                    .seed = hashSeed({adv.baseSeed, c, t, 0xADF0ULL}),
                    .geometry = cfg.geometry,
                    .defense = "none",
                    .provider = "(reference)",
                    .mix = adv.cases[c].name + "#" + std::to_string(t)};
                HashStream h = base_hash("svard-adv-ref-v1");
                hashTrace(h.mix(meta.seed), adv.cases[c].traces[t]);
                meta.fingerprint = h.value();
                metas.push_back(std::move(meta));
            }
        cacheOrCompute(
            adv.cache.get(), adv.threads, metas,
            [&](const CellResult &m) {
                sim::MixMetrics r;
                r.weightedSpeedup = run_one(
                    adv.cases[m.cell.defense].traces[m.cell.mix],
                    "none", nullptr, m.seed);
                return r;
            },
            &base);
        for (const CellResult &m : metas)
            ref[m.cell.defense].push_back(m.metrics.weightedSpeedup);
    };

    // Module profiles, keyed {0, label}, built before the baselines
    // (the phase order fault drills count on).
    ProfileMap profiles;
    auto prepare = [&] {
        profiles = buildProfiles({cfg}, adv.providers, adv.threads);
        resolve_refs();
    };

    auto execute = [&](size_t i) {
        CellResult &out = cells[i];
        const AdversarialCase &ac = adv.cases[out.cell.defense];
        out.metrics.weightedSpeedup = run_one(
            ac.traces[out.cell.mix], ac.defense,
            cellProvider(profiles, 0,
                         adv.providers[out.cell.provider].moduleLabel,
                         adv.threshold, cfg.rowsPerBank),
            out.seed);
        // Normalized WS vs. the shared no-defense reference (its
        // inverse is this trace's slowdown).
        out.normalized.weightedSpeedup =
            safeRatio(out.metrics.weightedSpeedup,
                      ref[out.cell.defense][out.cell.mix]);
    };

    const RunCounts grid = runGrid(
        adv, cells, "adversarial_cell",
        [&](obs::Span &span, const CellResult &r) {
            span.arg("case", adv.cases[r.cell.defense].name);
            span.arg("defense", r.defense);
            span.arg("provider", r.provider);
            span.arg("trace", static_cast<uint64_t>(r.cell.mix));
            span.arg("seed", r.seed);
        },
        prepare, execute);
    if (ref[0].empty())
        resolve_refs(); // a fully cached grid never ran prepare()
    if (io_stats)
        *io_stats = {grid.executed, grid.cached};

    if (!adv.manifestPath.empty()) {
        obs::RunManifest m;
        m.kind = "adversarial";
        m.geometries.push_back(cfg.geometry);
        m.specFingerprint = spec_hash.value();
        // Reference + alone runs play the baseline role here.
        writeGridManifest(adv, m, wall_start, cells.size(), grid, base);
    }

    // Aggregate: mean over each case's traces; normalize each case
    // to its first provider (the spec's baseline configuration).
    std::vector<AdversarialResult> out;
    size_t idx = 0;
    for (uint32_t c = 0; c < adv.cases.size(); ++c) {
        double baseline_slowdown = 1.0;
        for (uint32_t p = 0; p < adv.providers.size(); ++p) {
            AdversarialResult r{.caseName = adv.cases[c].name,
                                .defense = adv.cases[c].defense,
                                .provider = adv.providers[p].name};
            const size_t n = adv.cases[c].traces.size();
            for (uint32_t t = 0; t < n; ++t, ++idx) {
                const double ws = cells[idx].metrics.weightedSpeedup;
                r.benignWs += ws;
                r.slowdown += safeRatio(ref[c][t], ws);
            }
            r.benignWs /= static_cast<double>(n);
            r.slowdown /= static_cast<double>(n);
            if (p == 0)
                baseline_slowdown = r.slowdown;
            r.normalizedSlowdown = safeRatio(r.slowdown, baseline_slowdown);
            out.push_back(std::move(r));
        }
    }
    return out;
}

} // namespace svard::engine
