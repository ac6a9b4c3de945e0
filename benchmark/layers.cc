/**
 * @file
 * Per-layer measurements of a traced run: the trace fold (per-span-name
 * counts and self time from the program's own obs spans) and isolated
 * probes that time calls into one layer's public API, amortizing many
 * calls between two timestamps.
 *
 * Probe inputs come from the run's workload seed through the helpers
 * the workloads use (the paper's first canonical mix with seeded
 * traces, charz-fig05's victim rows, the RRS targets, the paper-scale
 * checkpoint records), so each probe times work a workload hands that
 * layer.
 */
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "bender/test_session.h"
#include "core/vuln_profile.h"
#include "defense/registry.h"
#include "engine/runner.h"
#include "io/result_sink.h"
#include "io/sweep_cache.h"
#include "obs/json.h"
#include "sim/system.h"
#include "svard_bench.h"

namespace svard::benchmark {

// ------------------------------------------------------------------
// Trace fold
// ------------------------------------------------------------------

bool
foldTrace(const std::string &path, TraceFold *out, std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *err = "cannot read trace " + path;
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    obs::json::Value doc;
    if (!obs::json::Value::parse(text.str(), &doc, err))
        return false;
    const obs::json::Value *events = doc.find("traceEvents");
    if (!events) {
        *err = "trace " + path + " has no traceEvents";
        return false;
    }

    struct Span
    {
        std::string key; ///< "category/name"
        double ts, dur;
        uint64_t tid;
    };
    std::vector<Span> spans;
    for (const auto &e : events->items()) {
        const auto *ph = e.find("ph");
        if (!ph || ph->asString() != "X")
            continue;
        spans.push_back({e.find("cat")->asString() + "/" +
                             e.find("name")->asString(),
                         e.find("ts")->asNumber(),
                         e.find("dur")->asNumber(),
                         e.find("tid")->asU64()});
    }

    // Self time: a span's direct children are the spans of its lane
    // that start and end inside it.
    std::vector<size_t> order(spans.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const Span &x = spans[a], &y = spans[b];
        if (x.tid != y.tid)
            return x.tid < y.tid;
        if (x.ts != y.ts)
            return x.ts < y.ts;
        return x.dur > y.dur;
    });
    std::vector<double> self(spans.size());
    std::vector<size_t> stack;
    for (size_t i : order) {
        const Span &s = spans[i];
        self[i] = s.dur;
        while (!stack.empty() &&
               (spans[stack.back()].tid != s.tid ||
                spans[stack.back()].ts + spans[stack.back()].dur <= s.ts))
            stack.pop_back();
        if (!stack.empty())
            self[stack.back()] -= s.dur;
        stack.push_back(i);
    }

    std::vector<std::pair<double, double>> program; // [start, end)
    double win_lo = 0.0, win_hi = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        SpanTotals &t = out->spans[s.key];
        ++t.count;
        t.totalUs += s.dur;
        t.selfUs += self[i];
        t.durUs.push_back(s.dur);
        if (s.key == "bench/rep") {
            win_lo = s.ts;
            win_hi = s.ts + s.dur;
        } else if (s.key.rfind("bench/", 0) != 0) {
            program.push_back({s.ts, s.ts + s.dur});
        }
    }

    // Share of the repetition covered by the program's own spans (the
    // benchmark's bench/* spans would cover it trivially).
    std::sort(program.begin(), program.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : program) {
        lo = std::max(lo, win_lo);
        hi = std::min(hi, win_hi);
        if (hi <= lo)
            continue;
        if (lo > cur_hi) {
            covered += std::max(0.0, cur_hi - cur_lo);
            cur_lo = lo;
            cur_hi = hi;
        } else {
            cur_hi = std::max(cur_hi, hi);
        }
    }
    covered += std::max(0.0, cur_hi - cur_lo);
    out->windowUs = win_hi - win_lo;
    out->coveredUs = covered;
    return true;
}

// ------------------------------------------------------------------
// Layer probes
// ------------------------------------------------------------------

namespace {

constexpr double kFig12Threshold = 128.0;

/**
 * Forwarding Defense that records the live ACT/epoch stream a System
 * feeds the wrapped defense, so the stream can be replayed into a
 * fresh instance with the simulator out of the loop.
 */
class RecordingDefense : public defense::Defense
{
  public:
    struct Event
    {
        uint32_t bank;
        uint32_t row;
        dram::Tick now;
        bool epochEnd;
    };

    RecordingDefense(std::unique_ptr<defense::Defense> inner,
                     std::shared_ptr<const core::ThresholdProvider> thr)
        : Defense(std::move(thr)), inner_(std::move(inner))
    {}

    const char *name() const override { return inner_->name(); }

    void
    onActivate(uint32_t bank, uint32_t row, dram::Tick now,
               std::vector<defense::PreventiveAction> &out) override
    {
        events_.push_back({bank, row, now, false});
        inner_->onActivate(bank, row, now, out);
        stats_ = inner_->stats();
    }

    void
    onEpochEnd(dram::Tick now) override
    {
        events_.push_back({0, 0, now, true});
        inner_->onEpochEnd(now);
        stats_ = inner_->stats();
    }

    void
    tableStats(uint64_t *entries, uint64_t *rehashes) const override
    {
        inner_->tableStats(entries, rehashes);
    }

    const std::vector<Event> &events() const { return events_; }

  private:
    std::unique_ptr<defense::Defense> inner_;
    std::vector<Event> events_;
};

bool
sameStats(const defense::DefenseStats &a, const defense::DefenseStats &b)
{
    return a.activationsObserved == b.activationsObserved &&
           a.preventiveRefreshes == b.preventiveRefreshes &&
           a.throttleEvents == b.throttleEvents &&
           a.throttleDelayTotal == b.throttleDelayTotal &&
           a.migrations == b.migrations && a.swaps == b.swaps &&
           a.metadataAccesses == b.metadataAccesses;
}

using Traces = std::vector<std::vector<sim::TraceEntry>>;

/** Append the traces of `mix`, placed from core `first_core` on (the
 *  placement ExperimentRunner and adversarialBenignWs use). */
void
addMixTraces(Traces &out, const sim::WorkloadMix &mix, size_t reqs,
             uint64_t seed, uint32_t first_core)
{
    const auto &suite = sim::benchmarkSuite();
    for (uint32_t i = 0; i < mix.benchIdx.size(); ++i)
        out.push_back(sim::generateTrace(
            suite[mix.benchIdx[i]], reqs, seed,
            sim::coreTraceOffset(seed, first_core + i)));
}

/** Module profile resampled onto `cfg`, the way the engine builds it. */
std::shared_ptr<const core::VulnProfile>
buildProfile(const std::string &label, const sim::SimConfig &cfg)
{
    const auto &spec = dram::moduleByLabel(label);
    auto sa = std::make_shared<dram::SubarrayMap>(spec);
    fault::VulnerabilityModel model(spec, sa);
    return std::make_shared<core::VulnProfile>(
        core::VulnProfile::fromModel(model).resampledTo(
            cfg.banksPerRank(), cfg.rowsPerBank));
}

std::shared_ptr<const core::VulnProfile>
scaledProfile(const core::VulnProfile &base, double hc_first)
{
    auto scaled =
        std::make_shared<core::VulnProfile>(base.scaledTo(hc_first));
    scaled->minThreshold(); // settle the lazy occupancy before sharing
    return scaled;
}

/** A live defended run and the ACT/epoch stream it produced. */
struct LiveStream
{
    std::vector<RecordingDefense::Event> events;
    defense::DefenseStats stats;
    double runSeconds = 0.0; ///< System::run wall
};

LiveStream
recordLive(const sim::SimConfig &cfg, Traces traces, size_t reqs,
           const std::string &defense_name,
           const std::shared_ptr<const core::VulnProfile> &profile,
           uint64_t seed)
{
    auto provider = std::make_shared<core::Svard>(profile);
    RecordingDefense rec(
        defense::makeDefenseByName(
            defense_name, defense::DefenseContext(cfg, provider, seed)),
        provider);
    sim::System sys(cfg, std::move(traces), reqs, &rec);
    const auto start = Clock::now();
    sys.run();
    LiveStream out;
    out.runSeconds = secondsSince(start);
    out.events = rec.events();
    out.stats = rec.stats();
    return out;
}

/**
 * Replay a recorded stream into fresh registry instances (construction
 * untimed) until `min_seconds` of replay accumulate. Returns seconds
 * per full replay; *faithful is whether the first replay reproduced
 * the live DefenseStats exactly.
 */
double
replaySeconds(const sim::SimConfig &cfg, const std::string &defense_name,
              const std::shared_ptr<const core::VulnProfile> &profile,
              uint64_t seed, const LiveStream &live, double min_seconds,
              bool *faithful)
{
    defense::ActionBuffer actions;
    double total = 0.0;
    int replays = 0;
    do {
        auto d = defense::makeDefenseByName(
            defense_name,
            defense::DefenseContext(
                cfg, std::make_shared<core::Svard>(profile), seed));
        const auto start = Clock::now();
        for (const auto &e : live.events) {
            if (e.epochEnd) {
                d->onEpochEnd(e.now);
            } else {
                actions.clear();
                d->onActivate(e.bank, e.row, e.now, actions);
            }
        }
        total += secondsSince(start);
        if (replays == 0)
            *faithful = sameStats(d->stats(), live.stats);
        ++replays;
    } while (total < min_seconds);
    return total / replays;
}

uint64_t
activateEvents(const LiveStream &live)
{
    uint64_t n = 0;
    for (const auto &e : live.events)
        n += e.epochEnd ? 0 : 1;
    return std::max<uint64_t>(n, 1);
}

} // namespace

std::vector<Metric>
layerProbes(const Options &opt, std::vector<std::string> &errors)
{
    std::vector<Metric> m;
    const uint64_t seed = runSeed(opt);
    const double min_s = opt.smoke ? 0.01 : 0.2;
    const size_t reqs = requestsPerCore(opt);
    const sim::SimConfig cfg;
    const sim::WorkloadMix mix = sim::workloadMixes(1, cfg.cores)[0];
    const auto &suite = sim::benchmarkSuite();

    // ---- sim: trace generation and the controller with no defense --
    {
        size_t entries = 0;
        const double s = secondsPerCall(
            [&] {
                entries = 0;
                for (uint32_t c = 0; c < mix.benchIdx.size(); ++c)
                    entries += sim::generateTrace(
                                   suite[mix.benchIdx[c]], reqs, seed,
                                   sim::coreTraceOffset(seed, c))
                                   .size();
            },
            min_s);
        m.push_back({"sim.trace_gen_ns_per_entry",
                     s * 1e9 / static_cast<double>(entries), "ns"});
    }
    Traces traces;
    addMixTraces(traces, mix, reqs, seed, 0);
    {
        std::vector<double> per_act;
        for (int i = 0; i < 3; ++i) {
            sim::System sys(cfg, traces, reqs, "none", nullptr, seed);
            const auto start = Clock::now();
            const sim::RunResult res = sys.run();
            per_act.push_back(
                secondsSince(start) * 1e9 /
                static_cast<double>(
                    std::max<uint64_t>(res.controller.activations, 1)));
        }
        m.push_back({"sim.system_ns_per_act", median(per_act), "ns"});
    }

    // ---- core: profile build, scaling, budget lookups -------------
    std::shared_ptr<const core::VulnProfile> s0;
    {
        const auto start = Clock::now();
        for (const char *label : {"H1", "M0", "S0"})
            s0 = buildProfile(label, cfg); // S0 last: kept
        m.push_back({"core.profile_build_s", secondsSince(start), "s"});
    }
    {
        const std::vector<double> thresholds = {4096, 2048, 1024, 512,
                                                256,  128,  64};
        const double s = secondsPerCall(
            [&] {
                for (double t : thresholds)
                    scaledProfile(*s0, t);
            },
            min_s);
        m.push_back({"core.profile_scale_ms",
                     s * 1e3 / static_cast<double>(thresholds.size()),
                     "ms"});
    }
    const auto s0_128 = scaledProfile(*s0, kFig12Threshold);
    const auto s0_64 = scaledProfile(*s0, kFig13Threshold);

    // ---- defense: record live streams, replay into fresh instances -
    // Reports defense.<d>.<suffix> in ns per observed ACT, and with
    // `share` the replay's share of the live System::run.
    auto probe_defense =
        [&](const std::string &d, Traces live_traces,
            const std::shared_ptr<const core::VulnProfile> &profile,
            const std::string &suffix, bool share) {
            LiveStream live = recordLive(cfg, std::move(live_traces), reqs,
                                         d, profile, seed);
            bool faithful = false;
            const double replay = replaySeconds(cfg, d, profile, seed,
                                                live, min_s, &faithful);
            if (!faithful) {
                errors.push_back("replay of " + d + " for " + suffix +
                                 " did not reproduce the live defense "
                                 "stats");
                return live;
            }
            m.push_back({"defense." + d + "." + suffix,
                         replay * 1e9 /
                             static_cast<double>(activateEvents(live)),
                         "ns"});
            if (share)
                m.push_back({"defense." + d + ".share_pct",
                             100.0 * replay / live.runSeconds, "%"});
            return live;
        };
    std::vector<RecordingDefense::Event> hydra_rows;
    for (const char *d : {"para", "hydra", "aqua", "rrs", "blockhammer"}) {
        LiveStream live =
            probe_defense(d, traces, s0_128, "ns_per_act", true);
        if (std::string(d) == "hydra")
            hydra_rows = std::move(live.events);
    }
    {
        const sim::WorkloadMix benign =
            sim::adversarialBenignMix(cfg.cores);
        Traces hydra = {sim::adversarialHydraTrace(reqs, seed, cfg)};
        addMixTraces(hydra, benign, reqs, seed, 1);
        probe_defense("hydra", std::move(hydra), s0_64, "adv_ns_per_act",
                      false);
        Traces rrs = {sim::adversarialRrsTrace(
            reqs, seed, rrsTargets(seed, 1)[0], cfg)};
        addMixTraces(rrs, benign, reqs, seed, 1);
        probe_defense("rrs", std::move(rrs), s0_64, "adv_ns_per_act",
                      false);
    }
    {
        // Every aggressor lookup Hydra's live stream made, served by a
        // fresh provider (cold memo first pass, warm afterwards).
        constexpr int kPasses = 4;
        size_t lookups = 0;
        double sink = 0.0;
        const double s = secondsPerCall(
            [&] {
                core::Svard provider(s0_128);
                const uint32_t banks = provider.banks();
                lookups = 0;
                for (int p = 0; p < kPasses; ++p)
                    for (const auto &e : hydra_rows)
                        if (!e.epochEnd) {
                            sink += provider.aggressorBudgetMemo(
                                e.bank % banks, e.row);
                            ++lookups;
                        }
            },
            min_s);
        if (!(sink > 0.0))
            errors.push_back("aggressor budgets are not positive");
        m.push_back({"core.budget_lookup_ns",
                     s * 1e9 / static_cast<double>(std::max<size_t>(
                                   lookups, 1)),
                     "ns"});
    }

    // ---- charz / bender / dram / fault ----------------------------
    // Single-threaded Alg. 1 rows and measure_BER calls over every
    // module, on charz-fig05's first seeded victims in bank 1.
    {
        const auto &modules = dram::allModules();
        const uint32_t victims = opt.smoke ? 1 : 4;
        std::vector<std::unique_ptr<ModuleRig>> rigs;
        for (const auto &spec : modules)
            rigs.push_back(std::make_unique<ModuleRig>(spec));
        charz::CharzOptions copt;
        copt.quickWcdp = false;
        copt.iterations = 2;
        uint64_t rows = 0, measurements = 0;
        for (size_t mod = 0; mod < rigs.size(); ++mod) {
            for (uint32_t v : charzVictims(seed, mod, victims))
                rigs[mod]->charz.characterizeRow(1, v, copt);
            rows += victims;
            measurements += rigs[mod]->charz.berMeasurements();
        }
        m.push_back({"charz.ber_per_row",
                     static_cast<double>(measurements) /
                         static_cast<double>(rows),
                     "count"});

        // measure_BER at 128K hammers, each module on a fresh device.
        double ber_s = 0.0;
        uint64_t calls = 0;
        do {
            for (size_t mod = 0; mod < rigs.size(); ++mod) {
                const ModuleRig &rig = *rigs[mod];
                dram::DramDevice fresh(rig.spec, rig.subarrays, rig.model,
                                       seed + calls);
                bender::TestSession session(fresh);
                const auto start = Clock::now();
                for (uint32_t v : charzVictims(seed, mod, victims))
                    session.measureBer(1, v, session.aggressorRowsOf(v),
                                       fault::DataPattern::RowStripe,
                                       dram::testedHammerCounts().back(),
                                       36 * dram::kPsPerNs);
                ber_s += secondsSince(start);
                calls += victims;
            }
        } while (ber_s < min_s);
        m.push_back({"bender.measure_ber_us",
                     ber_s * 1e6 / static_cast<double>(calls), "us"});
    }

    // ---- io over the paper-scale checkpoint records ----------------
    {
        const auto records = paperScaleRecords(opt, seed);
        const double n = static_cast<double>(records.size());
        std::filesystem::create_directories(opt.workDir);
        const std::string svc =
            (std::filesystem::path(opt.workDir) / "probe.svc").string();
        const std::string csv =
            (std::filesystem::path(opt.workDir) / "probe.csv").string();
        std::filesystem::remove(svc);
        {
            io::SweepCache cache(svc);
            const auto start = Clock::now();
            for (const auto &r : records)
                cache.store(r);
            m.push_back({"io.cache_store_us", secondsSince(start) * 1e6 / n,
                         "us"});
        }
        size_t loaded = 0;
        const double open_s = secondsPerCall(
            [&] { loaded = io::SweepCache(svc).size(); }, min_s);
        if (loaded != records.size())
            errors.push_back("cache reopened with " +
                             std::to_string(loaded) + " of " +
                             std::to_string(records.size()) + " records");
        m.push_back({"io.cache_open_ms", open_s * 1e3, "ms"});
        {
            io::SweepCache cache(svc);
            engine::CellResult hit;
            size_t hits = 0;
            const double s = secondsPerCall(
                [&] {
                    hits = 0;
                    for (const auto &r : records)
                        hits += cache.lookup(r.seed, r.fingerprint, &hit);
                },
                min_s);
            if (hits != records.size())
                errors.push_back("cache lookups missed stored records");
            m.push_back({"io.cache_lookup_ns", s * 1e9 / n, "ns"});
        }
        const double csv_s = secondsPerCall(
            [&] {
                io::CsvSink sink(csv);
                for (const auto &r : records)
                    sink.write(r);
                sink.flush();
            },
            min_s);
        m.push_back({"io.csv_row_us", csv_s * 1e6 / n, "us"});
        std::filesystem::remove(svc);
        std::filesystem::remove(csv);
    }
    return m;
}

} // namespace svard::benchmark
