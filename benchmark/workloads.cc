/**
 * @file
 * The four benchmark workloads. Each repetition builds its inputs from
 * a seed, times a set-up phase and a measured phase through the
 * library's public API, checks the outputs, and hashes them in
 * enumeration order.
 *
 * Benchmark *composition* (which synthetic benchmarks share a mix,
 * which modules are characterized) is fixed; the seed drives every
 * stream inside it: trace addresses and gaps, core placement, per-cell
 * RNG seeds, attack target rows, characterized victim rows, and the
 * checkpoint contents. A seed-chosen mix composition would move host
 * time by about 30% per mix (a mix's cost follows its ACT count), which
 * would swamp the regression bounds across seeds.
 */
#include <cmath>
#include <filesystem>
#include <memory>

#include "engine/runner.h"
#include "io/async_sink.h"
#include "io/result_sink.h"
#include "io/sweep_cache.h"
#include "svard_bench.h"

namespace svard::benchmark {
namespace {

// Workload sizes (full, smoke). A full repetition takes 5-20 s on 4
// threads, a smoke one about a second.
constexpr uint32_t kFig12Mixes = 4; // 560 cells
constexpr uint32_t kRrsTargets = 7;
constexpr uint32_t kCharzRowsPerBank = 768;
constexpr uint32_t kSmokeCharzRowsPerBank = 64;
constexpr uint32_t kReplayMixes = 120; // paper scale: 16,800 cells
constexpr uint32_t kReplays = 40;
constexpr uint32_t kSmokeReplays = 5;

/** `name` in the work directory, with any stale file removed. */
std::string
workFile(const Options &opt, const std::string &name)
{
    std::filesystem::create_directories(opt.workDir);
    const auto path = std::filesystem::path(opt.workDir) / name;
    std::filesystem::remove(path);
    return path.string();
}

bool
positiveFinite(double v)
{
    return std::isfinite(v) && v > 0.0;
}

bool
positiveFinite(const sim::MixMetrics &m)
{
    return positiveFinite(m.weightedSpeedup) &&
           positiveFinite(m.harmonicSpeedup) &&
           positiveFinite(m.maxSlowdown);
}

bool
sameBits(const sim::MixMetrics &a, const sim::MixMetrics &b)
{
    return a.weightedSpeedup == b.weightedSpeedup &&
           a.harmonicSpeedup == b.harmonicSpeedup &&
           a.maxSlowdown == b.maxSlowdown;
}

void
hashMetrics(HashStream &h, const sim::MixMetrics &m)
{
    h.mix(m.weightedSpeedup).mix(m.harmonicSpeedup).mix(m.maxSlowdown);
}

// ------------------------------------------------------------------
// fig12-grid: the Fig. 12 grid through ExperimentRunner, writing a CSV
// through an AsyncSink and checkpointing into a fresh SweepCache.
// ------------------------------------------------------------------
void
fig12Grid(const Options &opt, uint64_t seed, RepResult &r)
{
    std::unique_ptr<engine::ExperimentRunner> runner;
    timeSetup(opt, 1, r, [&] {
        engine::SweepSpec spec = fig12Axes(opt, seed, kFig12Mixes);
        spec.sink = std::make_shared<io::AsyncSink>(
            std::make_unique<io::CsvSink>(workFile(opt, "fig12.csv")));
        spec.cache =
            std::make_shared<io::SweepCache>(workFile(opt, "fig12.svc"));
        runner =
            std::make_unique<engine::ExperimentRunner>(std::move(spec));
        {
            obs::Span span("bench", "prepare");
            r.ops = runner->prepareCells();
        }
        runner->ensureBaselines();
    });
    const std::vector<engine::CellResult> *cells = nullptr;
    {
        MeasuredPhase p(r);
        cells = &runner->run();
    }

    if (runner->executedCells() != cells->size())
        r.fail(r.ops, "fig12: " + std::to_string(runner->executedCells()) +
                          " of " + std::to_string(cells->size()) +
                          " cells executed");
    HashStream h;
    for (const auto &c : *cells) {
        if (!positiveFinite(c.metrics) || !positiveFinite(c.normalized))
            r.fail(1, "fig12: non-positive metrics in cell " + c.defense +
                          "/" + c.provider + "/" + c.mix);
        hashMetrics(h, c.metrics);
        hashMetrics(h, c.normalized);
    }
    r.digest = h.value();
}

// ------------------------------------------------------------------
// fig13-adversarial: runAdversarialSweep at HC_first 64.
// ------------------------------------------------------------------
void
fig13Adversarial(const Options &opt, uint64_t seed, RepResult &r)
{
    engine::AdversarialSpec adv;
    adv.threshold = kFig13Threshold;
    adv.requestsPerCore = requestsPerCore(opt);
    adv.baseSeed = seed;
    adv.threads = opt.threads;
    // No-Svärd first: each case is normalized to its first provider.
    adv.providers = {engine::ProviderSpec::uniform(),
                     engine::ProviderSpec::svard("S0")};
    if (!opt.smoke) {
        adv.providers.push_back(engine::ProviderSpec::svard("M0"));
        adv.providers.push_back(engine::ProviderSpec::svard("H1"));
    }
    adv.sink = std::make_shared<io::AsyncSink>(
        std::make_unique<io::CsvSink>(workFile(opt, "fig13.csv")));
    timeSetup(opt, kShortSetups, r, [&] {
        // The Hydra thrash pattern has no random part (its generator
        // ignores the seed), so a second trace would repeat the first
        // cell for cell; RRS hammers seeded target rows. The benign
        // cores' traces come from adv.baseSeed.
        adv.cases.clear();
        adv.cases.push_back(
            {"Hydra-thrash",
             "hydra",
             {sim::adversarialHydraTrace(adv.requestsPerCore, seed,
                                         adv.config)}});
        engine::AdversarialCase rrs{"RRS-swap", "rrs", {}};
        for (uint32_t row : rrsTargets(seed, opt.smoke ? 1 : kRrsTargets))
            rrs.traces.push_back(sim::adversarialRrsTrace(
                adv.requestsPerCore, seed, row, adv.config));
        adv.cases.push_back(std::move(rrs));
    });
    for (const auto &c : adv.cases)
        r.ops += c.traces.size() * adv.providers.size();

    engine::SweepIoStats io_stats;
    std::vector<engine::AdversarialResult> results;
    {
        MeasuredPhase p(r);
        results = engine::runAdversarialSweep(adv, &io_stats);
    }

    if (results.size() != adv.cases.size() * adv.providers.size()) {
        r.fail(r.ops, "fig13: " + std::to_string(results.size()) +
                          " results for " +
                          std::to_string(adv.cases.size()) + " cases");
        return;
    }
    if (io_stats.cached != 0)
        r.fail(r.ops, "fig13: cells served from a cache");
    HashStream h;
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &res = results[i];
        const size_t c = i / adv.providers.size();
        const bool first = i % adv.providers.size() == 0;
        if (!positiveFinite(res.benignWs) ||
            !positiveFinite(res.slowdown) ||
            !positiveFinite(res.normalizedSlowdown) ||
            (first && res.normalizedSlowdown != 1.0))
            r.fail(adv.cases[c].traces.size(),
                   "fig13: bad result for " + res.caseName + "/" +
                       res.provider);
        h.mix(res.caseName).mix(res.provider);
        h.mix(res.benignWs).mix(res.slowdown).mix(res.normalizedSlowdown);
    }
    r.digest = h.value();
}

// ------------------------------------------------------------------
// charz-fig05: Alg. 1 over every module, full WCDP search.
// ------------------------------------------------------------------

void
charzFig05(const Options &opt, uint64_t seed, RepResult &r)
{
    const auto &modules = dram::allModules();
    const size_t n_modules = modules.size();
    const uint32_t rows_per_bank =
        opt.smoke ? kSmokeCharzRowsPerBank : kCharzRowsPerBank;

    std::vector<std::unique_ptr<ModuleRig>> rigs;
    std::vector<charz::CharzOptions> plans;
    timeSetup(opt, kShortSetups, r, [&] {
        rigs.clear();
        plans.assign(n_modules, {});
        for (size_t m = 0; m < n_modules; ++m) {
            rigs.push_back(std::make_unique<ModuleRig>(modules[m]));
            // rowStep = rowsPerBank keeps row 0 of each bank; the rest
            // are distinct seeded victims.
            charz::CharzOptions &copt = plans[m];
            copt.quickWcdp = false; // all six data patterns, as Fig. 5
            copt.iterations = 2;
            copt.threads = opt.threads;
            copt.rowStep = modules[m].rowsPerBank;
            copt.extraRows = charzVictims(seed, m, rows_per_bank);
        }
    });
    for (const auto &copt : plans)
        r.ops += copt.banks.size() * (1 + copt.extraRows.size());

    std::vector<std::vector<charz::RowResult>> results(n_modules);
    {
        MeasuredPhase p(r);
        for (size_t m = 0; m < n_modules; ++m)
            results[m] = rigs[m]->charz.characterizeModule(plans[m]);
    }

    const auto &tested = dram::testedHammerCounts();
    HashStream h;
    for (size_t m = 0; m < n_modules; ++m) {
        const size_t want =
            plans[m].banks.size() * (1 + plans[m].extraRows.size());
        if (results[m].size() != want)
            r.fail(want, "charz: module " + modules[m].label + " gave " +
                             std::to_string(results[m].size()) + " rows");
        for (const auto &row : results[m]) {
            const bool tested_count =
                std::binary_search(tested.begin(), tested.end(),
                                   row.hcFirst);
            if (!tested_count ||
                (!row.flippedAtMaxCount && row.hcFirst != tested.back()) ||
                !std::isfinite(row.ber128k) || row.ber128k < 0.0 ||
                row.ber128k > 1.0)
                r.fail(1, "charz: bad row " + modules[m].label + " bank " +
                              std::to_string(row.bank) + " row " +
                              std::to_string(row.logicalRow));
            h.mix(row.bank).mix(row.logicalRow).mix(row.physRow);
            h.mix(static_cast<uint32_t>(row.wcdp)).mix(row.ber128k);
            h.mix(row.hcFirst).mix(row.flippedAtMaxCount ? 1 : 0);
            h.mix(row.numAggressors);
        }
    }
    r.digest = h.value();
}

// ------------------------------------------------------------------
// resume-replay: re-render a paper-scale Fig. 12 checkpoint.
// ------------------------------------------------------------------
void
resumeReplay(const Options &opt, uint64_t seed, RepResult &r)
{
    const uint32_t replays = opt.smoke ? kSmokeReplays : kReplays;
    const std::string csv = workFile(opt, "replay.csv");
    std::string svc;
    std::vector<engine::CellResult> stored;
    timeSetup(opt, kShortSetups, r, [&] {
        svc = workFile(opt, "replay.svc");
        stored = paperScaleRecords(opt, seed);
        io::SweepCache cache(svc);
        for (const auto &c : stored)
            cache.store(c);
    });
    r.ops = static_cast<uint64_t>(replays) * stored.size();

    {
        MeasuredPhase p(r);
        for (uint32_t k = 0; k < replays; ++k) {
            engine::SweepSpec spec = paperScaleAxes(opt, seed);
            spec.cache = std::make_shared<io::SweepCache>(svc);
            spec.sink = std::make_shared<io::CsvSink>(csv);
            engine::ExperimentRunner runner(std::move(spec));
            runner.run();
            if (runner.executedCells() != 0 ||
                runner.cachedCells() != stored.size())
                r.fail(stored.size(),
                       "replay: " + std::to_string(runner.executedCells()) +
                           " cells simulated, " +
                           std::to_string(runner.cachedCells()) +
                           " cached");
        }
    }

    // The last replay's CSV, read back, must reproduce the stored
    // records bit for bit in enumeration order.
    const auto back = io::readCsvResults(csv);
    if (back.size() != stored.size()) {
        r.fail(r.ops, "replay: CSV holds " + std::to_string(back.size()) +
                          " of " + std::to_string(stored.size()) +
                          " rows");
        return;
    }
    HashStream h;
    for (size_t i = 0; i < back.size(); ++i) {
        const auto &a = back[i];
        const auto &b = stored[i];
        if (a.seed != b.seed || a.fingerprint != b.fingerprint ||
            !sameBits(a.metrics, b.metrics) ||
            !sameBits(a.normalized, b.normalized))
            r.fail(replays, "replay: CSV row " + std::to_string(i) +
                                " differs from its checkpoint record");
        h.mix(a.seed).mix(a.fingerprint);
        hashMetrics(h, a.metrics);
        hashMetrics(h, a.normalized);
    }
    r.digest = h.value();
}

} // namespace

engine::SweepSpec
fig12Axes(const Options &opt, uint64_t seed, uint32_t mixes)
{
    engine::SweepSpec spec;
    spec.requestsPerCore = requestsPerCore(opt);
    spec.baseSeed = seed;
    spec.threads = opt.threads;
    if (opt.smoke) {
        spec.defenses = {"para", "hydra"};
        spec.thresholds = {1024, 128};
        spec.providers = {engine::ProviderSpec::uniform(),
                          engine::ProviderSpec::svard("S0")};
    } else {
        spec.defenses = {"aqua", "blockhammer", "hydra", "para", "rrs"};
        spec.thresholds = {4096, 2048, 1024, 512, 256, 128, 64};
        spec.providers = {engine::ProviderSpec::uniform(),
                          engine::ProviderSpec::svard("H1"),
                          engine::ProviderSpec::svard("M0"),
                          engine::ProviderSpec::svard("S0")};
    }
    spec.mixes = sim::workloadMixes(mixes, spec.config.cores);
    return spec;
}

engine::SweepSpec
paperScaleAxes(const Options &opt, uint64_t seed)
{
    Options full = opt;
    full.smoke = false;
    return fig12Axes(full, seed, kReplayMixes);
}

std::vector<engine::CellResult>
paperScaleRecords(const Options &opt, uint64_t seed)
{
    engine::ExperimentRunner runner(paperScaleAxes(opt, seed));
    runner.prepareCells();
    std::vector<engine::CellResult> cells = runner.resolvedCells();
    for (auto &c : cells) {
        Rng rng(hashSeed({c.seed, 0xC4ECULL}));
        c.metrics.weightedSpeedup = rng.uniform(2.0, 8.0);
        c.metrics.harmonicSpeedup = rng.uniform(0.2, 1.0);
        c.metrics.maxSlowdown = rng.uniform(1.0, 4.0);
        c.normalized.weightedSpeedup = rng.uniform(0.5, 1.0);
        c.normalized.harmonicSpeedup = rng.uniform(0.5, 1.0);
        c.normalized.maxSlowdown = rng.uniform(1.0, 2.0);
    }
    return cells;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"fig12-grid", fig12Grid},
        {"fig13-adversarial", fig13Adversarial},
        {"charz-fig05", charzFig05},
        {"resume-replay", resumeReplay},
    };
    return all;
}

} // namespace svard::benchmark
