/**
 * @file
 * Tests for the temporal-drift robustness layer: the drift-model and
 * recalibration-policy grammars, the deterministic DriftField
 * trajectory, the pure per-cell drift evaluator, and the sweep-axis
 * plumbing — degenerate equivalence with the static path
 * (byte-identical CSV at 1 and 4 threads), guardband semantics, cache
 * resume, kill drills at the recal.apply/recal.write fault points,
 * and the manifest's drift totals.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <functional>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/wait.h>
#include <unistd.h>

#include "common/rng.h"
#include "core/recal.h"
#include "engine/drift_eval.h"
#include "engine/runner.h"
#include "fault/drift.h"
#include "fault_inject/fault_inject.h"
#include "io/result_sink.h"
#include "io/sweep_cache.h"
#include "obs/json.h"
#include "sim/workload.h"
#include "support/mutate.h"

namespace svard {
namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "svard_drift_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// -----------------------------------------------------------------
// Grammar: drift models and recalibration policies
// -----------------------------------------------------------------

TEST(DriftGrammar, ParseCanonicalizesAndRoundTrips)
{
    EXPECT_EQ(fault::DriftModelSpec::parse("none").name(), "none");
    EXPECT_EQ(fault::DriftModelSpec::parse("aging").name(),
              "aging:64");
    EXPECT_EQ(fault::DriftModelSpec::parse("aging:16").name(),
              "aging:16");
    EXPECT_EQ(fault::DriftModelSpec::parse("thermal").name(),
              "thermal:10:32");
    EXPECT_EQ(fault::DriftModelSpec::parse("thermal:5").name(),
              "thermal:5:32");
    EXPECT_EQ(
        fault::DriftModelSpec::parse("thermal:5:8+aging:16").name(),
        "aging:16+thermal:5:8");
    // Canonical names are fixed points.
    for (const char *m :
         {"aging:16", "thermal:5:8", "aging:64+thermal:10:32"})
        EXPECT_EQ(fault::DriftModelSpec::parse(m).name(), m);
}

TEST(DriftGrammar, RejectsMalformedModels)
{
    for (const char *bad :
         {"", "wearout", "aging:0", "aging:1:2", "thermal:-3",
          "thermal:5:8:9", "aging+aging", "none+aging", "aging:x"})
        EXPECT_THROW(fault::DriftModelSpec::parse(bad),
                     std::invalid_argument)
            << bad;
}

TEST(RecalGrammar, ParseCanonicalizesAndRoundTrips)
{
    EXPECT_EQ(core::RecalPolicy::parse("none").name(), "none");
    EXPECT_EQ(core::RecalPolicy::parse("periodic:8").name(),
              "periodic:8");
    EXPECT_EQ(core::RecalPolicy::parse("reactive:4").name(),
              "reactive:4");
    EXPECT_EQ(core::RecalPolicy::parse("margin:0.1").name(),
              "margin:0.1");
    EXPECT_DOUBLE_EQ(
        core::RecalPolicy::parse("margin:0.25").extraGuardband(),
        0.25);
    EXPECT_DOUBLE_EQ(
        core::RecalPolicy::parse("periodic:8").extraGuardband(), 0.0);
}

TEST(RecalGrammar, RejectsMalformedPolicies)
{
    for (const char *bad :
         {"", "sometimes", "none:1", "periodic", "periodic:0",
          "periodic:1.5", "reactive:-2", "margin:0", "margin:1.5",
          "margin:x"})
        EXPECT_THROW(core::RecalPolicy::parse(bad),
                     std::invalid_argument)
            << bad;
}

TEST(RecalGrammar, DueSemantics)
{
    const auto periodic = core::RecalPolicy::parse("periodic:4");
    EXPECT_FALSE(periodic.due(1, 0));
    EXPECT_TRUE(periodic.due(4, 0));
    EXPECT_TRUE(periodic.due(8, 0));
    const auto reactive = core::RecalPolicy::parse("reactive:3");
    EXPECT_FALSE(reactive.due(5, 2));
    EXPECT_TRUE(reactive.due(5, 3));
    EXPECT_FALSE(core::RecalPolicy::parse("margin:0.1").due(4, 100));
    EXPECT_FALSE(core::RecalPolicy{}.due(4, 100));
}

// -----------------------------------------------------------------
// Deterministic mutation fuzzing of both grammars
// -----------------------------------------------------------------

/** A grammar-string mutant: half the time fuzz::mutate's generic
 *  edits (bytes from the grammar's own alphabet plus bytes it never
 *  uses, extreme numbers as splice tokens), otherwise the number
 *  after a ':' (or at the end) swapped for an extreme one. */
std::string
mutateGrammar(const std::string &text, Rng &rng)
{
    static const std::string alphabet =
        "0123456789:+.-eE xnagitrmlpcdo\t\x01\x7f\xff";
    static const std::vector<std::string> numbers = {
        "0",    "-1",  "1e400", "1e-400",     "nan", "inf", "0x10",
        "1e6",  "1e7", "100",   "100.000001", "0.9", "-0",  "+5",
        "1e12", " 7",  "99999999999999999999"};
    if (rng.below(2) == 0)
        return fuzz::mutate(text, rng, alphabet, numbers);
    std::string m = text;
    const size_t colon = m.find(':', rng.below(m.size() + 1));
    const size_t from = colon == std::string::npos ? m.size() : colon + 1;
    const size_t to = m.find_first_of(":+", from);
    m.replace(from, (to == std::string::npos ? m.size() : to) - from,
              numbers[rng.below(numbers.size())]);
    return m;
}

/** Feeds `mutants` mutants of `seeds` to a parser that returns the
 *  parsed value's canonical name. Every mutant must either parse
 *  with a canonical name that re-parses to itself, or throw
 *  std::invalid_argument; both outcomes must occur. */
void
fuzzGrammar(const char *grammar, const std::vector<std::string> &seeds,
            const std::function<std::string(const std::string &)> &name_of,
            uint64_t seed, int mutants)
{
    Rng rng(hashSeed({seed}));
    int parsed = 0, rejected = 0;
    for (int n = 0; n < mutants; ++n) {
        const std::string m =
            mutateGrammar(seeds[rng.below(seeds.size())], rng);
        try {
            const std::string canonical = name_of(m);
            ++parsed;
            std::string again;
            try {
                again = name_of(canonical);
            } catch (const std::exception &e) {
                ADD_FAILURE() << grammar << " \"" << m
                              << "\" parsed, but its name \""
                              << canonical << "\" throws: " << e.what();
                continue;
            }
            EXPECT_EQ(again, canonical)
                << grammar << " \"" << m << "\" does not round-trip";
        } catch (const std::invalid_argument &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << grammar << " \"" << m << "\" threw "
                          << e.what() << ", not std::invalid_argument";
        }
    }
    EXPECT_GT(parsed, mutants / 20) << grammar;
    EXPECT_GT(rejected, mutants / 20) << grammar;
    std::printf("%s: %d mutants, %d parsed, %d rejected\n", grammar,
                mutants, parsed, rejected);
}

TEST(GrammarFuzz, DriftModelMutantsParseAndRoundTripOrAreRejected)
{
    fuzzGrammar("drift model",
                {"none", "aging", "aging:16", "thermal", "thermal:5",
                 "thermal:7.5:12", "aging:8+thermal:3:4",
                 "thermal:0.25+aging"},
                [](const std::string &text) {
                    return fault::DriftModelSpec::parse(text).name();
                },
                0xD21F7ULL, 20000);
}

TEST(GrammarFuzz, RecalPolicyMutantsParseAndRoundTripOrAreRejected)
{
    fuzzGrammar("recal policy",
                {"none", "periodic:8", "periodic:1", "reactive:3",
                 "reactive:1000", "margin:0.1", "margin:0.25"},
                [](const std::string &text) {
                    return core::RecalPolicy::parse(text).name();
                },
                0x2ECA1ULL, 20000);
}

// -----------------------------------------------------------------
// DriftField: deterministic trajectory
// -----------------------------------------------------------------

TEST(DriftField, EpochZeroIsExactlyCalibration)
{
    const auto spec =
        fault::DriftModelSpec::parse("aging:8+thermal:10:4");
    const fault::DriftField field(spec, 99, 8);
    for (uint32_t b = 0; b < 4; ++b)
        for (uint32_t r = 0; r < 64; r += 7)
            EXPECT_EQ(field.factor(b, r, 32 * 1024, 0), 1.0);
}

TEST(DriftField, TrajectoryIsDeterministicAndBounded)
{
    const auto spec =
        fault::DriftModelSpec::parse("aging:8+thermal:10:4");
    const fault::DriftField a(spec, 1234, 8);
    const fault::DriftField b(spec, 1234, 8);
    const fault::DriftField other(spec, 1235, 8);
    bool seed_matters = false;
    for (uint32_t e = 0; e <= 8; ++e)
        for (uint32_t r = 0; r < 256; r += 13) {
            const double fa = a.factor(1, r, 32 * 1024, e);
            EXPECT_EQ(fa, b.factor(1, r, 32 * 1024, e));
            EXPECT_GT(fa, 0.0);
            EXPECT_LE(fa, 4.0);
            if (fa != other.factor(1, r, 32 * 1024, e))
                seed_matters = true;
        }
    EXPECT_TRUE(seed_matters);
}

TEST(DriftField, ThermalScheduleSettlesAroundCalibration)
{
    const auto spec = fault::DriftModelSpec::parse("thermal:10:4");
    const fault::DriftField field(spec, 7, 8);
    EXPECT_NEAR(field.temperatureAt(0), fault::DriftField::kCalibTempC,
                0.6);
    for (uint32_t e = 0; e <= 8; ++e) {
        EXPECT_GT(field.temperatureAt(e),
                  fault::DriftField::kCalibTempC - 11.0);
        EXPECT_LT(field.temperatureAt(e),
                  fault::DriftField::kCalibTempC + 11.0);
    }
    // The sinusoid actually moves the operating point.
    EXPECT_GT(field.temperatureAt(1),
              fault::DriftField::kCalibTempC + 5.0);
}

// -----------------------------------------------------------------
// The pure per-cell drift evaluator
// -----------------------------------------------------------------

engine::DriftEvalInput
evalInput(const char *model, const char *policy)
{
    engine::DriftEvalInput in;
    in.model = fault::DriftModelSpec::parse(model);
    in.policy = core::RecalPolicy::parse(policy);
    in.epochs = 8;
    in.guardband = 0.02;
    in.seed = 0xD21F7;
    in.banks = 4;
    in.rowsPerBank = 1024;
    in.tRcPs = 46250.0;
    in.tRefwPs = 64e9;
    return in;
}

TEST(DriftEval, PureAndDeterministic)
{
    const auto in = evalInput("aging:8+thermal:10:4", "periodic:4");
    const auto a = engine::evaluateDrift(in);
    const auto b = engine::evaluateDrift(in);
    EXPECT_EQ(a.escapes, b.escapes);
    EXPECT_EQ(a.recalibrations, b.recalibrations);
    EXPECT_EQ(a.escapeRate, b.escapeRate);
    EXPECT_EQ(a.recalCost, b.recalCost);
}

TEST(DriftEval, ZeroEpochsIsTheStaticPath)
{
    auto in = evalInput("aging:8", "periodic:4");
    in.epochs = 0;
    const auto m = engine::evaluateDrift(in);
    EXPECT_EQ(m.escapes, 0u);
    EXPECT_EQ(m.recalibrations, 0u);
    EXPECT_EQ(m.escapeRate, 0.0);
    EXPECT_EQ(m.recalCost, 0.0);
}

TEST(DriftEval, AgingEscapesAndPeriodicRecalCount)
{
    const auto none = engine::evaluateDrift(evalInput("aging:8", "none"));
    EXPECT_GT(none.escapes, 0u) << "aging drops must escape a 2% "
                                   "guardband";
    EXPECT_EQ(none.recalibrations, 0u);
    EXPECT_EQ(none.recalCost, 0.0);
    EXPECT_GT(none.escapeRate, 0.0);
    EXPECT_LE(none.escapeRate, 1.0);

    const auto periodic =
        engine::evaluateDrift(evalInput("aging:8", "periodic:4"));
    EXPECT_EQ(periodic.recalibrations, 2u); // epochs 4 and 8
    EXPECT_GT(periodic.recalCost, 0.0);
    EXPECT_LE(periodic.recalCost, engine::kDriftMaxRecalDuty);
    EXPECT_LT(periodic.escapes, none.escapes)
        << "recalibrating must shed stale-profile escapes";
}

TEST(DriftEval, ReactiveAndMarginPoliciesReduceEscapes)
{
    const auto none = engine::evaluateDrift(evalInput("aging:8", "none"));
    const auto reactive =
        engine::evaluateDrift(evalInput("aging:8", "reactive:1"));
    EXPECT_GT(reactive.recalibrations, 0u);
    EXPECT_LT(reactive.escapes, none.escapes);

    // A 30% margin swallows the one-step aging drop entirely, for
    // zero recalibration cost.
    const auto margin =
        engine::evaluateDrift(evalInput("aging:8", "margin:0.3"));
    EXPECT_EQ(margin.escapes, 0u);
    EXPECT_EQ(margin.recalibrations, 0u);
    EXPECT_EQ(margin.recalCost, 0.0);
}

// -----------------------------------------------------------------
// Sweep axis: degenerate equivalence, thread/cache invariance,
// kill drills, manifest totals
// -----------------------------------------------------------------

engine::SweepSpec
driftSweepSpec(unsigned threads)
{
    engine::SweepSpec spec;
    spec.config.cores = 4;
    spec.defenses = {"para"};
    spec.thresholds = {128.0};
    spec.providers = {engine::ProviderSpec::uniform(),
                      engine::ProviderSpec::svard("S0")};
    spec.mixes = sim::workloadMixes(2, spec.config.cores);
    spec.requestsPerCore = 400;
    spec.threads = threads;
    return spec;
}

engine::DriftSpec
driftEntry(const char *model, const char *policy, uint32_t epochs = 8,
           double guardband = 0.02)
{
    engine::DriftSpec d;
    d.model = model;
    d.policy = policy;
    d.epochs = epochs;
    d.guardband = guardband;
    return d;
}

/** The 3-entry drift axis the engine tests sweep: the static entry
 *  plus an aging cell without and with recalibration. 12 cells. */
engine::SweepSpec
driftAxisSpec(unsigned threads)
{
    engine::SweepSpec spec = driftSweepSpec(threads);
    spec.drifts = {engine::DriftSpec{}, driftEntry("aging:8", "none"),
                   driftEntry("aging:8", "periodic:4")};
    return spec;
}

TEST(DriftSweep, DegenerateAxisIsByteIdenticalToStaticPath)
{
    // An explicit all-static drift entry must reproduce the implicit
    // no-drift spec exactly: same cell fingerprints, same seeds, and
    // byte-identical CSV at 1 and 4 threads.
    std::vector<std::pair<uint64_t, uint64_t>> keys[2];
    std::string csv[2][2];
    for (int v = 0; v < 2; ++v) {
        engine::ExperimentRunner probe([&] {
            engine::SweepSpec s = driftSweepSpec(1);
            if (v == 1)
                s.drifts = {engine::DriftSpec{}};
            return s;
        }());
        probe.prepareCells();
        for (const auto &c : probe.resolvedCells())
            keys[v].emplace_back(c.seed, c.fingerprint);

        for (int t = 0; t < 2; ++t) {
            const std::string path =
                tmpPath("degen_" + std::to_string(v) + "_" +
                        std::to_string(t) + ".csv");
            engine::SweepSpec s = driftSweepSpec(t == 0 ? 1 : 4);
            if (v == 1)
                s.drifts = {engine::DriftSpec{}};
            s.sink = std::make_shared<io::CsvSink>(path);
            engine::ExperimentRunner runner(std::move(s));
            runner.run();
            csv[v][t] = slurp(path);
        }
    }
    ASSERT_EQ(keys[0].size(), 4u);
    EXPECT_EQ(keys[0], keys[1]);
    EXPECT_EQ(csv[0][0], csv[0][1]) << "static path thread variance";
    EXPECT_EQ(csv[1][0], csv[1][1]) << "degenerate axis thread variance";
    EXPECT_EQ(csv[0][0], csv[1][0])
        << "explicit static drift entry must not change a single byte";
}

TEST(DriftSweep, GuardbandOnlySetsTheEscapeMargin)
{
    // No defense reads the guardband: under a policy that never
    // recalibrates, two sweeps that differ only in guardband simulate
    // bit-identical mixes, and only the escape count moves.
    std::vector<engine::CellResult> runs[2];
    const double guardbands[2] = {0.02, 0.3};
    for (int v = 0; v < 2; ++v) {
        engine::SweepSpec s = driftSweepSpec(1);
        s.drifts = {driftEntry("aging:8", "none", 8, guardbands[v])};
        engine::ExperimentRunner runner(std::move(s));
        runs[v] = runner.run();
    }
    ASSERT_EQ(runs[0].size(), 4u);
    ASSERT_EQ(runs[1].size(), runs[0].size());
    uint64_t escapes[2] = {0, 0};
    for (size_t i = 0; i < runs[0].size(); ++i) {
        const engine::CellResult &a = runs[0][i];
        const engine::CellResult &b = runs[1][i];
        EXPECT_EQ(a.metrics.weightedSpeedup, b.metrics.weightedSpeedup);
        EXPECT_EQ(a.metrics.harmonicSpeedup, b.metrics.harmonicSpeedup);
        EXPECT_EQ(a.metrics.maxSlowdown, b.metrics.maxSlowdown);
        EXPECT_EQ(a.normalized.weightedSpeedup,
                  b.normalized.weightedSpeedup);
        EXPECT_EQ(a.normalized.harmonicSpeedup,
                  b.normalized.harmonicSpeedup);
        EXPECT_EQ(a.normalized.maxSlowdown, b.normalized.maxSlowdown);
        EXPECT_EQ(a.drift.recalibrations, 0u);
        EXPECT_EQ(b.drift.recalibrations, 0u);
        escapes[0] += a.drift.escapes;
        escapes[1] += b.drift.escapes;
    }
    EXPECT_NE(escapes[0], escapes[1]);
    EXPECT_GT(escapes[0], escapes[1])
        << "a wider guardband must not admit more escapes";
}

TEST(DriftSweep, ThreadCountAndCacheResumeAreByteIdentical)
{
    const std::string ref_csv = tmpPath("axis_ref.csv");
    const std::string cache_path = tmpPath("axis.cache");
    const std::string hot_csv = tmpPath("axis_hot.csv");
    const std::string manifest = tmpPath("axis.manifest.json");
    std::remove(cache_path.c_str());

    engine::SweepSpec ref_spec = driftAxisSpec(1);
    ref_spec.sink = std::make_shared<io::CsvSink>(ref_csv);
    engine::ExperimentRunner ref(std::move(ref_spec));
    ref.run();
    ASSERT_EQ(ref.executedCells(), 12u);

    engine::SweepSpec cold_spec = driftAxisSpec(4);
    cold_spec.cache = std::make_shared<io::SweepCache>(cache_path);
    cold_spec.manifestPath = manifest;
    engine::ExperimentRunner cold(std::move(cold_spec));
    cold.run();
    EXPECT_EQ(cold.executedCells(), 12u);

    // Hot resume at yet another thread count: zero executions and the
    // byte-identical table, drift columns included.
    engine::SweepSpec hot_spec = driftAxisSpec(2);
    hot_spec.cache = std::make_shared<io::SweepCache>(cache_path);
    hot_spec.sink = std::make_shared<io::CsvSink>(hot_csv);
    engine::ExperimentRunner hot(std::move(hot_spec));
    hot.run();
    EXPECT_EQ(hot.executedCells(), 0u);
    EXPECT_EQ(hot.cachedCells(), 12u);
    EXPECT_EQ(slurp(ref_csv), slurp(hot_csv));

    // The streamed CSV round-trips with the drift identity and
    // metrics of every cell.
    const auto rows = io::readCsvResults(ref_csv);
    ASSERT_EQ(rows.size(), 12u);
    uint64_t escapes = 0, recals = 0;
    for (const auto &r : rows) {
        if (r.driftPolicy == "periodic:4") {
            EXPECT_EQ(r.driftModel, "aging:8");
            EXPECT_EQ(r.driftEpochs, 8u);
            EXPECT_DOUBLE_EQ(r.guardband, 0.02);
            EXPECT_EQ(r.drift.recalibrations, 2u);
            EXPECT_GT(r.drift.recalCost, 0.0);
        } else if (r.driftModel == "none") {
            EXPECT_EQ(r.drift.escapes, 0u);
            EXPECT_EQ(r.drift.recalCost, 0.0);
        }
        escapes += r.drift.escapes;
        recals += r.drift.recalibrations;
    }

    // Satellite: the run manifest records the drift axis and totals.
    obs::json::Value m;
    std::string err;
    ASSERT_TRUE(obs::json::Value::parse(slurp(manifest), &m, &err))
        << err;
    const auto &policies = m.find("drift_policies")->items();
    ASSERT_EQ(policies.size(), 3u);
    EXPECT_EQ(policies[0].asString(), "none");
    EXPECT_EQ(policies[1].asString(), "aging:8/none/e8/g0.02");
    EXPECT_EQ(policies[2].asString(), "aging:8/periodic:4/e8/g0.02");
    EXPECT_EQ(m.find("escapes")->asU64(), escapes);
    EXPECT_EQ(m.find("recalibrations")->asU64(), recals);
    EXPECT_GT(escapes, 0u);
    EXPECT_GT(recals, 0u);
}

/** Run the drift-axis sweep into `cache_path` under `fault`, dying at
 *  the injected point. Forked child: _Exit codes only. */
void
runKilledChild(const std::string &cache_path, const std::string &fault)
{
    try {
        faults::configure(fault);
        engine::SweepSpec spec = driftAxisSpec(1);
        spec.cache = std::make_shared<io::SweepCache>(cache_path);
        engine::ExperimentRunner runner(std::move(spec));
        runner.run();
    } catch (...) {
        ::_Exit(3);
    }
    ::_Exit(0); // fault did not fire
}

class DriftKillDrill : public ::testing::TestWithParam<const char *>
{
  protected:
    void TearDown() override { faults::reset(); }
};

TEST_P(DriftKillDrill, KilledSweepResumesByteIdentical)
{
    const std::string tag =
        std::string(GetParam()).find("apply") != std::string::npos
            ? "apply"
            : "write";
    const std::string ref_csv = tmpPath("kill_" + tag + "_ref.csv");
    const std::string cache_path = tmpPath("kill_" + tag + ".cache");
    const std::string res_csv = tmpPath("kill_" + tag + "_res.csv");
    std::remove(cache_path.c_str());

    engine::SweepSpec ref_spec = driftAxisSpec(1);
    ref_spec.sink = std::make_shared<io::CsvSink>(ref_csv);
    engine::ExperimentRunner ref(std::move(ref_spec));
    ref.run();

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0)
        runKilledChild(cache_path, GetParam()); // never returns
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137)
        << "the injected kill must fire mid-sweep";

    // Resume from whatever the killed run checkpointed; the finished
    // table must match the uninterrupted reference byte for byte.
    engine::SweepSpec res_spec = driftAxisSpec(4);
    res_spec.cache = std::make_shared<io::SweepCache>(cache_path);
    res_spec.sink = std::make_shared<io::CsvSink>(res_csv);
    engine::ExperimentRunner resumed(std::move(res_spec));
    resumed.run();
    EXPECT_LT(resumed.executedCells(), 12u)
        << "the kill landed after at least one stored cell";
    EXPECT_EQ(slurp(ref_csv), slurp(res_csv));
}

INSTANTIATE_TEST_SUITE_P(RecalFaultPoints, DriftKillDrill,
                         ::testing::Values("recal.apply:kill@1",
                                           "recal.write:kill@2"));

} // namespace
} // namespace svard
