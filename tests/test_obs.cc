/**
 * @file
 * Tests for the observability layer (src/obs/) and its load-bearing
 * guarantee: instruments never feed back into simulation. The headline
 * test runs the same tiny sweep with everything off, with metrics +
 * tracing on, and at 1 vs 4 threads, and byte-compares the CSVs.
 * Also covered: exact metric merging across worker threads,
 * chrome-trace JSON validity, manifest round-trips, the progress
 * knob's parsing, the JSON DOM parser itself, log-level filtering,
 * and the flat-vector CategoricalHistogram rewrite.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "engine/runner.h"
#include "io/async_sink.h"
#include "io/result_sink.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace svard {
namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "svard_obs_" + name;
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

// ------------------------------------------------------------------
// JSON DOM parser (the validator every artifact test leans on)
// ------------------------------------------------------------------

TEST(ObsJson, ParsesObjectsArraysAndScalars)
{
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(obs::json::Value::parse(
        R"({"a": 1, "b": [true, false, null], "c": {"d": "x\ny"},)"
        R"( "e": -2.5e3})",
        &v, &err))
        << err;
    ASSERT_EQ(v.type(), obs::json::Value::Type::Object);
    EXPECT_DOUBLE_EQ(v.find("a")->asNumber(), 1.0);
    ASSERT_EQ(v.find("b")->items().size(), 3u);
    EXPECT_TRUE(v.find("b")->items()[0].asBool());
    EXPECT_TRUE(v.find("b")->items()[2].isNull());
    EXPECT_EQ(v.find("c")->find("d")->asString(), "x\ny");
    EXPECT_DOUBLE_EQ(v.find("e")->asNumber(), -2500.0);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ObsJson, U64RoundTripsExactly)
{
    // 2^64 - 1 is not representable as a double; asU64 must re-parse
    // the raw token (fingerprints and seeds depend on this).
    obs::json::Value v;
    ASSERT_TRUE(obs::json::Value::parse(
        "{\"fp\": 18446744073709551615}", &v));
    EXPECT_EQ(v.find("fp")->asU64(), UINT64_MAX);
}

TEST(ObsJson, RejectsMalformedInput)
{
    obs::json::Value v;
    std::string err;
    EXPECT_FALSE(obs::json::Value::parse("{\"a\": }", &v, &err));
    EXPECT_FALSE(obs::json::Value::parse("[1, 2", &v, &err));
    EXPECT_FALSE(obs::json::Value::parse("{} trailing", &v, &err));
    EXPECT_FALSE(obs::json::Value::parse("", &v, &err));
}

TEST(ObsJson, FormatNumberRoundTrips)
{
    for (double d : {0.0, 1.0, -2.5, 1.0 / 3.0, 1e300, 6.25e-3}) {
        obs::json::Value v;
        ASSERT_TRUE(obs::json::Value::parse(
            obs::json::formatNumber(d), &v));
        EXPECT_DOUBLE_EQ(v.asNumber(), d);
    }
}

// ------------------------------------------------------------------
// Log-level filtering (satellite: inform() moved to stderr + gate)
// ------------------------------------------------------------------

TEST(ObsLog, ParseLogLevel)
{
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
    EXPECT_EQ(parseLogLevel("0"), LogLevel::Error);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("3"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel(nullptr), LogLevel::Info);
    EXPECT_EQ(parseLogLevel(""), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("bogus"), LogLevel::Info);
}

TEST(ObsLog, SetLogLevelOverrides)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Error);
    EXPECT_EQ(logLevel(), LogLevel::Error);
    setLogLevel(before);
}

// ------------------------------------------------------------------
// CategoricalHistogram (satellite: std::map -> flat vector)
// ------------------------------------------------------------------

TEST(ObsStats, CategoricalHistogramFlatCounts)
{
    CategoricalHistogram h({32000, 1000, 64000, 4000});
    h.add(1000);
    h.add(1000);
    h.add(64000);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.count(1000), 2u);
    EXPECT_EQ(h.count(64000), 1u);
    EXPECT_EQ(h.count(32000), 0u);
    EXPECT_EQ(h.count(999), 0u); // unknown label reads as zero
    EXPECT_DOUBLE_EQ(h.fraction(1000), 2.0 / 3.0);
    // Label order is preserved as given (Fig. 5 prints in axis order).
    EXPECT_EQ(h.labels(),
              (std::vector<int64_t>{32000, 1000, 64000, 4000}));
}

TEST(ObsStats, CategoricalHistogramDuplicateLabelsCollapse)
{
    // Duplicate labels share one counter (the old map semantics).
    CategoricalHistogram h({5, 5, 7});
    h.add(5);
    h.add(5);
    h.add(7);
    EXPECT_EQ(h.count(5), 2u);
    EXPECT_EQ(h.count(7), 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(ObsStatsDeathTest, CategoricalHistogramUnknownLabelPanics)
{
    CategoricalHistogram h({1, 2, 4});
    EXPECT_DEATH(h.add(3), "unknown histogram label");
}

// ------------------------------------------------------------------
// Metrics registry
// ------------------------------------------------------------------

TEST(ObsMetrics, CountersMergeExactlyAcrossThreadCounts)
{
    obs::setMetricsEnabled(true);
    const obs::MetricId id = obs::counter("test.merge_counter");
    for (unsigned threads : {1u, 4u, 7u}) {
        obs::resetMetrics();
        parallelFor(1000, threads,
                    [&](size_t i) { obs::add(id, i % 3 + 1); });
        uint64_t expect = 0;
        for (size_t i = 0; i < 1000; ++i)
            expect += i % 3 + 1;
        EXPECT_EQ(obs::snapshot().value("test.merge_counter"), expect)
            << threads << " threads";
    }
}

TEST(ObsMetrics, GaugeMergesByMax)
{
    obs::setMetricsEnabled(true);
    obs::resetMetrics();
    const obs::MetricId id = obs::gauge("test.high_water");
    parallelFor(100, 4, [&](size_t i) {
        obs::gaugeMax(id, i * 10);
        obs::gaugeMax(id, 5); // lower write must not regress the max
    });
    EXPECT_EQ(obs::snapshot().value("test.high_water"), 990u);
}

TEST(ObsMetrics, HistogramBucketsByBitWidth)
{
    obs::setMetricsEnabled(true);
    obs::resetMetrics();
    const obs::MetricId id = obs::histogram("test.latency");
    obs::observe(id, 0);    // bucket 0
    obs::observe(id, 1);    // bucket 1
    obs::observe(id, 2);    // bucket 2
    obs::observe(id, 3);    // bucket 2
    obs::observe(id, 1024); // bucket 11
    const obs::Snapshot snap = obs::snapshot();
    const obs::MetricValue *m = snap.find("test.latency");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->kind, obs::MetricKind::Histogram);
    EXPECT_EQ(m->value, 5u);
    EXPECT_EQ(m->sum, 0u + 1 + 2 + 3 + 1024);
    ASSERT_EQ(m->buckets.size(), obs::kHistogramBuckets);
    EXPECT_EQ(m->buckets[0], 1u);
    EXPECT_EQ(m->buckets[1], 1u);
    EXPECT_EQ(m->buckets[2], 2u);
    EXPECT_EQ(m->buckets[11], 1u);
    EXPECT_DOUBLE_EQ(m->mean(), 1030.0 / 5.0);
}

TEST(ObsMetrics, DisabledCollectionCountsNothing)
{
    const obs::MetricId id = obs::counter("test.gated_counter");
    obs::setMetricsEnabled(true);
    obs::resetMetrics();
    obs::setMetricsEnabled(false);
    obs::add(id, 42);
    obs::setMetricsEnabled(true);
    EXPECT_EQ(obs::snapshot().value("test.gated_counter"), 0u);
}

TEST(ObsMetrics, SnapshotJsonParses)
{
    obs::setMetricsEnabled(true);
    obs::resetMetrics();
    obs::add(obs::counter("test.json_counter"), 7);
    obs::observe(obs::histogram("test.json_hist"), 100);
    for (int indent : {0, 2}) {
        obs::json::Value v;
        std::string err;
        ASSERT_TRUE(obs::json::Value::parse(
            obs::snapshot().toJson(indent), &v, &err))
            << err;
        EXPECT_EQ(v.find("test.json_counter")->asU64(), 7u);
        const obs::json::Value *h = v.find("test.json_hist");
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->find("count")->asU64(), 1u);
        EXPECT_EQ(h->find("sum")->asU64(), 100u);
    }
}

// ------------------------------------------------------------------
// Chrome-trace spans
// ------------------------------------------------------------------

TEST(ObsTrace, SpansWriteValidChromeTraceJson)
{
    const std::string path = tmpPath("trace.json");
    obs::startTrace(path);
    EXPECT_TRUE(obs::traceEnabled());
    EXPECT_EQ(obs::tracePath(), path);
    {
        obs::Span s("test", "outer");
        s.arg("cell", std::string("g0/d1"));
        s.arg("seed", uint64_t{12345});
        s.arg("ratio", 0.5);
        obs::Span inner("test", "inner");
    }
    parallelFor(8, 4, [&](size_t i) {
        obs::Span s("test", "worker");
        s.arg("i", static_cast<uint64_t>(i));
    });
    obs::stopTrace();
    EXPECT_FALSE(obs::traceEnabled());

    obs::json::Value doc;
    std::string err;
    ASSERT_TRUE(obs::json::Value::parse(slurp(path), &doc, &err))
        << err;
    EXPECT_EQ(doc.find("displayTimeUnit")->asString(), "ms");
    const obs::json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);

    size_t complete = 0, metadata = 0, workers = 0;
    bool saw_args = false;
    for (const auto &e : events->items()) {
        const std::string ph = e.find("ph")->asString();
        if (ph == "M") {
            ++metadata;
            continue;
        }
        EXPECT_NE(e.find("tid"), nullptr);
        EXPECT_NE(e.find("ts"), nullptr);
        EXPECT_EQ(ph, "X");
        ++complete;
        EXPECT_NE(e.find("dur"), nullptr);
        if (e.find("name")->asString() == "worker")
            ++workers;
        if (e.find("name")->asString() == "outer") {
            const obs::json::Value *args = e.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->find("cell")->asString(), "g0/d1");
            EXPECT_EQ(args->find("seed")->asU64(), 12345u);
            EXPECT_DOUBLE_EQ(args->find("ratio")->asNumber(), 0.5);
            saw_args = true;
        }
    }
    EXPECT_EQ(complete, 10u); // outer + inner + 8 workers
    EXPECT_EQ(workers, 8u);
    EXPECT_GE(metadata, 1u); // one thread_name lane minimum
    EXPECT_TRUE(saw_args);
    std::remove(path.c_str());
}

TEST(ObsTrace, SpansAreNoOpsWhenDisabled)
{
    ASSERT_FALSE(obs::traceEnabled());
    obs::Span s("test", "ignored");
    s.arg("k", uint64_t{1});
    EXPECT_EQ(obs::tracePath(), "");
}

// ------------------------------------------------------------------
// Progress line
// ------------------------------------------------------------------

TEST(ObsProgressDeathTest, ProgressKnobRejectsMalformedValues)
{
    // The knob is read once per process, so every probe runs in a
    // re-executed child, which reports the exception it caught.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    auto construct = [] {
        try {
            obs::ProgressMeter meter("probe", 1);
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr, "invalid_argument: %s\n", e.what());
            std::exit(2);
        }
        std::exit(0);
    };
    for (const char *v : {"yes", "off"}) {
        ::setenv("SVARD_PROGRESS", v, 1);
        EXPECT_EXIT(construct(), ::testing::ExitedWithCode(2),
                    "invalid_argument: SVARD_PROGRESS")
            << v;
    }
    ::setenv("SVARD_PROGRESS", "0", 1);
    EXPECT_EXIT(construct(), ::testing::ExitedWithCode(0), "");
    ::unsetenv("SVARD_PROGRESS");
}

// ------------------------------------------------------------------
// Manifests
// ------------------------------------------------------------------

TEST(ObsManifest, WriteReadRoundTrip)
{
    const std::string path = tmpPath("manifest.json");
    obs::RunManifest m;
    m.kind = "sweep";
    m.geometries = {"ddr4-table4", "hbm2-pc-16ch"};
    m.specFingerprint = 0xDEADBEEFCAFEF00DULL;
    m.baseSeed = 11;
    m.threads = 4;
    m.requestsPerCore = 6000;
    m.buildFlags = "ndebug,obs";
    m.wallSeconds = 12.5;
    m.cellsTotal = 40;
    m.cellsExecuted = 30;
    m.cellsCached = 10;
    m.baselinesExecuted = 6;
    m.baselinesCached = 2;
    m.cachePath = "sweep.cache";
    ASSERT_TRUE(obs::writeManifest(path, m, obs::snapshot()));

    // Every field reads back through the JSON DOM, the 64-bit
    // fingerprint exactly although no double can hold it.
    obs::json::Value doc;
    std::string err;
    ASSERT_TRUE(obs::json::Value::parse(slurp(path), &doc, &err))
        << err;
    EXPECT_EQ(doc.find("schema")->asString(), obs::kManifestSchema);
    EXPECT_EQ(doc.find("kind")->asString(), m.kind);
    const auto &geoms = doc.find("geometries")->items();
    ASSERT_EQ(geoms.size(), 2u);
    EXPECT_EQ(geoms[0].asString(), m.geometries[0]);
    EXPECT_EQ(geoms[1].asString(), m.geometries[1]);
    EXPECT_EQ(doc.find("spec_fingerprint")->asU64(),
              0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(doc.find("base_seed")->asU64(), m.baseSeed);
    EXPECT_EQ(doc.find("threads")->asU64(), m.threads);
    EXPECT_EQ(doc.find("requests_per_core")->asU64(), m.requestsPerCore);
    EXPECT_EQ(doc.find("build_flags")->asString(), m.buildFlags);
    EXPECT_DOUBLE_EQ(doc.find("wall_s")->asNumber(), m.wallSeconds);
    EXPECT_EQ(doc.find("cells_total")->asU64(), m.cellsTotal);
    EXPECT_EQ(doc.find("cells_executed")->asU64(), m.cellsExecuted);
    EXPECT_EQ(doc.find("cells_cached")->asU64(), m.cellsCached);
    EXPECT_EQ(doc.find("baselines_executed")->asU64(),
              m.baselinesExecuted);
    EXPECT_EQ(doc.find("baselines_cached")->asU64(), m.baselinesCached);
    EXPECT_EQ(doc.find("cache_path")->asString(), m.cachePath);
    EXPECT_NE(doc.find("created_unix_ms"), nullptr);
    ASSERT_NE(doc.find("metrics"), nullptr);
    EXPECT_EQ(doc.find("metrics")->type(),
              obs::json::Value::Type::Object);
    EXPECT_EQ(doc.find("simd_impl"), nullptr);
    EXPECT_EQ(doc.find("sink_queue_high_water"), nullptr);
    std::remove(path.c_str());
}

TEST(ObsManifest, BuildFlagsStringMatchesCompile)
{
    const std::string flags = obs::buildFlagsString();
    EXPECT_FALSE(flags.empty());
#ifdef NDEBUG
    EXPECT_NE(flags.find("ndebug"), std::string::npos) << flags;
#else
    EXPECT_EQ(flags.find("ndebug"), std::string::npos) << flags;
#endif
}

// ------------------------------------------------------------------
// The invariant: observability never changes results
// ------------------------------------------------------------------

engine::SweepSpec
tinySpec(const std::string &out_path, unsigned threads)
{
    engine::SweepSpec spec;
    spec.config.cores = 4;
    spec.requestsPerCore = 1000;
    spec.threads = threads;
    spec.defenses = {"para", "hydra"};
    spec.thresholds = {128};
    spec.providers = {engine::ProviderSpec::uniform(),
                      engine::ProviderSpec::svard("S0")};
    spec.mixes = sim::workloadMixes(1, spec.config.cores);
    spec.sink = std::make_shared<io::AsyncSink>(
        io::makeSinkForPath(out_path));
    return spec;
}

TEST(ObsInvariant, SweepCsvByteIdenticalWithInstrumentsOnOrOff)
{
    // Pass 1: everything off (the plain run).
    obs::setMetricsEnabled(false);
    const std::string plain_csv = tmpPath("plain.csv");
    engine::ExperimentRunner(tinySpec(plain_csv, 1)).run();
    const std::string plain = slurp(plain_csv);
    ASSERT_FALSE(plain.empty());

    // Pass 2: metrics + tracing + manifest, 1 thread.
    const std::string obs_csv = tmpPath("observed.csv");
    const std::string trace_path = tmpPath("sweep_trace.json");
    obs::setMetricsEnabled(true);
    obs::startTrace(trace_path);
    engine::SweepSpec observed = tinySpec(obs_csv, 1);
    observed.manifestPath = obs_csv + ".manifest.json";
    observed.progressLabel = "obs-test";
    engine::ExperimentRunner runner(std::move(observed));
    const size_t cells = runner.run().size();
    obs::stopTrace();
    obs::setMetricsEnabled(false);
    EXPECT_EQ(slurp(obs_csv), plain)
        << "instrumented run altered the result table";

    // Pass 3: same instruments, 4 threads — still byte-identical.
    const std::string mt_csv = tmpPath("observed_mt.csv");
    obs::setMetricsEnabled(true);
    engine::ExperimentRunner(tinySpec(mt_csv, 4)).run();
    obs::setMetricsEnabled(false);
    EXPECT_EQ(slurp(mt_csv), plain)
        << "4-thread instrumented run altered the result table";

    // The traced run produced >= 1 span per executed cell.
    obs::json::Value trace;
    std::string err;
    ASSERT_TRUE(obs::json::Value::parse(slurp(trace_path), &trace,
                                        &err))
        << err;
    size_t cell_spans = 0;
    for (const auto &e : trace.find("traceEvents")->items())
        if (e.find("ph")->asString() == "X" &&
            e.find("name")->asString() == "cell")
            ++cell_spans;
    EXPECT_EQ(cell_spans, cells);

    // The manifest describes the run.
    obs::json::Value m;
    ASSERT_TRUE(obs::json::Value::parse(
        slurp(obs_csv + ".manifest.json"), &m, &err))
        << err;
    EXPECT_EQ(m.find("kind")->asString(), "sweep");
    EXPECT_EQ(m.find("spec_fingerprint")->asU64(),
              runner.specFingerprint());
    EXPECT_NE(runner.specFingerprint(), 0u);
    EXPECT_EQ(m.find("base_seed")->asU64(), 11u);
    EXPECT_EQ(m.find("threads")->asU64(), 1u);
    EXPECT_EQ(m.find("cells_total")->asU64(), cells);
    EXPECT_EQ(m.find("cells_executed")->asU64(), cells);
    EXPECT_FALSE(m.find("build_flags")->asString().empty());

    for (const std::string &p :
         {plain_csv, obs_csv, mt_csv, trace_path,
          obs_csv + ".manifest.json"})
        std::remove(p.c_str());
}

TEST(ObsInvariant, SpecFingerprintStableAcrossInstrumentation)
{
    // The manifest's grid identity depends only on the spec, never on
    // which instruments were live.
    const std::string a_csv = tmpPath("fp_a.csv");
    const std::string b_csv = tmpPath("fp_b.csv");
    obs::setMetricsEnabled(false);
    engine::ExperimentRunner a(tinySpec(a_csv, 1));
    a.run();
    obs::setMetricsEnabled(true);
    engine::ExperimentRunner b(tinySpec(b_csv, 2));
    b.run();
    obs::setMetricsEnabled(false);
    EXPECT_EQ(a.specFingerprint(), b.specFingerprint());
    EXPECT_NE(a.specFingerprint(), 0u);
    std::remove(a_csv.c_str());
    std::remove(b_csv.c_str());
}

} // namespace
} // namespace svard
