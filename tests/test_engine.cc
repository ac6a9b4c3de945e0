/**
 * @file
 * Tests for the orchestration layer introduced with the experiment
 * engine: channel-interleaved address mapping, the multi-channel
 * SimEngine (per-channel controllers + aggregated stats), and the
 * sharded ExperimentRunner's determinism guarantee — identical
 * per-cell results for any thread count.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include <sys/wait.h>
#include <unistd.h>

#include "engine/runner.h"
#include "fault_inject/fault_inject.h"
#include "io/result_sink.h"
#include "io/sweep_cache.h"
#include "sim/engine.h"
#include "sim/system.h"

namespace svard {
namespace {

// -----------------------------------------------------------------
// Channel-interleaving address mapping
// -----------------------------------------------------------------

TEST(ChannelMap, TwoChannelFieldsWithinBoundsAndCovered)
{
    sim::SimConfig cfg;
    cfg.channels = 2;
    sim::MopMapper mapper(cfg);
    Rng rng(17);
    std::set<uint32_t> channels;
    for (int i = 0; i < 20000; ++i) {
        const auto a = mapper.map(rng.next() & ((1ULL << 38) - 1));
        EXPECT_LT(a.channel, cfg.channels);
        EXPECT_LT(a.rank, cfg.ranks);
        EXPECT_LT(a.bankGroup, cfg.bankGroups);
        EXPECT_LT(a.bank, cfg.banksPerGroup);
        EXPECT_LT(a.row, cfg.rowsPerBank);
        channels.insert(a.channel);
    }
    EXPECT_EQ(channels.size(), 2u);
}

TEST(ChannelMap, ConsecutiveMopRunsAlternateChannels)
{
    sim::SimConfig cfg;
    cfg.channels = 2;
    sim::MopMapper mapper(cfg);
    const uint64_t base = 1ULL << 30;
    const auto a0 = mapper.map(base);
    // Within one MOP run: same channel.
    for (uint64_t b = 1; b < cfg.mopWidth; ++b)
        EXPECT_EQ(mapper.map(base + b * 64).channel, a0.channel);
    // The next run lands on the other channel.
    EXPECT_NE(mapper.map(base + cfg.mopWidth * 64).channel,
              a0.channel);
}

TEST(ChannelMap, SingleChannelMappingUnchangedFromSeed)
{
    // channels == 1 must reproduce the classic MOP decomposition the
    // rest of the tests (and the paper's Table 4 system) rely on.
    sim::SimConfig cfg;
    sim::MopMapper mapper(cfg);
    const auto a0 = mapper.map(0);
    const auto a1 = mapper.map(256 * 1024);
    EXPECT_EQ(a1.row, a0.row + 1);
    EXPECT_EQ(a0.channel, 0u);
    EXPECT_EQ(a1.channel, 0u);
}

// -----------------------------------------------------------------
// Multi-channel SimEngine
// -----------------------------------------------------------------

/** Deterministic request stream mapped through a config's mapper. */
std::vector<sim::MemRequest>
requestStream(const sim::SimConfig &cfg, size_t n, uint64_t seed)
{
    sim::MopMapper mapper(cfg);
    Rng rng(seed);
    std::vector<sim::MemRequest> reqs;
    for (size_t i = 0; i < n; ++i) {
        sim::MemRequest r;
        r.write = i % 5 == 0;
        r.addr = mapper.map(rng.next() & ((1ULL << 34) - 1));
        r.token = i;
        reqs.push_back(r);
    }
    return reqs;
}

TEST(SimEngine, TwoChannelsMatchTwoIndependentOneChannelRuns)
{
    sim::SimConfig cfg;
    cfg.channels = 2;
    const auto reqs = requestStream(cfg, 3000, 5);

    // Engine path: route through the 2-channel SimEngine.
    uint64_t engine_completed = 0;
    sim::SimEngine eng(cfg, nullptr,
                       [&](const sim::MemRequest &, dram::Tick) {
                           ++engine_completed;
                       });
    // Reference path: two bare controllers driven on the identical
    // lockstep schedule (a 2-channel engine must behave exactly like
    // two independent 1-channel controllers).
    uint64_t ref_completed = 0;
    sim::MemController ref0(cfg, nullptr,
                            [&](const sim::MemRequest &, dram::Tick) {
                                ++ref_completed;
                            });
    sim::MemController ref1(cfg, nullptr,
                            [&](const sim::MemRequest &, dram::Tick) {
                                ++ref_completed;
                            });

    const dram::Tick step = 10 * dram::kPsPerUs;
    dram::Tick t = 0;
    size_t i = 0;
    while (i < reqs.size() || !eng.idle() || !ref0.idle() ||
           !ref1.idle()) {
        // Batches small enough to never overflow a 64-entry queue.
        for (size_t b = 0; b < 24 && i < reqs.size(); ++b, ++i) {
            ASSERT_TRUE(eng.enqueue(reqs[i]));
            sim::MemController &ref =
                reqs[i].addr.channel == 0 ? ref0 : ref1;
            ASSERT_TRUE(ref.enqueue(reqs[i]));
        }
        t += step;
        eng.run(t);
        ref0.run(t);
        ref1.run(t);
    }

    const sim::ControllerStats agg = eng.stats();
    const sim::ControllerStats &s0 = ref0.stats();
    const sim::ControllerStats &s1 = ref1.stats();
    EXPECT_EQ(agg.reads, s0.reads + s1.reads);
    EXPECT_EQ(agg.writes, s0.writes + s1.writes);
    EXPECT_EQ(agg.activations, s0.activations + s1.activations);
    EXPECT_EQ(agg.rowHits, s0.rowHits + s1.rowHits);
    EXPECT_EQ(agg.rowConflicts, s0.rowConflicts + s1.rowConflicts);
    EXPECT_EQ(agg.refreshes, s0.refreshes + s1.refreshes);
    EXPECT_EQ(engine_completed, ref_completed);
    // Per-channel stats are the aggregate's exact decomposition.
    EXPECT_EQ(eng.channel(0).stats().reads, s0.reads);
    EXPECT_EQ(eng.channel(1).stats().reads, s1.reads);
    // All reads were actually serviced.
    uint64_t expected_reads = 0;
    for (const auto &r : reqs)
        expected_reads += r.write ? 0 : 1;
    EXPECT_EQ(agg.reads, expected_reads);
}

TEST(SimEngine, PerChannelDefensesAreIndependentInstances)
{
    sim::SimConfig cfg;
    cfg.channels = 2;
    auto provider = std::make_shared<core::UniformThreshold>(
        1024.0, cfg.rowsPerBank);
    sim::SimEngine eng(cfg, "para", provider, 9, nullptr);
    ASSERT_TRUE(eng.hasDefense());
    ASSERT_NE(eng.defenseOf(0), nullptr);
    ASSERT_NE(eng.defenseOf(1), nullptr);
    EXPECT_NE(eng.defenseOf(0), eng.defenseOf(1));
    // Geometry was threaded through the registry context.
    EXPECT_EQ(eng.defenseOf(0)->banksPerRank(), cfg.banksPerRank());
}

TEST(System, TwoChannelRunCompletesWithConsistentAggregates)
{
    sim::SimConfig cfg1;
    sim::SimConfig cfg2;
    cfg2.channels = 2;

    auto traces_for = [&](uint64_t seed) {
        std::vector<std::vector<sim::TraceEntry>> traces;
        for (uint32_t c = 0; c < 4; ++c)
            traces.push_back(sim::generateTrace(
                sim::benchmarkByName("ptrchase-hi"), 2500, seed,
                sim::coreTraceOffset(seed, c)));
        return traces;
    };

    sim::System sys2(cfg2, traces_for(7), 2500, nullptr);
    const auto res2 = sys2.run();
    sim::System sys1(cfg1, traces_for(7), 2500, nullptr);
    const auto res1 = sys1.run();

    // Same workload, same demand traffic up to the post-measurement
    // tail (cores replay their trace until the slowest finishes, so
    // totals are timing-dependent by a few percent).
    EXPECT_NEAR(static_cast<double>(res2.controller.reads),
                static_cast<double>(res1.controller.reads),
                0.05 * static_cast<double>(res1.controller.reads));
    EXPECT_NEAR(static_cast<double>(res2.controller.writes),
                static_cast<double>(res1.controller.writes),
                0.05 * static_cast<double>(res1.controller.writes));
    // Both channels carried traffic and sum to the aggregate.
    ASSERT_EQ(res2.perChannel.size(), 2u);
    EXPECT_GT(res2.perChannel[0].reads, 0u);
    EXPECT_GT(res2.perChannel[1].reads, 0u);
    EXPECT_EQ(res2.perChannel[0].reads + res2.perChannel[1].reads,
              res2.controller.reads);
    // Doubling the channels cannot slow a bandwidth-hungry mix down.
    double ipc1 = 0, ipc2 = 0;
    for (size_t c = 0; c < res1.ipc.size(); ++c) {
        ipc1 += res1.ipc[c];
        ipc2 += res2.ipc[c];
    }
    EXPECT_GE(ipc2, ipc1 * 0.98);
}

// -----------------------------------------------------------------
// Sharded experiment runner
// -----------------------------------------------------------------

engine::SweepSpec
smallSpec(unsigned threads)
{
    engine::SweepSpec spec;
    spec.config.cores = 4;
    spec.defenses = {"para", "hydra"};
    spec.thresholds = {128.0};
    spec.providers = {engine::ProviderSpec::uniform(),
                      engine::ProviderSpec::svard("S3")};
    spec.mixes = sim::workloadMixes(2, spec.config.cores);
    spec.requestsPerCore = 1200;
    spec.threads = threads;
    return spec;
}

TEST(ExperimentRunner, FourThreadShardingReproducesSingleThreadExactly)
{
    engine::ExperimentRunner serial(smallSpec(1));
    engine::ExperimentRunner sharded(smallSpec(4));
    const auto &a = serial.run();
    const auto &b = sharded.run();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), 2u * 1u * 2u * 2u); // defenses x thr x prov x mixes
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed) << i;
        EXPECT_EQ(a[i].defense, b[i].defense) << i;
        EXPECT_EQ(a[i].provider, b[i].provider) << i;
        // Identical per-cell seeds -> bit-identical simulations.
        EXPECT_DOUBLE_EQ(a[i].metrics.weightedSpeedup,
                         b[i].metrics.weightedSpeedup)
            << i;
        EXPECT_DOUBLE_EQ(a[i].metrics.harmonicSpeedup,
                         b[i].metrics.harmonicSpeedup)
            << i;
        EXPECT_DOUBLE_EQ(a[i].metrics.maxSlowdown,
                         b[i].metrics.maxSlowdown)
            << i;
        EXPECT_DOUBLE_EQ(a[i].normalized.weightedSpeedup,
                         b[i].normalized.weightedSpeedup)
            << i;
    }
    // Overhead ordering is reproduced identically: compare the mean
    // normalized weighted speedups defense by defense.
    const auto sa = serial.summarize();
    const auto sb = sharded.summarize();
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i)
        EXPECT_DOUBLE_EQ(sa[i].meanNormalized.weightedSpeedup,
                         sb[i].meanNormalized.weightedSpeedup);
}

TEST(ExperimentRunner, CellsCarryMetadataAndSaneNormalization)
{
    engine::ExperimentRunner runner(smallSpec(0));
    const auto &cells = runner.run();
    for (const auto &c : cells) {
        EXPECT_GT(c.metrics.weightedSpeedup, 0.0);
        EXPECT_GT(c.normalized.weightedSpeedup, 0.0);
        // A defense never speeds the mix up by more than noise.
        EXPECT_LT(c.normalized.weightedSpeedup, 1.1);
        EXPECT_FALSE(c.mix.empty());
    }
    const auto table = runner.cellTable();
    EXPECT_EQ(table.rows(), cells.size());
}

TEST(ExperimentRunner, GeometryIsASweepAxis)
{
    engine::SweepSpec spec = smallSpec(0);
    sim::SimConfig two_channel = spec.config;
    two_channel.channels = 2;
    spec.geometries = {spec.config, two_channel};
    spec.defenses = {"para"};
    spec.providers = {engine::ProviderSpec::svard("S3")};
    spec.mixes = {spec.mixes[0]};

    engine::ExperimentRunner runner(std::move(spec));
    const auto &cells = runner.run();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].cell.geom, 0u);
    EXPECT_EQ(cells[1].cell.geom, 1u);
    for (const auto &c : cells)
        EXPECT_GT(c.metrics.weightedSpeedup, 0.0);
    // The hand-built 2-channel config kept the default config's
    // "ddr4-table4" label while changing the organization; the
    // runner relabels it from its actual shape so the two
    // geometries never report under one name.
    EXPECT_EQ(cells[0].geometry, "ddr4-table4");
    EXPECT_EQ(cells[1].geometry, "2ch-16b-128Kr");
}

engine::SweepSpec
presetSpec(unsigned threads)
{
    engine::SweepSpec spec = smallSpec(threads);
    spec.config.cores = 4;
    spec.defenses = {"para"};
    spec.providers = {engine::ProviderSpec::uniform(),
                      engine::ProviderSpec::svard("S3")};
    spec.mixes = {spec.mixes[0]};
    spec.requestsPerCore = 500;
    spec.geometryNames = {"ddr4-table4", "ddr5-4800-32bank",
                          "hbm2-pc-16ch"};
    return spec;
}

TEST(ExperimentRunner, PresetGeometryAxisSweepsByName)
{
    engine::ExperimentRunner runner(presetSpec(0));
    const auto &cells = runner.run();
    ASSERT_EQ(cells.size(), 3u * 2u); // geometries x providers

    // Every cell is labeled with its preset, the resolved configs
    // carry the preset organizations, and fingerprints are distinct
    // across geometries for otherwise-identical coordinates — a
    // cached DDR4 cell can never be served for an HBM2 cell.
    const auto &geoms = runner.geometries();
    ASSERT_EQ(geoms.size(), 3u);
    EXPECT_EQ(geoms[1].banksPerRank(), 32u);
    EXPECT_EQ(geoms[2].channels, 16u);
    std::set<uint64_t> fingerprints;
    for (const auto &c : cells) {
        EXPECT_EQ(c.geometry, geoms[c.cell.geom].geometry);
        EXPECT_GT(c.metrics.weightedSpeedup, 0.0);
        fingerprints.insert(c.fingerprint);
    }
    EXPECT_EQ(fingerprints.size(), cells.size());
    EXPECT_EQ(cells[0].geometry, "ddr4-table4");
    EXPECT_EQ(cells[2].geometry, "ddr5-4800-32bank");
    EXPECT_EQ(cells[4].geometry, "hbm2-pc-16ch");
}

TEST(ExperimentRunner, PresetSweepIsThreadCountInvariant)
{
    engine::ExperimentRunner serial(presetSpec(1));
    engine::ExperimentRunner sharded(presetSpec(4));
    const auto &a = serial.run();
    const auto &b = sharded.run();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].geometry, b[i].geometry) << i;
        EXPECT_EQ(a[i].fingerprint, b[i].fingerprint) << i;
        EXPECT_DOUBLE_EQ(a[i].metrics.weightedSpeedup,
                         b[i].metrics.weightedSpeedup)
            << i;
        EXPECT_DOUBLE_EQ(a[i].normalized.weightedSpeedup,
                         b[i].normalized.weightedSpeedup)
            << i;
    }
}

TEST(ExperimentRunner, UnknownGeometryPresetThrowsUpFront)
{
    engine::SweepSpec spec = smallSpec(1);
    spec.geometryNames = {"ddr4-table4", "hbm3-not-yet"};
    EXPECT_THROW(engine::ExperimentRunner runner(std::move(spec)),
                 std::invalid_argument);
}

TEST(ExperimentRunner, UnknownDefenseNameThrowsUpFront)
{
    engine::SweepSpec spec = smallSpec(1);
    spec.defenses = {"para", "definitely-not-registered"};
    EXPECT_THROW(engine::ExperimentRunner runner(std::move(spec)),
                 std::invalid_argument);
}

TEST(ExperimentRunner, DegenerateSpecsThrowInsteadOfEmptyGrids)
{
    // An empty axis would silently enumerate a zero-cell grid; every
    // degenerate shape must throw on the caller's thread instead.
    {
        engine::SweepSpec spec = smallSpec(1);
        spec.mixes.clear();
        EXPECT_THROW(engine::ExperimentRunner runner(std::move(spec)),
                     std::invalid_argument);
    }
    {
        engine::SweepSpec spec = smallSpec(1);
        spec.defenses.clear();
        EXPECT_THROW(engine::ExperimentRunner runner(std::move(spec)),
                     std::invalid_argument);
    }
    {
        engine::SweepSpec spec = smallSpec(1);
        spec.thresholds.clear();
        EXPECT_THROW(engine::ExperimentRunner runner(std::move(spec)),
                     std::invalid_argument);
    }
    {
        engine::SweepSpec spec = smallSpec(1);
        spec.providers.clear();
        EXPECT_THROW(engine::ExperimentRunner runner(std::move(spec)),
                     std::invalid_argument);
    }
    {
        engine::SweepSpec spec = smallSpec(1);
        spec.requestsPerCore = 0;
        EXPECT_THROW(engine::ExperimentRunner runner(std::move(spec)),
                     std::invalid_argument);
    }
    {
        engine::SweepSpec spec = smallSpec(1);
        spec.mixes[1].benchIdx.clear();
        EXPECT_THROW(engine::ExperimentRunner runner(std::move(spec)),
                     std::invalid_argument);
    }
}

TEST(AdversarialSweep, DegenerateSpecsThrow)
{
    auto base = [] {
        engine::AdversarialSpec adv;
        adv.config.cores = 4;
        adv.requestsPerCore = 500;
        adv.cases.push_back({"Hydra-thrash", "hydra",
                             {sim::adversarialHydraTrace(500, 3)}});
        adv.providers = {engine::ProviderSpec::uniform()};
        return adv;
    };
    {
        engine::AdversarialSpec adv = base();
        adv.cases.clear();
        EXPECT_THROW(engine::runAdversarialSweep(adv),
                     std::invalid_argument);
    }
    {
        engine::AdversarialSpec adv = base();
        adv.providers.clear();
        EXPECT_THROW(engine::runAdversarialSweep(adv),
                     std::invalid_argument);
    }
    {
        engine::AdversarialSpec adv = base();
        adv.cases[0].traces.clear();
        EXPECT_THROW(engine::runAdversarialSweep(adv),
                     std::invalid_argument);
    }
    {
        engine::AdversarialSpec adv = base();
        adv.requestsPerCore = 0;
        EXPECT_THROW(engine::runAdversarialSweep(adv),
                     std::invalid_argument);
    }
}

/** A Fig. 13-shaped grid small enough for a unit test: 2 cases x 2
 *  providers x {1, 2} traces = 6 defended cells, 3 references. */
engine::AdversarialSpec
pinnedAdvSpec(unsigned threads)
{
    engine::AdversarialSpec adv;
    adv.config.cores = 4;
    adv.requestsPerCore = 500;
    adv.threads = threads;
    adv.cases.push_back({"Hydra-thrash", "hydra",
                         {sim::adversarialHydraTrace(500, 3)}});
    adv.cases.push_back({"RRS-swap", "rrs",
                         {sim::adversarialRrsTrace(500, 3, 1537),
                          sim::adversarialRrsTrace(500, 3, 5011)}});
    adv.providers = {engine::ProviderSpec::uniform(),
                     engine::ProviderSpec::svard("S3")};
    return adv;
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

/** Run pinnedAdvSpec(threads) with a CSV sink at `csv_path`. */
std::vector<engine::AdversarialResult>
runPinnedAdv(unsigned threads, const std::string &csv_path,
             std::shared_ptr<io::SweepCache> cache = nullptr,
             engine::SweepIoStats *stats = nullptr)
{
    engine::AdversarialSpec adv = pinnedAdvSpec(threads);
    adv.sink = std::make_shared<io::CsvSink>(csv_path);
    adv.cache = std::move(cache);
    return engine::runAdversarialSweep(adv, stats);
}

TEST(AdversarialSweep, ThreadCountInvariantAndPinned)
{
    // Digest of the aggregated results: any change to what the
    // adversarial sweep computes shows up here.
    constexpr uint64_t kPinnedDigest = 0xcd8c3d76eed53624ULL;
    const std::string path1 = ::testing::TempDir() + "svard_adv_t1.csv";
    const std::string path4 = ::testing::TempDir() + "svard_adv_t4.csv";
    const auto a = runPinnedAdv(1, path1);
    const auto b = runPinnedAdv(4, path4);
    EXPECT_EQ(slurp(path1), slurp(path4));
    ASSERT_EQ(a.size(), 4u); // cases x providers
    ASSERT_EQ(a.size(), b.size());
    HashStream h;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].caseName, b[i].caseName) << i;
        EXPECT_EQ(a[i].defense, b[i].defense) << i;
        EXPECT_EQ(a[i].provider, b[i].provider) << i;
        EXPECT_EQ(a[i].benignWs, b[i].benignWs) << i;
        EXPECT_EQ(a[i].slowdown, b[i].slowdown) << i;
        EXPECT_EQ(a[i].normalizedSlowdown, b[i].normalizedSlowdown)
            << i;
        h.mix(a[i].caseName).mix(a[i].defense).mix(a[i].provider);
        h.mix(a[i].benignWs).mix(a[i].slowdown);
        h.mix(a[i].normalizedSlowdown);
    }
    EXPECT_EQ(h.value(), kPinnedDigest)
        << std::hex << "digest 0x" << h.value();
    // Fig. 13's direction: under its attack, RRS with Svärd slows the
    // benign cores less than with the uniform worst case.
    EXPECT_EQ(a[3].caseName, "RRS-swap");
    EXPECT_EQ(a[3].provider, "Svard-S3");
    EXPECT_LT(a[3].normalizedSlowdown, 1.0);
}

TEST(AdversarialSweep, KilledSweepResumesByteIdentical)
{
    // The runner.cell kill drill through the adversarial grid: the
    // child dies at its second executed cell, and a resume from its
    // checkpoint reproduces an uninterrupted run byte for byte.
    const std::string ref_csv = ::testing::TempDir() + "svard_adv_kill_ref.csv";
    const std::string res_csv = ::testing::TempDir() + "svard_adv_kill_res.csv";
    const std::string cache_path =
        ::testing::TempDir() + "svard_adv_kill.cache";
    std::remove(cache_path.c_str());
    runPinnedAdv(1, ref_csv);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        try {
            faults::configure("runner.cell:kill@2");
            runPinnedAdv(1, ::testing::TempDir() + "svard_adv_kill_child.csv",
                         std::make_shared<io::SweepCache>(cache_path));
        } catch (...) {
            ::_Exit(3);
        }
        ::_Exit(0); // fault did not fire
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137)
        << "the injected kill must fire mid-sweep";

    engine::SweepIoStats stats;
    runPinnedAdv(4, res_csv, std::make_shared<io::SweepCache>(cache_path),
                 &stats);
    EXPECT_EQ(stats.cached, 1u) << "the first cell was checkpointed";
    EXPECT_EQ(stats.executed, 5u);
    EXPECT_EQ(slurp(ref_csv), slurp(res_csv));
}

} // namespace
} // namespace svard
