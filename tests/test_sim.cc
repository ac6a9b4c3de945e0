/**
 * @file
 * Tests for the memory-system simulator: MOP address mapping, workload
 * generation, core-model window semantics, the controller's timing and
 * scheduling behaviour, and the end-to-end properties the Fig. 12/13
 * evaluation rests on (defense overhead ordering, Svärd's gains).
 */
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "engine/runner.h"
#include "obs/metrics.h"
#include "sim/addrmap.h"
#include "sim/controller.h"
#include "sim/system.h"

namespace svard::sim {
namespace {

SimConfig
smallConfig()
{
    SimConfig cfg;
    return cfg;
}

TEST(AddrMap, FieldsWithinBounds)
{
    SimConfig cfg;
    MopMapper mapper(cfg);
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        const uint64_t addr = rng.next() & ((1ULL << 38) - 1);
        const auto a = mapper.map(addr);
        EXPECT_LT(a.rank, cfg.ranks);
        EXPECT_LT(a.bankGroup, cfg.bankGroups);
        EXPECT_LT(a.bank, cfg.banksPerGroup);
        EXPECT_LT(a.row, cfg.rowsPerBank);
        EXPECT_LT(a.column, cfg.blocksPerRow());
        EXPECT_LT(mapper.flatBank(a), cfg.totalBanks());
    }
}

TEST(AddrMap, ConsecutiveBlocksShareRowThenHopBanks)
{
    SimConfig cfg;
    MopMapper mapper(cfg);
    const uint64_t base = 1ULL << 30;
    const auto a0 = mapper.map(base);
    // Within the 4-block MOP run: same row, same bank.
    for (uint64_t b = 1; b < cfg.mopWidth; ++b) {
        const auto a = mapper.map(base + b * 64);
        EXPECT_EQ(a.row, a0.row);
        EXPECT_EQ(mapper.flatBank(a), mapper.flatBank(a0));
    }
    // Next run: different bank group.
    const auto a4 = mapper.map(base + cfg.mopWidth * 64);
    EXPECT_NE(a4.bankGroup, a0.bankGroup);
}

TEST(AddrMap, RowStrideIs256KiB)
{
    SimConfig cfg;
    MopMapper mapper(cfg);
    const auto a0 = mapper.map(0);
    const auto a1 = mapper.map(256 * 1024);
    EXPECT_EQ(a1.row, a0.row + 1);
    EXPECT_EQ(mapper.flatBank(a1), mapper.flatBank(a0));
}

TEST(Workload, SuiteSpansTheBehaviourSpace)
{
    const auto &suite = benchmarkSuite();
    EXPECT_GE(suite.size(), 12u);
    std::set<std::string> suites;
    double max_mpki = 0, min_mpki = 1e9;
    for (const auto &b : suite) {
        suites.insert(b.suite);
        max_mpki = std::max(max_mpki, b.mpki);
        min_mpki = std::min(min_mpki, b.mpki);
    }
    EXPECT_GE(suites.size(), 4u); // SPEC06/17, TPC, YCSB, MediaBench
    EXPECT_GT(max_mpki / min_mpki, 5.0);
}

TEST(Workload, TraceIsDeterministicAndSized)
{
    const auto &prof = benchmarkSuite()[0];
    const auto a = generateTrace(prof, 5000, 7, 1 << 20);
    const auto b = generateTrace(prof, 5000, 7, 1 << 20);
    ASSERT_EQ(a.size(), 5000u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].address, b[i].address);
        EXPECT_EQ(a[i].gap, b[i].gap);
    }
}

TEST(Workload, GapsMatchMpki)
{
    const auto &prof = benchmarkByName("ptrchase-hi"); // MPKI 26
    const auto tr = generateTrace(prof, 20000, 9, 0);
    double insts = 0;
    for (const auto &e : tr)
        insts += e.gap;
    const double mpki = 1000.0 * tr.size() / insts;
    EXPECT_NEAR(mpki / prof.mpki, 1.0, 0.15);
}

TEST(Workload, MixesAreSeededAndCover)
{
    const auto mixes = workloadMixes(120, 8, 2024);
    ASSERT_EQ(mixes.size(), 120u);
    std::set<uint32_t> used;
    for (const auto &m : mixes) {
        EXPECT_EQ(m.benchIdx.size(), 8u);
        for (uint32_t b : m.benchIdx)
            used.insert(b);
    }
    EXPECT_EQ(used.size(), benchmarkSuite().size());
    const auto again = workloadMixes(120, 8, 2024);
    EXPECT_EQ(again[17].benchIdx, mixes[17].benchIdx);
}

TEST(Workload, AdversarialTracesHaveTheRightShape)
{
    SimConfig cfg;
    MopMapper mapper(cfg);
    const auto hydra = adversarialHydraTrace(10000, 1);
    std::set<uint32_t> rows;
    for (const auto &e : hydra)
        rows.insert(mapper.map(e.address).row);
    EXPECT_GT(rows.size(), 4096u); // thrashes the 4K-entry RCC

    const auto rrs = adversarialRrsTrace(1000, 1);
    std::set<uint32_t> rrs_rows;
    for (const auto &e : rrs)
        rrs_rows.insert(mapper.map(e.address).row);
    EXPECT_EQ(rrs_rows.size(), 2u); // double-sided aggressor pair
    const auto r0 = mapper.map(rrs[0].address).row;
    const auto r1 = mapper.map(rrs[1].address).row;
    EXPECT_EQ(std::max(r0, r1) - std::min(r0, r1), 2u);
}

TEST(CoreModel, WindowBlocksOnOldReads)
{
    SimConfig cfg;
    // Two reads 200 instructions apart: the second exceeds the
    // 128-entry window while the first is outstanding -> blocked.
    std::vector<TraceEntry> tr = {{10, false, 0},
                                  {200, false, 1 << 20}};
    CoreModel core(cfg, 0, tr, 2);
    ASSERT_TRUE(core.canRelease(1000000));
    uint64_t tok1 = 0;
    core.release(1000000, &tok1);
    // Second entry is 200 insts younger than the outstanding read.
    EXPECT_FALSE(core.canRelease(100000000));
    core.onReadComplete(tok1, 2000000);
    EXPECT_TRUE(core.canRelease(100000000));
}

TEST(CoreModel, IpcApproachesIssueWidthWithoutMisses)
{
    SimConfig cfg;
    // One read then a huge gap of compute: IPC ~ issue width.
    std::vector<TraceEntry> tr = {{1000000, false, 0}};
    CoreModel core(cfg, 0, tr, 1);
    uint64_t tok = 0;
    core.release(0, &tok);
    core.onReadComplete(tok, 100000); // fast memory
    ASSERT_TRUE(core.primaryDone());
    EXPECT_NEAR(core.ipc(), cfg.issueWidth, 0.2);
}

TEST(System, SingleCoreRunsToCompletionWithSaneIpc)
{
    SimConfig cfg = smallConfig();
    std::vector<std::vector<TraceEntry>> traces;
    traces.push_back(
        generateTrace(benchmarkByName("mixed-md"), 4000, 5, 4ULL << 30));
    System sys(cfg, std::move(traces), 4000, nullptr);
    const auto res = sys.run();
    ASSERT_EQ(res.ipc.size(), 1u);
    EXPECT_GT(res.ipc[0], 0.05);
    EXPECT_LT(res.ipc[0], 4.0);
    EXPECT_GT(res.controller.reads, 2000u);
    EXPECT_GT(res.controller.activations, 0u);
}

TEST(System, EightCoresContendAndSlowDown)
{
    WorkloadMix mix;
    mix.name = "all-ptrchase";
    mix.benchIdx.assign(8, 2);
    engine::SweepSpec spec;
    spec.config = smallConfig();
    spec.defenses = {"none"};
    spec.thresholds = {64};
    spec.providers = {engine::ProviderSpec::uniform()};
    spec.mixes = {mix};
    spec.requestsPerCore = 3000;
    engine::ExperimentRunner runner(std::move(spec));
    const auto m = runner.run()[0].metrics;
    const double alone = runner.aloneIpc(0, 2); // ptrchase-hi
    // Contention: the mix cannot beat eight isolated copies, and at
    // least one core visibly slows down (pointer chasing is latency-
    // bound, so queueing shows up before bandwidth saturates).
    EXPECT_LT(m.weightedSpeedup, 7.95);
    EXPECT_GT(m.weightedSpeedup, 1.0);
    EXPECT_GT(m.maxSlowdown, 1.01);
    EXPECT_GT(alone, 0.0);
}

TEST(System, RefreshesHappen)
{
    SimConfig cfg = smallConfig();
    std::vector<std::vector<TraceEntry>> traces;
    traces.push_back(
        generateTrace(benchmarkByName("compress"), 3000, 5, 4ULL << 30));
    System sys(cfg, std::move(traces), 3000, nullptr);
    const auto res = sys.run();
    // compress is low-MPKI: the run spans many tREFI periods.
    EXPECT_GT(res.controller.refreshes, 10u);
}

TEST(System, ControllerStatsAreTheFieldWiseSumOfChannels)
{
    auto traces = [] {
        std::vector<std::vector<TraceEntry>> t;
        for (uint32_t c = 0; c < 4; ++c)
            t.push_back(generateTrace(benchmarkByName("ptrchase-hi"),
                                      2500, 7, coreTraceOffset(7, c)));
        return t;
    };
    const SimConfig cfg1 = smallConfig();
    SimConfig cfg = smallConfig();
    cfg.channels = 2;
    System sys(cfg, traces(), 2500, nullptr);
    const auto res = sys.run();
    System sys1(cfg1, traces(), 2500, nullptr);
    const auto res1 = sys1.run();
    ASSERT_EQ(res.perChannel.size(), 2u);

    ControllerStats sum;
    for (const ControllerStats &ch : res.perChannel)
        sum += ch;
    const ControllerStats &agg = res.controller;
    EXPECT_EQ(agg.reads, sum.reads);
    EXPECT_EQ(agg.writes, sum.writes);
    EXPECT_EQ(agg.activations, sum.activations);
    EXPECT_EQ(agg.rowHits, sum.rowHits);
    EXPECT_EQ(agg.rowConflicts, sum.rowConflicts);
    EXPECT_EQ(agg.refreshes, sum.refreshes);
    EXPECT_EQ(agg.preventiveRefreshes, sum.preventiveRefreshes);
    EXPECT_EQ(agg.migrations, sum.migrations);
    EXPECT_EQ(agg.swaps, sum.swaps);
    EXPECT_EQ(agg.metadataAccesses, sum.metadataAccesses);
    EXPECT_EQ(agg.throttleStall, sum.throttleStall);
    EXPECT_EQ(agg.tfawStalls, sum.tfawStalls);
    // Both channels saw traffic, and a bandwidth-hungry mix hits the
    // tFAW window, so the aggregate cannot be a trivially-zero sum.
    EXPECT_GT(res.perChannel[0].reads, 0u);
    EXPECT_GT(res.perChannel[1].reads, 0u);
    EXPECT_GT(agg.tfawStalls, 0u);

    // Same workload, same demand traffic as one channel up to the
    // post-measurement tail (cores replay their trace until the
    // slowest finishes, so totals are timing-dependent by a few
    // percent).
    EXPECT_NEAR(static_cast<double>(agg.reads),
                static_cast<double>(res1.controller.reads),
                0.05 * static_cast<double>(res1.controller.reads));
    EXPECT_NEAR(static_cast<double>(agg.writes),
                static_cast<double>(res1.controller.writes),
                0.05 * static_cast<double>(res1.controller.writes));
    // Doubling the channels cannot slow a bandwidth-hungry mix down.
    double ipc1 = 0, ipc2 = 0;
    for (size_t c = 0; c < res1.ipc.size(); ++c) {
        ipc1 += res1.ipc[c];
        ipc2 += res.ipc[c];
    }
    EXPECT_GE(ipc2, ipc1 * 0.98);
}

TEST(MemController, RefusesMoreBanksPerChannelThanItsMasksHold)
{
    SimConfig cfg;
    cfg.ranks = 4; // 4 x 4 x 4 = 64: the largest channel it accepts
    ASSERT_EQ(cfg.totalBanks(), kMaxChannelBanks);
    EXPECT_NO_THROW(MemController(cfg, nullptr, nullptr));
    cfg.ranks = 5;
    ASSERT_GT(cfg.totalBanks(), kMaxChannelBanks);
    try {
        MemController mc(cfg, nullptr, nullptr);
        FAIL() << "a channel of " << cfg.totalBanks()
               << " banks was accepted";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("80 banks"), std::string::npos) << what;
        EXPECT_NE(what.find("limit of 64"), std::string::npos) << what;
    }
}

// -----------------------------------------------------------------
// Defense overhead shape at a future-chip threshold (Fig. 12 core)
// -----------------------------------------------------------------

struct Fig12Fixture : public ::testing::Test
{
    /** One engine grid serves every test: each defense at two
     *  thresholds, uniform and Svärd-S0, on a hotspot-heavy mix (high
     *  per-row activation density, the regime where count-triggered
     *  defenses react within a short simulated interval). Metrics are
     *  on, so the grid also feeds the mechanism counters. */
    static void
    SetUpTestSuite()
    {
        obs::setMetricsEnabled(true);
        WorkloadMix mix;
        mix.name = "hotspot";
        mix.benchIdx = {16, 17, 16, 17, 16, 17, 16, 17};
        engine::SweepSpec spec;
        spec.config = smallConfig();
        spec.defenses = {"none", "para", "blockhammer", "hydra", "aqua",
                         "rrs"};
        spec.thresholds = {64, 4096};
        spec.providers = {engine::ProviderSpec::uniform(),
                          engine::ProviderSpec::svard("S0")};
        spec.mixes = {mix};
        spec.requestsPerCore = 20000;
        cells = engine::ExperimentRunner(std::move(spec)).run();
    }

    /** WS of `defense` at `threshold` under the named provider
     *  ("none" ignores the threshold). */
    static double
    wsFor(const std::string &defense, double threshold,
          const std::string &provider = "NoSvard")
    {
        for (const engine::CellResult &r : cells)
            if (r.defense == defense && r.provider == provider &&
                (defense == "none" || r.threshold == threshold))
                return r.metrics.weightedSpeedup;
        ADD_FAILURE() << "no cell " << defense << "@" << threshold
                      << " " << provider;
        return 0.0;
    }

    static inline std::vector<engine::CellResult> cells;
};

TEST_F(Fig12Fixture, DefenseOverheadsOrderAsInThePaper)
{
    const double base = wsFor("none", 0);
    const double para = wsFor("para", 64);
    const double bh = wsFor("blockhammer", 64);
    const double hydra = wsFor("hydra", 64);
    const double aqua = wsFor("aqua", 64);
    const double rrs = wsFor("rrs", 64);

    // Everyone pays something at HC_first = 64.
    EXPECT_LT(para, base * 0.99);
    EXPECT_LT(bh, base);
    EXPECT_LT(hydra, base);
    EXPECT_LT(aqua, base);
    EXPECT_LT(rrs, base);
    // Robust paper-shape orderings (Fig. 12 at the lowest
    // thresholds): Hydra is the cheapest, BlockHammer collapses, and
    // RRS costs about twice AQUA (two-row swaps + unswaps vs. one-row
    // migration). PARA vs. AQUA is not asserted: their order depends
    // on whether the simulated system is bank- or bus-bound.
    EXPECT_GT(hydra, aqua);
    EXPECT_GT(aqua, rrs);
    EXPECT_GT(rrs, bh);
    EXPECT_GT(para, rrs);
}

TEST_F(Fig12Fixture, OverheadGrowsAsThresholdShrinks)
{
    const double hi = wsFor("para", 4096);
    const double lo = wsFor("para", 64);
    EXPECT_LT(lo, hi);
}

TEST_F(Fig12Fixture, SvardImprovesEveryDefenseAtLowThreshold)
{
    for (const char *defense :
         {"para", "blockhammer", "hydra", "aqua", "rrs"}) {
        const double without = wsFor(defense, 64);
        const double with_svard = wsFor(defense, 64, "Svard-S0");
        EXPECT_GE(with_svard, without * 0.999) << defense;
    }
}

TEST_F(Fig12Fixture, EveryDefenseMechanismActs)
{
    // Dead-instrument check: at HC_first = 64 every defense acts on
    // this mix, so each mechanism's counter must have moved.
    const obs::Snapshot snap = obs::snapshot();
    for (const char *name : {
             "defense.migrations",           // AQUA
             "defense.swaps",                // RRS
             "defense.throttle_events",      // BlockHammer
             "defense.preventive_refreshes", // PARA, Hydra
             "defense.metadata_accesses",    // Hydra
         })
        EXPECT_GT(snap.value(name), 0u) << name;
}

} // namespace
} // namespace svard::sim
