/**
 * @file
 * Tests for the named geometry presets and everything they lean on:
 * the per-standard timing tables (DDR4/DDR5/HBM2 selected by the
 * explicit Standard enum), the preset registry itself, the
 * controller's tRRD_S/tRRD_L/tFAW and refresh behavior on shapes
 * where banks-per-rank != 16 and rows-per-bank != 128K, the rounded
 * CPU tick, and VulnProfile::resampledTo round-trips onto the preset
 * bank x row spaces.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/svard.h"
#include "core/vuln_profile.h"
#include "defense/defense.h"
#include "dram/module_spec.h"
#include "dram/subarray.h"
#include "dram/timing.h"
#include "fault/vuln_model.h"
#include "sim/addrmap.h"
#include "sim/controller.h"
#include "sim/presets.h"
#include "support/mutate.h"

namespace svard {
namespace {

// -----------------------------------------------------------------
// Per-standard timing tables
// -----------------------------------------------------------------

TEST(Timing, UnknownDdr4RateThrowsInsteadOfFallingBackTo3200)
{
    // The old "warning-free default" hid typos like 2667 behind a
    // silently simulated DDR4-3200 system.
    EXPECT_THROW(dram::ddr4Timing(2667), std::invalid_argument);
    EXPECT_THROW(dram::ddr4Timing(0), std::invalid_argument);
    EXPECT_THROW(dram::ddr4Timing(4800), std::invalid_argument);
    try {
        dram::ddr4Timing(3199);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        // The message lists the known bins to aid correction.
        EXPECT_NE(std::string(e.what()).find("3200"),
                  std::string::npos);
    }
}

TEST(Timing, Ddr5AndHbm2TablesAreInternallyConsistent)
{
    for (const dram::TimingParams &t :
         {dram::ddr5Timing(4800), dram::hbm2Timing(2000),
          dram::ddr4Timing(3200)}) {
        EXPECT_GT(t.tCK, 0);
        EXPECT_EQ(t.tRC, t.tRAS + t.tRP);
        EXPECT_GE(t.tRRD_L, t.tRRD_S); // same-group is never looser
        EXPECT_GE(t.tFAW, 4 * t.tRRD_S);
        EXPECT_GT(t.tREFW, 100 * t.tREFI);
        EXPECT_GT(t.tRFC, t.tRC);
    }
    // DDR5 halves the refresh interval; HBM2 runs a 1 ns clock.
    EXPECT_LT(dram::ddr5Timing(4800).tREFI,
              dram::ddr4Timing(3200).tREFI);
    EXPECT_EQ(dram::hbm2Timing(2000).tCK, 1000);
    EXPECT_THROW(dram::ddr5Timing(3200), std::invalid_argument);
    EXPECT_THROW(dram::hbm2Timing(3200), std::invalid_argument);
}

TEST(Timing, TimingForDispatchesOnTheStandardEnum)
{
    // Selection is by the explicit enum: the same MT/s value yields
    // the standard's own table, never an overloaded DDR4 bin.
    EXPECT_EQ(dram::timingFor(dram::Standard::DDR5, 4800).tCK,
              dram::ddr5Timing(4800).tCK);
    EXPECT_EQ(dram::timingFor(dram::Standard::HBM2, 2000).tRAS,
              dram::hbm2Timing(2000).tRAS);
    EXPECT_EQ(dram::timingFor(dram::Standard::DDR4, 2400).tCL,
              dram::ddr4Timing(2400).tCL);
    EXPECT_THROW(dram::timingFor(dram::Standard::DDR4, 4800),
                 std::invalid_argument);
}

// -----------------------------------------------------------------
// Preset registry
// -----------------------------------------------------------------

TEST(Presets, RegistryResolvesFullConfigs)
{
    const auto &names = sim::presets::names();
    ASSERT_GE(names.size(), 3u);
    for (const auto &name : names) {
        const sim::SimConfig cfg = sim::presets::get(name);
        EXPECT_EQ(cfg.geometry, name);
        EXPECT_GT(cfg.banksPerRank(), 0u);
        EXPECT_GT(cfg.rowsPerBank, 0u);
        EXPECT_GT(cfg.timing.tCK, 0);
    }
    try {
        sim::presets::get("ddr6-vaporware");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("ddr4-table4"),
                  std::string::npos);
    }
}

TEST(PresetFuzz, MutantsResolveToTheirTableEntryOrAreRejected)
{
    // Each mutant of a preset name either is a registered name and
    // resolves to that name's table entry, or throws
    // std::invalid_argument. Nothing else may happen: no near-miss,
    // case or whitespace variant may resolve to some preset.
    const auto &names = sim::presets::names();
    std::map<std::string, sim::SimConfig> table;
    for (const auto &name : names)
        table.emplace(name, sim::presets::get(name));
    std::vector<std::string> tokens = names;
    for (const char *t : {"", "-", "ddr4", "DDR4-TABLE4", "table4 ",
                          " ddr4-table4", "hbm2", "32bank", "\t"})
        tokens.push_back(t);
    const std::string alphabet =
        "abdehklnprt0123456789-_. ABDR\t\x01\x7f\xff";
    constexpr int kMutants = 100000;
    Rng rng(hashSeed({0x93E5ULL}));
    int parsed = 0, rejected = 0;
    for (int n = 0; n < kMutants; ++n) {
        const std::string m = fuzz::mutate(names[rng.below(names.size())],
                                           rng, alphabet, tokens);
        const auto entry = table.find(m);
        try {
            const sim::SimConfig cfg = sim::presets::get(m);
            ++parsed;
            ASSERT_NE(entry, table.end()) << "\"" << m << "\" resolved";
            const sim::SimConfig &want = entry->second;
            EXPECT_EQ(cfg.geometry, m);
            EXPECT_EQ(cfg.standard, want.standard) << m;
            EXPECT_EQ(cfg.channels, want.channels) << m;
            EXPECT_EQ(cfg.totalBanks(), want.totalBanks()) << m;
            EXPECT_EQ(cfg.rowsPerBank, want.rowsPerBank) << m;
            EXPECT_EQ(cfg.rowBytes, want.rowBytes) << m;
            EXPECT_EQ(cfg.timing.tCK, want.timing.tCK) << m;
        } catch (const std::invalid_argument &) {
            ++rejected;
            EXPECT_EQ(entry, table.end()) << "\"" << m << "\" rejected";
        } catch (const std::exception &e) {
            ADD_FAILURE() << "\"" << m << "\" threw " << e.what()
                          << ", not std::invalid_argument";
        }
    }
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, kMutants / 2);
    std::printf("presets: %d mutants, %d parsed, %d rejected\n",
                kMutants, parsed, rejected);
}

TEST(Presets, Ddr4Table4IsTheDefaultSimConfig)
{
    const sim::SimConfig preset = sim::presets::get("ddr4-table4");
    const sim::SimConfig def;
    EXPECT_EQ(preset.geometry, def.geometry);
    EXPECT_EQ(preset.standard, dram::Standard::DDR4);
    EXPECT_EQ(preset.channels, def.channels);
    EXPECT_EQ(preset.banksPerRank(), 16u);
    EXPECT_EQ(preset.rowsPerBank, 128u * 1024u);
    EXPECT_EQ(preset.timing.tCK, def.timing.tCK);
}

TEST(Presets, Ddr5AndHbm2ShapesBreakTheTable4Assumptions)
{
    const sim::SimConfig ddr5 = sim::presets::get("ddr5-4800-32bank");
    EXPECT_EQ(ddr5.standard, dram::Standard::DDR5);
    EXPECT_EQ(ddr5.banksPerRank(), 32u);   // != 16
    EXPECT_EQ(ddr5.rowsPerBank, 64u * 1024u); // != 128K
    EXPECT_EQ(ddr5.timing.tREFI, dram::ddr5Timing(4800).tREFI);

    const sim::SimConfig hbm2 = sim::presets::get("hbm2-pc-16ch");
    EXPECT_EQ(hbm2.standard, dram::Standard::HBM2);
    EXPECT_EQ(hbm2.channels, 16u);
    EXPECT_EQ(hbm2.ranks, 1u);
    EXPECT_EQ(hbm2.banksPerRank(), 16u);
    EXPECT_EQ(hbm2.rowsPerBank, 16u * 1024u);
    EXPECT_EQ(hbm2.rowBytes, 2048u);
    // 2 KiB rows still hold whole MOP runs.
    EXPECT_EQ(hbm2.blocksPerRow() % hbm2.mopWidth, 0u);
}

TEST(Presets, MopRowStrideAdvancesExactlyOneRowOnEveryPreset)
{
    // The adversarial trace generators lean on rowStrideBytes being
    // the mapper's real next-row distance; assert the coupling per
    // preset so a MopMapper layout change cannot silently strand
    // them on a stale stride.
    for (const auto &name : sim::presets::names()) {
        const sim::SimConfig cfg = sim::presets::get(name);
        const sim::MopMapper mapper(cfg);
        const uint64_t stride = sim::MopMapper::rowStrideBytes(cfg);
        for (uint64_t base : {uint64_t{0}, 3 * stride, 17 * stride}) {
            const dram::Address a = mapper.map(base);
            const dram::Address b = mapper.map(base + stride);
            EXPECT_EQ(b.row, a.row + 1) << name;
            EXPECT_EQ(b.channel, a.channel) << name;
            EXPECT_EQ(b.rank, a.rank) << name;
            EXPECT_EQ(b.bankGroup, a.bankGroup) << name;
            EXPECT_EQ(b.bank, a.bank) << name;
            EXPECT_EQ(b.column, a.column) << name;
        }
    }
}

// -----------------------------------------------------------------
// Rounded CPU tick
// -----------------------------------------------------------------

TEST(SimConfig, CpuTickRoundsToNearestInsteadOfTruncating)
{
    sim::SimConfig cfg;
    cfg.cpuGhz = 3.2; // 312.5 ps: truncation said 312
    EXPECT_EQ(cfg.cpuTick(), 313);
    cfg.cpuGhz = 2.0;
    EXPECT_EQ(cfg.cpuTick(), 500);
    cfg.cpuGhz = 3.0; // 333.33 ps rounds down
    EXPECT_EQ(cfg.cpuTick(), 333);
    cfg.cpuGhz = 4.2; // 238.09 ps
    EXPECT_EQ(cfg.cpuTick(), 238);
}

// -----------------------------------------------------------------
// Controller timing invariants on non-DDR4 shapes
// -----------------------------------------------------------------

/** Defense that records every demand ACT the controller issues
 *  (onActivate is called at the exact issue time with the flat bank),
 *  giving the tests the ACT timeline the stats do not expose. */
class ActRecorder : public defense::Defense
{
  public:
    explicit ActRecorder(uint32_t rows_per_bank)
        : Defense(std::make_shared<core::UniformThreshold>(
              1e18, rows_per_bank))
    {}

    const char *name() const override { return "ActRecorder"; }

    void
    onActivate(uint32_t bank, uint32_t row, dram::Tick now,
               std::vector<defense::PreventiveAction> &) override
    {
        (void)row;
        acts.push_back({bank, now});
    }

    struct Act
    {
        uint32_t flatBank;
        dram::Tick time;
    };
    std::vector<Act> acts;
};

/** Drive `n` single-read row misses spread over the banks of rank 0
 *  (every request targets a fresh row, so each one costs an ACT). */
void
driveRowMisses(sim::MemController &mc, const sim::SimConfig &cfg,
               uint32_t n, dram::Tick *clock)
{
    for (uint32_t i = 0; i < n; ++i) {
        sim::MemRequest req;
        req.core = 0;
        req.write = false;
        req.addr.rank = 0;
        req.addr.bankGroup = i % cfg.bankGroups;
        req.addr.bank = (i / cfg.bankGroups) % cfg.banksPerGroup;
        req.addr.row = (i * 37) % cfg.rowsPerBank;
        req.addr.column = 0;
        req.arrive = *clock;
        while (!mc.enqueue(req))
            *clock = mc.run(*clock + 500 * dram::kPsPerNs);
    }
    while (!mc.idle())
        *clock = mc.run(*clock + 1000 * dram::kPsPerNs);
}

/** Check tRRD_S / tRRD_L / tFAW over a recorded ACT timeline. */
void
expectActTimingRespected(const std::vector<ActRecorder::Act> &acts,
                         const sim::SimConfig &cfg)
{
    const auto &t = cfg.timing;
    const uint32_t banks_per_rank = cfg.banksPerRank();
    // Group per rank (recorder order is issue order, so times are
    // monotone within the stream).
    std::map<uint32_t, std::vector<std::pair<dram::Tick, uint32_t>>>
        per_rank; // rank -> [(time, bank group)]
    for (const auto &a : acts)
        per_rank[a.flatBank / banks_per_rank].push_back(
            {a.time, (a.flatBank % banks_per_rank) /
                         cfg.banksPerGroup});
    ASSERT_FALSE(per_rank.empty());
    for (const auto &[rank, seq] : per_rank) {
        for (size_t i = 1; i < seq.size(); ++i)
            EXPECT_GE(seq[i].first - seq[i - 1].first, t.tRRD_S)
                << "tRRD_S violated in rank " << rank << " at ACT "
                << i;
        for (size_t i = 4; i < seq.size(); ++i)
            EXPECT_GE(seq[i].first - seq[i - 4].first, t.tFAW)
                << "tFAW violated in rank " << rank << " at ACT " << i;
        // Same-bank-group consecutive ACTs must honor tRRD_L.
        std::map<uint32_t, dram::Tick> last_bg;
        for (const auto &[time, bg] : seq) {
            const auto it = last_bg.find(bg);
            if (it != last_bg.end()) {
                EXPECT_GE(time - it->second, t.tRRD_L)
                    << "tRRD_L violated in rank " << rank
                    << " bank group " << bg;
            }
            last_bg[bg] = time;
        }
    }
}

class ControllerShapeP
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(ControllerShapeP, ActStreamHonorsTrrdAndTfaw)
{
    const sim::SimConfig cfg = sim::presets::get(GetParam());
    ActRecorder recorder(cfg.rowsPerBank);
    sim::MemController mc(cfg, &recorder, nullptr);
    dram::Tick clock = 0;
    driveRowMisses(mc, cfg, 6 * cfg.banksPerRank(), &clock);
    // Every bank of rank 0 was exercised under its real flat index
    // (no mod-16 aliasing on the 32-bank DDR5 shape).
    std::vector<uint32_t> banks_seen;
    for (const auto &a : recorder.acts)
        banks_seen.push_back(a.flatBank);
    std::sort(banks_seen.begin(), banks_seen.end());
    banks_seen.erase(
        std::unique(banks_seen.begin(), banks_seen.end()),
        banks_seen.end());
    EXPECT_EQ(banks_seen.size(), cfg.banksPerRank());
    EXPECT_LT(banks_seen.back(), cfg.banksPerRank());
    ASSERT_GE(recorder.acts.size(), 6u * cfg.banksPerRank());
    expectActTimingRespected(recorder.acts, cfg);
}

INSTANTIATE_TEST_SUITE_P(Presets, ControllerShapeP,
                         ::testing::Values("ddr4-table4",
                                           "ddr5-4800-32bank",
                                           "hbm2-pc-16ch"));

TEST(ControllerShape, SameBankGroupPairsWaitTrrdLNotJustTrrdS)
{
    // Hammer one bank group only: with 4 banks per group and fresh
    // rows per request, consecutive ACTs always share the group, so
    // every gap must clear tRRD_L (strictly larger than tRRD_S on
    // all three standards — the pre-fix controller spaced these at
    // tRRD_S).
    const sim::SimConfig cfg = sim::presets::get("ddr5-4800-32bank");
    ASSERT_GT(cfg.timing.tRRD_L, cfg.timing.tRRD_S);
    ActRecorder recorder(cfg.rowsPerBank);
    sim::MemController mc(cfg, &recorder, nullptr);
    dram::Tick clock = 0;
    for (uint32_t i = 0; i < 64; ++i) {
        sim::MemRequest req;
        req.core = 0;
        req.write = false;
        req.addr.rank = 0;
        req.addr.bankGroup = 2;
        req.addr.bank = i % cfg.banksPerGroup;
        req.addr.row = 1 + i * 53;
        req.addr.column = 0;
        req.arrive = clock;
        while (!mc.enqueue(req))
            clock = mc.run(clock + 500 * dram::kPsPerNs);
    }
    while (!mc.idle())
        clock = mc.run(clock + 1000 * dram::kPsPerNs);
    ASSERT_GE(recorder.acts.size(), 64u);
    for (size_t i = 1; i < recorder.acts.size(); ++i)
        ASSERT_GE(recorder.acts[i].time - recorder.acts[i - 1].time,
                  cfg.timing.tRRD_L)
            << "ACT pair " << i;
}

TEST(ControllerShape, RefreshCadenceFollowsThePresetTrefi)
{
    // Equal simulated spans under DDR4 (tREFI 7.8us) and DDR5
    // (3.9us) must show the DDR5 controller refreshing about twice
    // as often per rank.
    auto refreshes_per_rank = [](const sim::SimConfig &cfg) {
        ActRecorder recorder(cfg.rowsPerBank);
        sim::MemController mc(cfg, &recorder, nullptr);
        dram::Tick clock = 0;
        const dram::Tick span = 40 * cfg.timing.tREFI;
        uint32_t i = 0;
        // Trickle one row miss per microsecond so the controller
        // keeps simulating (refreshes are processed while it runs).
        while (clock < span) {
            sim::MemRequest req;
            req.core = 0;
            req.write = false;
            req.addr.rank = 0;
            req.addr.bankGroup = i % cfg.bankGroups;
            req.addr.bank = 0;
            req.addr.row = 1 + (i * 101) % cfg.rowsPerBank;
            req.addr.column = 0;
            req.arrive = clock;
            ++i;
            mc.enqueue(req);
            clock = mc.run(clock + dram::kPsPerUs);
        }
        return static_cast<double>(mc.stats().refreshes) /
               static_cast<double>(cfg.ranks);
    };

    const sim::SimConfig ddr4 = sim::presets::get("ddr4-table4");
    const sim::SimConfig ddr5 = sim::presets::get("ddr5-4800-32bank");
    const double r4 = refreshes_per_rank(ddr4);
    const double r5 = refreshes_per_rank(ddr5);
    // 40 tREFI periods each: expect ~40 refreshes per rank.
    EXPECT_NEAR(r4, 40.0, 4.0);
    EXPECT_NEAR(r5, 40.0, 4.0);
}

// -----------------------------------------------------------------
// Profile resampling onto preset spaces
// -----------------------------------------------------------------

std::shared_ptr<core::VulnProfile>
s0Profile()
{
    static std::shared_ptr<core::VulnProfile> prof = [] {
        const auto &spec = dram::moduleByLabel("S0");
        auto sa = std::make_shared<dram::SubarrayMap>(spec);
        fault::VulnerabilityModel model(spec, sa);
        return std::make_shared<core::VulnProfile>(
            core::VulnProfile::fromModel(model));
    }();
    return prof;
}

TEST(Resample, PresetSpacesGetFullCoverageAndPreservedBounds)
{
    const auto base = s0Profile();
    for (const auto &name : sim::presets::names()) {
        const sim::SimConfig cfg = sim::presets::get(name);
        const core::VulnProfile p =
            base->resampledTo(cfg.banksPerRank(), cfg.rowsPerBank);
        EXPECT_EQ(p.banks(), cfg.banksPerRank()) << name;
        EXPECT_EQ(p.rowsPerBank(), cfg.rowsPerBank) << name;
        // Bin bounds are carried over unchanged; thresholds stay
        // within the source profile's range.
        EXPECT_EQ(p.binBounds(), base->binBounds()) << name;
        EXPECT_GE(p.minThreshold(), base->minThreshold()) << name;
        EXPECT_LE(p.maxThreshold(), base->maxThreshold()) << name;
    }
}

TEST(Resample, RoundTripsExactlyAcrossPresetShapesWithIntegerRatio)
{
    // Start from the HBM2 shape (the smallest), expand onto the
    // DDR4 and DDR5 preset spaces, and come back: with integer
    // row/bank ratios the round-trip must reproduce every bin.
    const sim::SimConfig hbm2 = sim::presets::get("hbm2-pc-16ch");
    const core::VulnProfile small = s0Profile()->resampledTo(
        hbm2.banksPerRank(), hbm2.rowsPerBank);
    for (const char *target : {"ddr4-table4", "ddr5-4800-32bank"}) {
        const sim::SimConfig cfg = sim::presets::get(target);
        const core::VulnProfile big = small.resampledTo(
            cfg.banksPerRank(), cfg.rowsPerBank);
        const core::VulnProfile back = big.resampledTo(
            small.banks(), small.rowsPerBank());
        ASSERT_EQ(back.banks(), small.banks());
        ASSERT_EQ(back.rowsPerBank(), small.rowsPerBank());
        for (uint32_t b = 0; b < small.banks(); ++b)
            for (uint32_t r = 0; r < small.rowsPerBank(); ++r)
                ASSERT_EQ(back.binOf(b, r), small.binOf(b, r))
                    << target << " bank " << b << " row " << r;
    }
}

TEST(Resample, ProportionalSpatialStructureOnPresetSpaces)
{
    // Each target row inherits the bin of its proportionally-located
    // source row — spot-check the contract the engine relies on when
    // it maps module profiles onto preset geometries.
    const auto base = s0Profile();
    const sim::SimConfig ddr5 = sim::presets::get("ddr5-4800-32bank");
    const core::VulnProfile p =
        base->resampledTo(ddr5.banksPerRank(), ddr5.rowsPerBank);
    for (uint32_t b : {0u, 15u, 16u, 31u}) {
        const uint32_t src_bank = b % base->banks();
        for (uint32_t r : {0u, 1u, 1000u, ddr5.rowsPerBank - 1}) {
            const uint32_t src_row = static_cast<uint32_t>(
                (static_cast<uint64_t>(r) * base->rowsPerBank()) /
                ddr5.rowsPerBank);
            EXPECT_EQ(p.binOf(b, r), base->binOf(src_bank, src_row));
        }
    }
}

} // namespace
} // namespace svard
