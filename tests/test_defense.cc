/**
 * @file
 * Tests for the five read-disturbance defenses + Graphene: mechanism
 * unit behaviour (probabilities, blacklists, counter traffic, swaps),
 * Svärd integration (fewer preventive actions, never more aggressive),
 * and the end-to-end security property against the behavioral device:
 * zero bitflips with a correctly configured defense, bitflips without.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "defense/aqua.h"
#include "defense/blockhammer.h"
#include "defense/graphene.h"
#include "defense/hydra.h"
#include "defense/para.h"
#include "defense/registry.h"
#include "defense/rrs.h"
#include "fault/vuln_model.h"
#include "sim/presets.h"
#include "support/harness.h"

namespace svard::defense {
namespace {

using core::Svard;
using core::UniformThreshold;
using core::VulnProfile;

std::shared_ptr<UniformThreshold>
uniform(double t, uint32_t rows = 64 * 1024)
{
    return std::make_shared<UniformThreshold>(t, rows);
}

TEST(Para, ProbabilityScalesInverselyWithThreshold)
{
    Para para(uniform(1024));
    const double p1k = para.probabilityFor(1024);
    const double p4k = para.probabilityFor(4096);
    const double p64 = para.probabilityFor(64);
    EXPECT_GT(p64, p1k);
    EXPECT_GT(p1k, p4k);
    // p = 1 - target^(1/T)
    EXPECT_NEAR(p1k, 1.0 - std::pow(1e-15, 1.0 / 1024.0), 1e-9);
    EXPECT_LE(p64, 1.0);
}

TEST(Para, RefreshRateMatchesProbability)
{
    auto thr = uniform(512);
    Para para(thr, 3);
    std::vector<PreventiveAction> acts;
    uint64_t refreshes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        acts.clear();
        para.onActivate(0, 1000, 0, acts);
        refreshes += acts.size();
    }
    const double p = para.probabilityFor(512);
    // Two neighbors, each refreshed with probability p.
    EXPECT_NEAR(static_cast<double>(refreshes) / n, 2.0 * p,
                0.05 * 2.0 * p + 0.005);
}

TEST(Para, SvardRefreshesLessThanUniform)
{
    const auto &spec = dram::moduleByLabel("S0");
    auto sa = std::make_shared<dram::SubarrayMap>(spec);
    auto model = std::make_shared<fault::VulnerabilityModel>(spec, sa);
    auto prof =
        std::make_shared<VulnProfile>(VulnProfile::fromModel(*model));
    auto scaled = std::make_shared<VulnProfile>(prof->scaledTo(128.0));

    Para with_svard(std::make_shared<Svard>(scaled), 5);
    Para without(uniform(128.0, spec.rowsPerBank), 5);

    std::vector<PreventiveAction> acts;
    uint64_t svard_ref = 0, uni_ref = 0;
    for (uint32_t row = 100; row < 4100; ++row) {
        acts.clear();
        with_svard.onActivate(1, row, 0, acts);
        svard_ref += acts.size();
        acts.clear();
        without.onActivate(1, row, 0, acts);
        uni_ref += acts.size();
    }
    // Svärd's refresh rate follows the profile's threshold mix; for
    // S0 (roughly half the rows in the weakest bin) the reduction is
    // ~30%. Draw-by-draw, Svärd can never refresh more than uniform.
    EXPECT_LT(svard_ref, uni_ref * 0.85);
}

TEST(CountingBloom, NeverUndercounts)
{
    CountingBloomFilter cbf(256, 3, 42);
    size_t idx[CountingBloomFilter::kMaxHashes];
    cbf.indicesOf(7, idx);
    for (int i = 0; i < 50; ++i)
        cbf.insertAt(idx);
    EXPECT_GE(cbf.estimateAt(idx), 50u);
    cbf.clear();
    EXPECT_EQ(cbf.estimateAt(idx), 0u);
}

TEST(BlockHammer, ThrottlesRapidActivationsToOneRow)
{
    BlockHammer bh(uniform(256));
    std::vector<PreventiveAction> acts;
    uint64_t throttles = 0;
    dram::Tick now = 0;
    for (int i = 0; i < 2000; ++i) {
        acts.clear();
        bh.onActivate(0, 500, now, acts);
        for (const auto &a : acts)
            if (a.kind == PreventiveAction::Kind::Throttle) {
                ++throttles;
                now += a.delay;
            }
        now += 50 * dram::kPsPerNs;
    }
    EXPECT_GT(throttles, 0u);
    EXPECT_TRUE(bh.isBlacklisted(0, 500));
    // A cold row is not blacklisted.
    EXPECT_FALSE(bh.isBlacklisted(0, 40000));
}

TEST(BlockHammer, BenignRowsUnthrottled)
{
    BlockHammer bh(uniform(4096));
    std::vector<PreventiveAction> acts;
    dram::Tick now = 0;
    for (uint32_t row = 0; row < 4000; ++row) {
        acts.clear();
        bh.onActivate(0, row, now, acts);
        EXPECT_TRUE(acts.empty()) << "row " << row;
        now += 50 * dram::kPsPerNs;
    }
}

TEST(Hydra, GroupTrackingAvoidsCounterTrafficForColdRows)
{
    Hydra hydra(uniform(4096));
    std::vector<PreventiveAction> acts;
    for (uint32_t row = 0; row < 2000; row += 7) {
        acts.clear();
        hydra.onActivate(0, row, 0, acts);
        EXPECT_TRUE(acts.empty());
    }
    EXPECT_EQ(hydra.stats().metadataAccesses, 0u);
}

TEST(Hydra, HotGroupFallsBackToPerRowCounters)
{
    Hydra hydra(uniform(256));
    std::vector<PreventiveAction> acts;
    uint64_t refreshes = 0;
    for (int i = 0; i < 600; ++i) {
        acts.clear();
        hydra.onActivate(0, 128, 0, acts);
        for (const auto &a : acts)
            if (a.kind == PreventiveAction::Kind::RefreshRow)
                ++refreshes;
    }
    // The row went per-row: its counter lives in the RCC, whose first
    // access missed.
    EXPECT_GT(hydra.stats().metadataAccesses, 0u);
    EXPECT_GT(refreshes, 0u);
}

TEST(Hydra, RccThrashingGeneratesMetadataTraffic)
{
    Hydra hydra(uniform(64));
    std::vector<PreventiveAction> acts;
    uint64_t metadata = 0;
    // Cycle through more distinct hot rows than the RCC holds, so
    // the RCC keeps missing and evicting.
    constexpr uint32_t kRows = 2 * Hydra::kRccEntries;
    for (int round = 0; round < 3; ++round) {
        for (uint32_t row = 0; row < kRows; ++row) {
            acts.clear();
            hydra.onActivate(0, row, 0, acts);
            for (const auto &a : acts)
                if (a.kind == PreventiveAction::Kind::MetadataAccess)
                    ++metadata;
        }
    }
    EXPECT_GT(metadata, 2u * kRows);
}

TEST(Aqua, MigratesAtHalfThresholdIntoQuarantine)
{
    Aqua aqua(uniform(1024, 64 * 1024));
    std::vector<PreventiveAction> acts;
    uint32_t migrations = 0;
    uint32_t first_dest = 0;
    for (int i = 0; i < 2100; ++i) {
        acts.clear();
        aqua.onActivate(2, 777, 0, acts);
        for (const auto &a : acts)
            if (a.kind == PreventiveAction::Kind::MigrateRow) {
                ++migrations;
                if (migrations == 1)
                    first_dest = a.row2;
                // Quarantine lives at the top 1% of the bank.
                EXPECT_GE(a.row2, 64u * 1024u - 656u);
            }
    }
    EXPECT_EQ(migrations, 4u); // 2100 / 512
    EXPECT_GT(first_dest, 0u);
}

TEST(Rrs, SwapsWithRandomPartner)
{
    Rrs rrs(uniform(512, 64 * 1024));
    std::vector<PreventiveAction> acts;
    uint32_t swaps = 0;
    for (int i = 0; i < 1024; ++i) {
        acts.clear();
        rrs.onActivate(0, 4242, 0, acts);
        for (const auto &a : acts)
            if (a.kind == PreventiveAction::Kind::SwapRows) {
                ++swaps;
                EXPECT_NE(a.row2, 4242u);
                EXPECT_LT(a.row2, 64u * 1024u);
            }
    }
    EXPECT_EQ(swaps, 4u); // every 256 activations
}

TEST(Graphene, RefreshesNeighborsAtHalfBudget)
{
    Graphene g(uniform(128));
    std::vector<PreventiveAction> acts;
    uint64_t refreshes = 0;
    for (int i = 0; i < 128; ++i) {
        acts.clear();
        g.onActivate(0, 100, 0, acts);
        refreshes += acts.size();
    }
    EXPECT_EQ(refreshes, 4u); // two triggers x two neighbors
}

class EpochEndP : public ::testing::TestWithParam<const char *>
{};

TEST_P(EpochEndP, EpochEndResetsCounters)
{
    // Budget 1024: each row-counting defense acts at 512 ACTs, so two
    // epochs of 500 stay silent only if the epoch end clears counts.
    auto d = makeDefenseByName(
        GetParam(), DefenseContext(uniform(1024), 1, /*banks_per_rank=*/16));
    ASSERT_NE(d, nullptr);
    std::vector<PreventiveAction> acts;
    for (int i = 0; i < 500; ++i) {
        acts.clear();
        d->onActivate(0, 10, 0, acts);
        EXPECT_TRUE(acts.empty());
    }
    uint64_t entries = 0, rehashes = 0;
    d->tableStats(&entries, &rehashes);
    EXPECT_EQ(entries, 1u);
    d->onEpochEnd(0);
    d->tableStats(&entries, &rehashes);
    EXPECT_EQ(entries, 0u);
    for (int i = 0; i < 500; ++i) {
        acts.clear();
        d->onActivate(0, 10, 0, acts);
        EXPECT_TRUE(acts.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(Defense, EpochEndP,
                         ::testing::Values("aqua", "graphene", "rrs"));

// ---------------------------------------------------------------
// Defense registry
// ---------------------------------------------------------------

TEST(Registry, EveryRegisteredNameConstructsAndObservesActivations)
{
    const auto names = defenseNames();
    EXPECT_EQ(names,
              (std::vector<std::string>{"aqua", "blockhammer", "graphene",
                                        "hydra", "none", "para", "rrs"}));
    for (const auto &name : names) {
        const DefenseContext ctx(uniform(1024), 3,
                                 /*banks_per_rank=*/16);
        auto d = makeDefenseByName(name, ctx);
        if (name == "none") {
            EXPECT_EQ(d, nullptr);
            continue;
        }
        ASSERT_NE(d, nullptr) << name;
        std::vector<PreventiveAction> acts;
        d->onActivate(0, 100, 0, acts);
        EXPECT_EQ(d->stats().activationsObserved, 1u) << name;
    }
}

TEST(Registry, LookupIsCaseInsensitive)
{
    EXPECT_TRUE(isDefenseName("PARA"));
    EXPECT_TRUE(isDefenseName("BlockHammer"));
    const DefenseContext ctx(uniform(1024), 1,
                             /*banks_per_rank=*/16);
    auto d = makeDefenseByName("Graphene", ctx);
    ASSERT_NE(d, nullptr);
    EXPECT_STREQ(d->name(), "Graphene");
}

TEST(Registry, UnsetBanksPerRankDiesInsteadOfMisfolding)
{
    // The bare DefenseContext constructor no longer defaults to the
    // Table 4 bank count: a context whose geometry was never derived
    // must die in the factory, not silently fold banks mod 16.
    const DefenseContext unset(uniform(1024), 3);
    EXPECT_EQ(unset.banksPerRank, 0u);
    EXPECT_DEATH(makeDefenseByName("para", unset), "banksPerRank");

    // The SimConfig overload derives the count from the geometry.
    sim::SimConfig ddr5 = sim::presets::get("ddr5-4800-32bank");
    const DefenseContext derived(ddr5, uniform(1024), 3);
    EXPECT_EQ(derived.banksPerRank, 32u);
    auto d = makeDefenseByName("para", derived);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->banksPerRank(), 32u);
}

TEST(Registry, UnknownNameThrowsWithKnownNames)
{
    const DefenseContext ctx(uniform(1024), 1,
                             /*banks_per_rank=*/16);
    EXPECT_FALSE(isDefenseName("not-a-defense"));
    try {
        makeDefenseByName("not-a-defense", ctx);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        // The error lists the registered names to aid sweep authors.
        EXPECT_NE(std::string(e.what()).find("para"),
                  std::string::npos);
    }
}

TEST(Registry, ContextGeometryConfiguresBankFolding)
{
    const DefenseContext ctx(uniform(1024), 1, /*banks_per_rank=*/8);
    auto d = makeDefenseByName("para", ctx);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->banksPerRank(), 8u);
}

TEST(Registry, FoldedBanksHitTheRightProfileBank)
{
    // Two-bank profile: bank 0 weak (budget 8), bank 1 strong. With
    // banksPerRank = 2, flat banks 2/3 must fold onto profile banks
    // 0/1 — the seed's hardcoded % 16 would index the profile out of
    // its bank range instead.
    std::vector<uint8_t> bins(2 * 64, 0);
    std::fill(bins.begin() + 64, bins.end(), 1); // bank 1
    auto svard = std::make_shared<Svard>(std::make_shared<VulnProfile>(
        "fold", 2, 64, std::vector<double>{8.0, 4096.0}, std::move(bins)));
    const DefenseContext ctx(svard, 1, /*banks_per_rank=*/2);

    auto weak = makeDefenseByName("graphene", ctx);
    auto strong = makeDefenseByName("graphene", ctx);
    std::vector<PreventiveAction> acts;
    uint64_t weak_ref = 0, strong_ref = 0;
    for (int i = 0; i < 16; ++i) {
        acts.clear();
        weak->onActivate(/*flat bank*/ 2, 30, 0, acts); // -> bank 0
        weak_ref += acts.size();
        acts.clear();
        strong->onActivate(/*flat bank*/ 3, 30, 0, acts); // -> bank 1
        strong_ref += acts.size();
    }
    EXPECT_GT(weak_ref, 0u);    // budget 8: refreshes by 16 ACTs
    EXPECT_EQ(strong_ref, 0u);  // budget 4096: untouched

    // A geometry wider than the profile folds twice: with
    // banksPerRank = 4, flat banks 6/7 are rank banks 2/3, which lie
    // past the profile's two banks and must reach profile banks 0/1.
    const DefenseContext wide(svard, 1, /*banks_per_rank=*/4);
    auto weak4 = makeDefenseByName("graphene", wide);
    auto strong4 = makeDefenseByName("graphene", wide);
    weak_ref = strong_ref = 0;
    for (int i = 0; i < 16; ++i) {
        acts.clear();
        weak4->onActivate(/*flat bank*/ 6, 30, 0, acts); // -> bank 0
        weak_ref += acts.size();
        acts.clear();
        strong4->onActivate(/*flat bank*/ 7, 30, 0, acts); // -> bank 1
        strong_ref += acts.size();
    }
    EXPECT_GT(weak_ref, 0u);
    EXPECT_EQ(strong_ref, 0u);
}

// ---------------------------------------------------------------
// End-to-end security property against the behavioral device
// ---------------------------------------------------------------

struct SecurityRig
{
    explicit SecurityRig(const std::string &label)
        : spec(dram::moduleByLabel(label)),
          subarrays(std::make_shared<dram::SubarrayMap>(spec)),
          model(std::make_shared<fault::VulnerabilityModel>(spec,
                                                            subarrays)),
          device(spec, subarrays, model),
          profile(std::make_shared<VulnProfile>(
              VulnProfile::fromModel(*model)))
    {}

    uint32_t
    weakestVictimLogical(uint32_t bank) const
    {
        return device.mapping().toLogical(model->weakestRow(bank));
    }

    const dram::ModuleSpec &spec;
    std::shared_ptr<dram::SubarrayMap> subarrays;
    std::shared_ptr<fault::VulnerabilityModel> model;
    mutable dram::DramDevice device;
    std::shared_ptr<VulnProfile> profile;
};

TEST(Security, UnprotectedDeviceFlips)
{
    SecurityRig rig("S2"); // min HC_first 12K
    AttackOptions opt;
    opt.victim = rig.weakestVictimLogical(opt.bank);
    opt.refreshWindows = 1;
    const auto res = runDoubleSidedAttack(rig.device, nullptr, opt);
    EXPECT_GT(res.bitflips, 0u);
    EXPECT_GT(res.aggressorActs, 100000u);
}

class SecurityP : public ::testing::TestWithParam<const char *>
{};

TEST_P(SecurityP, DefenseAtProfileThresholdPreventsAllFlips)
{
    SecurityRig rig("S2");
    auto svard = std::make_shared<Svard>(rig.profile);
    auto defense = makeDefenseByName(
        GetParam(), DefenseContext(svard, 7, rig.spec.banks));
    ASSERT_NE(defense, nullptr);
    AttackOptions opt;
    opt.victim = rig.weakestVictimLogical(opt.bank);
    opt.refreshWindows = 2;
    opt.maxActsPerAggressor = 200 * 1024; // > any HC_first, bounded time
    const auto res =
        runDoubleSidedAttack(rig.device, defense.get(), opt);
    EXPECT_EQ(res.bitflips, 0u) << defense->name();
    // The defense actually acted (or throttled) against the attack.
    EXPECT_GT(res.preventiveRefreshes + res.throttleEvents +
                  res.migrations,
              0u)
        << defense->name();
}

INSTANTIATE_TEST_SUITE_P(AllDefenses, SecurityP,
                         ::testing::Values("para", "blockhammer",
                                           "hydra", "aqua", "rrs",
                                           "graphene"));

TEST(Security, MisconfiguredThresholdStillFlips)
{
    // Configure Graphene for a threshold 8x above the true minimum:
    // the weakest row crosses its HC_first before the defense reacts.
    SecurityRig rig("S2");
    auto bad = uniform(8.0 * rig.spec.hcFirstMin, rig.spec.rowsPerBank);
    Graphene g(bad);
    AttackOptions opt;
    opt.victim = rig.weakestVictimLogical(opt.bank);
    opt.refreshWindows = 1;
    const auto res = runDoubleSidedAttack(rig.device, &g, opt);
    EXPECT_GT(res.bitflips, 0u);
}

TEST(Security, RowPressDefeatsActivationCounting)
{
    // Beyond-paper check rooted in RowPress: with a 2us aggressor
    // on-time, far fewer activations deliver the same disturbance, so
    // a pure activation-count defense configured for 36ns hammering
    // lets bitflips through.
    SecurityRig rig("S2");
    auto svard = std::make_shared<Svard>(rig.profile);
    Graphene g(svard);
    AttackOptions opt;
    opt.victim = rig.weakestVictimLogical(opt.bank);
    opt.tAggOn = 2 * dram::kPsPerUs;
    opt.refreshWindows = 1;
    const auto res = runDoubleSidedAttack(rig.device, &g, opt);
    EXPECT_GT(res.bitflips, 0u);
}

TEST(Security, SvardActsLessThanUniformButStaysSafe)
{
    SecurityRig rig_a("S2"), rig_b("S2");
    auto svard = std::make_shared<Svard>(rig_a.profile);
    auto uni = uniform(rig_a.profile->minThreshold(),
                       rig_a.spec.rowsPerBank);

    // Attack a victim in a *strong* bin so Svärd's threshold is higher
    // than the worst case; the profile is keyed by physical rows and
    // the harness takes a logical victim address.
    uint32_t victim = 0;
    for (uint32_t p = 1000; p < 60000; ++p) {
        if (rig_a.profile->thresholdOf(1, p) >
                4.0 * rig_a.profile->minThreshold() &&
            rig_a.subarrays->disturbedNeighbors(p).size() == 2) {
            victim = rig_a.device.mapping().toLogical(p);
            break;
        }
    }
    ASSERT_GT(victim, 0u);

    Graphene with_svard(svard);
    Graphene without(uni);
    AttackOptions opt;
    opt.victim = victim;
    opt.refreshWindows = 1;
    const auto res_svard =
        runDoubleSidedAttack(rig_a.device, &with_svard, opt);
    const auto res_uni =
        runDoubleSidedAttack(rig_b.device, &without, opt);
    EXPECT_EQ(res_svard.bitflips, 0u);
    EXPECT_EQ(res_uni.bitflips, 0u);
    EXPECT_LT(res_svard.preventiveRefreshes * 2,
              res_uni.preventiveRefreshes);
}

} // namespace
} // namespace svard::defense
