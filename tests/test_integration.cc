/**
 * @file
 * Cross-module integration tests: the full pipelines a user of this
 * library runs end to end — characterize a module, build a measured
 * profile, defend with it, attack the device — parameterized over
 * modules and defenses, plus consistency checks between the oracle
 * (fromModel) and measured (buildProfile) profiles.
 */
#include <gtest/gtest.h>

#include <memory>

#include "charz/characterizer.h"
#include "defense/registry.h"
#include "fault/vuln_model.h"
#include "support/harness.h"

namespace svard {
namespace {

struct Pipeline
{
    explicit Pipeline(const std::string &label)
        : spec(dram::moduleByLabel(label)),
          subarrays(std::make_shared<dram::SubarrayMap>(spec)),
          model(std::make_shared<fault::VulnerabilityModel>(spec,
                                                            subarrays))
    {}

    const dram::ModuleSpec &spec;
    std::shared_ptr<dram::SubarrayMap> subarrays;
    std::shared_ptr<fault::VulnerabilityModel> model;
};

/** Measured-profile pipeline across all three manufacturers. */
class MeasuredProfileP : public ::testing::TestWithParam<const char *>
{};

TEST_P(MeasuredProfileP, MeasuredProfileDefendsTheDevice)
{
    Pipeline p(GetParam());

    // 1. Characterize a sampled bank (as a deployment would).
    dram::DramDevice charz_dev(p.spec, p.subarrays, p.model);
    charz::Characterizer charz(charz_dev);
    charz::CharzOptions opt;
    opt.rowStep = 257; // prime: no subarray aliasing
    opt.quickWcdp = true;
    opt.banks = {1};
    opt.extraRows = {charz_dev.mapping().toLogical(
        p.model->weakestRow(1))};
    const auto results = charz.characterizeModule(opt);

    // 2. Build the measured Svärd profile.
    auto prof = std::make_shared<core::VulnProfile>(
        charz::buildProfile(p.spec, results));
    EXPECT_LE(prof->minThreshold(),
              static_cast<double>(p.spec.hcFirstMin));

    // 3. Defend a fresh device with it and attack the weakest row.
    dram::DramDevice victim_dev(p.spec, p.subarrays, p.model);
    auto g = defense::makeDefenseByName(
        "graphene",
        defense::DefenseContext(std::make_shared<core::Svard>(prof),
                                1, p.spec.banks));
    defense::AttackOptions attack;
    attack.victim =
        victim_dev.mapping().toLogical(p.model->weakestRow(attack.bank));
    attack.refreshWindows = 1;
    attack.maxActsPerAggressor = 200 * 1024;
    const auto res =
        defense::runDoubleSidedAttack(victim_dev, g.get(), attack);
    EXPECT_EQ(res.bitflips, 0u) << GetParam();
    EXPECT_GT(res.preventiveRefreshes, 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Manufacturers, MeasuredProfileP,
                         ::testing::Values("H4", "M0", "S2"));

TEST(ProfileConsistency, MeasuredBinsNeverBelowOracleByMoreThanNoise)
{
    // The measured profile (quantization noise pushes HC_first up,
    // never down) must never assign a row a *higher* bin than what
    // quantized ground truth allows plus one step of WCDP noise.
    Pipeline p("S2");
    dram::DramDevice dev(p.spec, p.subarrays, p.model);
    charz::Characterizer charz(dev);
    charz::CharzOptions opt;
    opt.rowStep = 257;
    opt.quickWcdp = true;
    opt.banks = {1};
    const auto results = charz.characterizeModule(opt);
    const auto measured = charz::buildProfile(p.spec, results);
    const auto oracle = core::VulnProfile::fromModel(*p.model);

    const auto &labels = dram::testedHammerCounts();
    for (const auto &r : results) {
        // Subarray-edge victims measure ~2x (disturbed from one side
        // only, while thresholds count activation pairs) — a real,
        // safe property of measured profiles, outside this check.
        if (r.numAggressors < 2)
            continue;
        const double m_thr = measured.thresholdOf(1, r.physRow);
        const double o_thr = oracle.thresholdOf(1, r.physRow);
        // Measured can overshoot by at most one tested count (quick
        // WCDP) and can never be *less safe* than... the oracle bound
        // shifted one label up.
        size_t o_idx = 0;
        for (size_t i = 0; i < labels.size(); ++i)
            if (static_cast<double>(labels[i]) <= o_thr)
                o_idx = i;
        const double allowed =
            static_cast<double>(labels[std::min(o_idx + 2,
                                                labels.size() - 1)]);
        EXPECT_LE(m_thr, allowed) << "row " << r.physRow;
    }
}

TEST(ProfileConsistency, ResampleThenScaleEqualsScaleThenResample)
{
    Pipeline p("S0");
    const auto prof = core::VulnProfile::fromModel(*p.model);
    const auto a = prof.resampledTo(16, 128 * 1024).scaledTo(64.0);
    const auto b = prof.scaledTo(64.0).resampledTo(16, 128 * 1024);
    EXPECT_DOUBLE_EQ(a.minThreshold(), b.minThreshold());
    for (uint32_t r = 0; r < 4096; r += 17)
        EXPECT_DOUBLE_EQ(a.thresholdOf(3, r), b.thresholdOf(3, r));
}

TEST(ProfileConsistency, ResampledPreservesOccupancyMix)
{
    Pipeline p("M0");
    const auto prof = core::VulnProfile::fromModel(*p.model);
    const auto res = prof.resampledTo(16, 128 * 1024);
    const auto occ_a = prof.binOccupancy();
    const auto occ_b = res.binOccupancy();
    for (size_t i = 0; i < occ_a.size(); ++i)
        EXPECT_NEAR(occ_a[i], occ_b[i], 0.02) << "bin " << i;
}

TEST(AgedProfile, FreshProfileIsUnsafeAfterAgingWeakRowsNeedUpdate)
{
    // Obsv. 12's deployment implication: a profile characterized
    // before aging can under-protect rows whose HC_first degraded.
    // Find such a row and show the fresh profile's bound now exceeds
    // the aged truth for at least one row — the paper's case for
    // periodic online re-characterization.
    const auto &spec = dram::moduleByLabel("H3");
    auto sa = std::make_shared<dram::SubarrayMap>(spec);
    fault::VulnerabilityModel fresh(spec, sa, false);
    fault::VulnerabilityModel aged(spec, sa, true);
    const auto prof = core::VulnProfile::fromModel(fresh);

    bool found_unsafe = false;
    for (uint32_t r = 0; r < spec.rowsPerBank && !found_unsafe; ++r) {
        if (aged.hcFirst(1, r) < fresh.hcFirst(1, r) &&
            prof.thresholdOf(1, r) >= aged.hcFirst(1, r))
            found_unsafe = true;
    }
    EXPECT_TRUE(found_unsafe);

    // Re-characterizing (profile from the aged model) restores safety.
    const auto updated = core::VulnProfile::fromModel(aged);
    for (uint32_t r = 0; r < 32768; r += 3)
        EXPECT_LT(updated.thresholdOf(1, r), aged.hcFirst(1, r));
}

TEST(DeterminismAcrossRuns, FullPipelineIsBitReproducible)
{
    auto run = [] {
        Pipeline p("S3");
        dram::DramDevice dev(p.spec, p.subarrays, p.model);
        charz::Characterizer charz(dev);
        charz::CharzOptions opt;
        opt.rowStep = 1021;
        opt.quickWcdp = true;
        opt.banks = {1};
        uint64_t acc = 0;
        for (const auto &r : charz.characterizeModule(opt))
            acc = acc * 1000003 + static_cast<uint64_t>(r.hcFirst) +
                  static_cast<uint64_t>(r.ber128k * 1e9);
        return acc;
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace svard
