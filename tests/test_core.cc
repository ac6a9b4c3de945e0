/**
 * @file
 * Tests for the Svärd core: vulnerability profiles (binning, safety of
 * bin bounds, scaling) and the threshold providers defenses consume.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "core/svard.h"
#include "core/vuln_profile.h"
#include "dram/rowmap.h"

namespace svard::core {
namespace {

std::shared_ptr<fault::VulnerabilityModel>
makeModel(const std::string &label)
{
    const auto &spec = dram::moduleByLabel(label);
    auto map = std::make_shared<dram::SubarrayMap>(spec);
    return std::make_shared<fault::VulnerabilityModel>(spec, map);
}

TEST(VulnProfile, BinBoundIsSafeLowerBoundOfTrueHcFirst)
{
    auto model = makeModel("S0");
    const auto prof = VulnProfile::fromModel(*model);
    // Profile and model both speak physical rows.
    for (uint32_t bank : {0u, 2u}) {
        for (uint32_t row = 0; row < 8192; row += 5) {
            const double bound = prof.thresholdOf(bank, row);
            const double truth = model->hcFirst(bank, row);
            EXPECT_LT(bound, truth)
                << "bank " << bank << " row " << row;
        }
    }
}

TEST(VulnProfile, MinThresholdBelowModuleMinimum)
{
    for (const char *label : {"H1", "M0", "S0"}) {
        auto model = makeModel(label);
        const auto prof = VulnProfile::fromModel(*model);
        EXPECT_LT(prof.minThreshold(), model->spec().hcFirstMin)
            << label;
        EXPECT_GT(prof.maxThreshold(), prof.minThreshold()) << label;
    }
}

TEST(VulnProfile, OccupancySumsToOne)
{
    auto model = makeModel("M0");
    const auto prof = VulnProfile::fromModel(*model);
    double sum = 0.0;
    for (double f : prof.binOccupancy())
        sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(VulnProfile, StrongModuleProfileSkewsToStrongBins)
{
    // M3 (min 56K) should concentrate rows in high bins; M0 (min 8K,
    // max 40K) in lower ones.
    auto m3 = makeModel("M3");
    const auto p3 = VulnProfile::fromModel(*m3);
    const auto occ3 = p3.binOccupancy();
    double weak_mass = 0.0;
    for (uint32_t b = 0; b < p3.numBins(); ++b)
        if (p3.binBounds()[b] < 40.0 * 1024.0)
            weak_mass += occ3[b];
    EXPECT_LT(weak_mass, 0.05);
}

class BinCountP : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(BinCountP, MergingBinsStaysSafeAndFits)
{
    auto model = makeModel("H0");
    const auto prof = VulnProfile::fromModel(*model, GetParam());
    EXPECT_LE(prof.numBins(), GetParam());
    for (uint32_t row = 0; row < 4096; row += 7) {
        EXPECT_LT(prof.thresholdOf(0, row), model->hcFirst(0, row));
    }
    // Fewer bins -> coarser (never higher) per-row thresholds.
    const auto fine = VulnProfile::fromModel(*model, 14);
    for (uint32_t row = 0; row < 4096; row += 7)
        EXPECT_LE(prof.thresholdOf(0, row), fine.thresholdOf(0, row));
}

INSTANTIATE_TEST_SUITE_P(BinCounts, BinCountP,
                         ::testing::Values(2u, 4u, 8u, 14u, 16u));

TEST(VulnProfile, ScaledToPreservesShape)
{
    auto model = makeModel("S0");
    const auto prof = VulnProfile::fromModel(*model);
    const auto scaled = prof.scaledTo(64.0);
    EXPECT_DOUBLE_EQ(scaled.minThreshold(), 64.0);
    const double factor = 64.0 / prof.minThreshold();
    for (uint32_t b = 0; b < prof.numBins(); ++b)
        EXPECT_NEAR(scaled.binBounds()[b],
                    prof.binBounds()[b] * factor, 1e-9);
    // Bin assignments unchanged.
    for (uint32_t row = 0; row < 2048; ++row)
        EXPECT_EQ(scaled.binOf(0, row), prof.binOf(0, row));
}

TEST(VulnProfile, ScaledCopyNeedsNoSettlingBeforeSharing)
{
    // A scaled profile is read by many concurrently running cells; with
    // no prior call, every thread must see the serial answers (the
    // TSan CI job runs this test).
    auto model = makeModel("S0");
    const auto scaled = std::make_shared<const VulnProfile>(
        VulnProfile::fromModel(*model).scaledTo(64.0));
    constexpr size_t kReaders = 8;
    std::vector<std::array<double, 3>> seen(kReaders);
    parallelFor(kReaders, 4, [&](size_t i) {
        const uint32_t row = static_cast<uint32_t>(i * 4099);
        seen[i] = {scaled->minThreshold(), scaled->maxThreshold(),
                   scaled->thresholdOf(static_cast<uint32_t>(i), row)};
    });
    for (size_t i = 0; i < kReaders; ++i) {
        const uint32_t row = static_cast<uint32_t>(i * 4099);
        EXPECT_EQ(seen[i][0], scaled->minThreshold()) << i;
        EXPECT_EQ(seen[i][1], scaled->maxThreshold()) << i;
        EXPECT_EQ(seen[i][2],
                  scaled->thresholdOf(static_cast<uint32_t>(i), row))
            << i;
    }
    EXPECT_DOUBLE_EQ(scaled->minThreshold(), 64.0);
}

TEST(VulnProfile, MetadataBitsMatchesFourBitsPerRow)
{
    auto model = makeModel("S0"); // 16 banks x 64K rows
    const auto prof = VulnProfile::fromModel(*model, 14);
    // 14 bins -> 4 bits per row.
    EXPECT_EQ(prof.metadataBits(),
              4ull * 16ull * 64ull * 1024ull);
}

TEST(Svard, LookupMatchesProfile)
{
    auto model = makeModel("M0");
    auto prof = std::make_shared<VulnProfile>(
        VulnProfile::fromModel(*model));
    Svard svard(prof);
    EXPECT_DOUBLE_EQ(svard.victimThreshold(3, 77),
                     prof->thresholdOf(3, 77));
    EXPECT_DOUBLE_EQ(svard.worstCase(), prof->minThreshold());
}

TEST(Svard, AggressorBudgetIsMinOfNeighbors)
{
    auto model = makeModel("S0");
    auto prof = std::make_shared<VulnProfile>(
        VulnProfile::fromModel(*model));
    Svard svard(prof);
    for (uint32_t row = 1; row < 1000; row += 13) {
        const double budget = svard.aggressorBudget(0, row);
        const double lo = prof->thresholdOf(0, row - 1);
        const double hi = prof->thresholdOf(0, row + 1);
        EXPECT_DOUBLE_EQ(budget, std::min(lo, hi));
    }
}

TEST(Svard, EdgeRowBudgetUsesSingleNeighbor)
{
    auto model = makeModel("S0");
    auto prof = std::make_shared<VulnProfile>(
        VulnProfile::fromModel(*model));
    Svard svard(prof);
    EXPECT_DOUBLE_EQ(svard.aggressorBudget(0, 0),
                     prof->thresholdOf(0, 1));
    const uint32_t last = prof->rowsPerBank() - 1;
    EXPECT_DOUBLE_EQ(svard.aggressorBudget(0, last),
                     prof->thresholdOf(0, last - 1));
}

TEST(ThresholdProvider, AggressorBudgetClampsAtBothArrayEdges)
{
    // Hand-built profile so every neighbor has a distinct threshold:
    // a wraparound or out-of-bounds neighbor lookup at either edge
    // would change the budget observably.
    // Rows 0..7 -> thresholds 10, 1000, 100, 1000, 10, 10, 100, 10.
    Svard svard(std::make_shared<VulnProfile>(
        "edges", 1, 8, std::vector<double>{10.0, 100.0, 1000.0},
        std::vector<uint8_t>{0, 2, 1, 2, 0, 0, 1, 0}));

    // Row 0 disturbs only row 1 (no row "-1" to consult).
    EXPECT_DOUBLE_EQ(svard.aggressorBudget(0, 0), 1000.0);
    // The last row disturbs only rowsPerBank-2.
    EXPECT_DOUBLE_EQ(svard.aggressorBudget(0, 7), 100.0);
    // Interior rows take the weaker of both neighbors.
    EXPECT_DOUBLE_EQ(svard.aggressorBudget(0, 1), 10.0);
    EXPECT_DOUBLE_EQ(svard.aggressorBudget(0, 2), 1000.0);
}

TEST(ThresholdProvider, ProviderBankCountsExposeProfileGeometry)
{
    Svard svard(std::make_shared<VulnProfile>(
        "geom", 4, 16, std::vector<double>{32.0},
        std::vector<uint8_t>(4 * 16, 0)));
    EXPECT_EQ(svard.banks(), 4u);
    // Uniform providers are bank-agnostic (0 = unconstrained).
    UniformThreshold uni(64.0, 16);
    EXPECT_EQ(uni.banks(), 0u);
}

TEST(UniformThreshold, IsTheNoSvardBaseline)
{
    UniformThreshold uni(4096.0, 65536);
    EXPECT_DOUBLE_EQ(uni.victimThreshold(0, 0), 4096.0);
    EXPECT_DOUBLE_EQ(uni.victimThreshold(15, 65535), 4096.0);
    EXPECT_DOUBLE_EQ(uni.aggressorBudget(7, 1234), 4096.0);
    EXPECT_DOUBLE_EQ(uni.worstCase(), 4096.0);
}

TEST(Svard, SvardNeverBelowNoSvardBaseline)
{
    // The whole point: Svärd thresholds are >= the worst-case uniform
    // threshold everywhere, so defenses act no more aggressively than
    // the baseline on any row.
    auto model = makeModel("H1");
    auto prof = std::make_shared<VulnProfile>(
        VulnProfile::fromModel(*model));
    Svard svard(prof);
    UniformThreshold uni(prof->minThreshold(), prof->rowsPerBank());
    for (uint32_t row = 0; row < 4096; ++row)
        EXPECT_GE(svard.victimThreshold(0, row),
                  uni.victimThreshold(0, row));
}

} // namespace
} // namespace svard::core
