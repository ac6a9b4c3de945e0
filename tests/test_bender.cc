/**
 * @file
 * Tests for the DRAM-Bender-style test infrastructure: command timing,
 * Alg. 1's measure_BER semantics, refresh-window bookkeeping, and the
 * temperature controller.
 */
#include <gtest/gtest.h>

#include <memory>

#include "bender/temperature.h"
#include "bender/test_session.h"
#include "dram/device.h"
#include "fault/vuln_model.h"

namespace svard::bender {
namespace {

using dram::kPsPerNs;
using dram::kPsPerUs;

class BenderTest : public ::testing::Test
{
  protected:
    BenderTest()
        : spec_(dram::moduleByLabel("S0")),
          subarrays_(std::make_shared<dram::SubarrayMap>(spec_)),
          model_(std::make_shared<fault::VulnerabilityModel>(spec_,
                                                             subarrays_)),
          device_(spec_, subarrays_, model_),
          session_(device_)
    {}

    /** First logical victim with two aggressors. */
    uint32_t
    victimWithTwoAggressors() const
    {
        for (uint32_t r = 0; r < 8192; ++r)
            if (session_.aggressorRowsOf(r).size() == 2)
                return r;
        return 0;
    }

    const dram::ModuleSpec &spec_;
    std::shared_ptr<dram::SubarrayMap> subarrays_;
    std::shared_ptr<fault::VulnerabilityModel> model_;
    dram::DramDevice device_;
    mutable TestSession session_;
};

TEST_F(BenderTest, ClockAdvancesPerCommand)
{
    const auto t0 = session_.now();
    session_.act(0, 5);
    EXPECT_EQ(session_.now(), t0 + session_.timing().tRCD);
    session_.wait(1000);
    session_.pre(0);
    EXPECT_EQ(session_.now(),
              t0 + session_.timing().tRCD + 1000 + session_.timing().tRP);
}

TEST_F(BenderTest, InitRowWritesPattern)
{
    session_.initRow(1, 42, 0xAA);
    EXPECT_EQ(device_.countMismatchedBits(1, 42, 0xAA), 0u);
    EXPECT_EQ(device_.countMismatchedBits(1, 42, 0x55),
              spec_.rowBytes * 8ull);
}

TEST_F(BenderTest, MeasureBerBelowThresholdIsZero)
{
    const uint32_t victim = victimWithTwoAggressors();
    const auto aggr = session_.aggressorRowsOf(victim);
    const auto m = session_.measureBer(0, victim, aggr,
                                       fault::DataPattern::RowStripe,
                                       1024, 36 * kPsPerNs);
    EXPECT_EQ(m.flippedBits, 0u);  // S0 min HC_first is 32K
    EXPECT_EQ(m.totalBits, spec_.rowBytes * 8ull);
}

TEST_F(BenderTest, MeasureBerAt128KFlipsBits)
{
    const uint32_t victim = victimWithTwoAggressors();
    const auto aggr = session_.aggressorRowsOf(victim);
    const auto m = session_.measureBer(0, victim, aggr,
                                       fault::DataPattern::RowStripe,
                                       128 * 1024, 36 * kPsPerNs);
    EXPECT_GT(m.flippedBits, 0u);
    EXPECT_GT(m.ber(), 0.0);
    EXPECT_LT(m.ber(), 0.1);
}

TEST_F(BenderTest, RowPressLowersEffectiveThreshold)
{
    // At tAggOn = 2us, far fewer hammers suffice (Fig. 7).
    const uint32_t victim = victimWithTwoAggressors();
    const auto aggr = session_.aggressorRowsOf(victim);
    const auto fast = session_.measureBer(0, victim, aggr,
                                          fault::DataPattern::RowStripe,
                                          8 * 1024, 36 * kPsPerNs);
    const auto press = session_.measureBer(0, victim, aggr,
                                           fault::DataPattern::RowStripe,
                                           8 * 1024, 2 * kPsPerUs);
    EXPECT_EQ(fast.flippedBits, 0u);
    EXPECT_GT(press.flippedBits, 0u);
}

TEST_F(BenderTest, WorstCasePatternDominatesMostRows)
{
    // The per-row WCDP should produce BER >= every other pattern's BER
    // for the large majority of rows (severity model sanity).
    int wins = 0, rows_checked = 0;
    for (uint32_t victim = 16; victim < 4096 && rows_checked < 12;
         victim += 257) {
        const auto aggr = session_.aggressorRowsOf(victim);
        if (aggr.size() != 2)
            continue;
        ++rows_checked;
        uint64_t best_flips = 0;
        for (auto dp : fault::allDataPatterns) {
            const auto m = session_.measureBer(0, victim, aggr, dp,
                                               128 * 1024, 36 * kPsPerNs);
            best_flips = std::max(best_flips, m.flippedBits);
        }
        // Re-measure with RS and RSI; one of the stripes should be at
        // or near the per-row maximum for most rows.
        uint64_t stripe_best = 0;
        for (auto dp : {fault::DataPattern::RowStripe,
                        fault::DataPattern::RowStripeInv}) {
            const auto m = session_.measureBer(0, victim, aggr, dp,
                                               128 * 1024, 36 * kPsPerNs);
            stripe_best = std::max(stripe_best, m.flippedBits);
        }
        if (stripe_best * 10 >= best_flips * 8)
            ++wins;
    }
    EXPECT_GE(wins * 10, rows_checked * 7);
}

TEST_F(BenderTest, HammerTimeFitsRefreshWindowAtMinOnTime)
{
    const uint32_t victim = victimWithTwoAggressors();
    const auto aggr = session_.aggressorRowsOf(victim);
    session_.resetClock();
    for (uint32_t a : aggr)
        session_.hammerSingleSided(0, a, 128 * 1024, 36 * kPsPerNs);
    EXPECT_FALSE(session_.refreshWindowExceeded());
    EXPECT_EQ(session_.overruns(), 0u);
}

TEST_F(BenderTest, LongPressOverrunsRefreshWindowAndIsCounted)
{
    const uint32_t victim = victimWithTwoAggressors();
    const auto aggr = session_.aggressorRowsOf(victim);
    session_.resetClock();
    for (uint32_t a : aggr)
        session_.hammerSingleSided(0, a, 128 * 1024, 2 * kPsPerUs);
    EXPECT_TRUE(session_.refreshWindowExceeded());
    EXPECT_EQ(session_.overruns(), 1u);
}

TEST_F(BenderTest, AggressorRowsAreLogicalAddressesOfPhysicalNeighbors)
{
    for (uint32_t r = 100; r < 130; ++r) {
        const uint32_t phys = device_.mapping().toPhysical(r);
        const auto neigh = subarrays_->disturbedNeighbors(phys);
        const auto aggr = session_.aggressorRowsOf(r);
        ASSERT_EQ(aggr.size(), neigh.size());
        for (size_t i = 0; i < aggr.size(); ++i)
            EXPECT_EQ(device_.mapping().toPhysical(aggr[i]), neigh[i]);
    }
}

TEST(Temperature, SettlesWithinHalfDegree)
{
    TemperatureController ctl(80.0);
    ctl.settle();
    EXPECT_TRUE(ctl.stable());
    EXPECT_NEAR(ctl.temperature(), 80.0, 0.5);
}

TEST(Temperature, HoldsTargetOverTime)
{
    TemperatureController ctl(80.0);
    ctl.settle();
    double min_t = 1e9, max_t = -1e9;
    for (int i = 0; i < 2000; ++i) {
        ctl.step(0.25);
        min_t = std::min(min_t, ctl.temperature());
        max_t = std::max(max_t, ctl.temperature());
    }
    // Paper footnote 4: variation within 0.5 C at 80 C.
    EXPECT_NEAR(max_t - min_t, 0.0, 1.0);
    EXPECT_NEAR((max_t + min_t) / 2.0, 80.0, 0.5);
}

TEST(Temperature, RetargetsAfterSetpointChange)
{
    TemperatureController ctl(50.0);
    ctl.settle();
    EXPECT_NEAR(ctl.temperature(), 50.0, 0.5);
    ctl.setTarget(80.0);
    ctl.settle();
    EXPECT_NEAR(ctl.temperature(), 80.0, 0.5);
}

TEST(Temperature, HoldsHalfDegreePrecisionAcrossSeeds)
{
    // Paper Sec. 4.1 / footnote 4: the rig holds the chips within
    // +-0.5 C of the target. Pin that across noise seeds, not just
    // the default one.
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        TemperatureController ctl(80.0, 25.0, seed);
        ctl.settle();
        ASSERT_TRUE(ctl.stable()) << "seed " << seed;
        double min_t = 1e9, max_t = -1e9;
        for (int i = 0; i < 2000; ++i) {
            ctl.step(0.25);
            min_t = std::min(min_t, ctl.temperature());
            max_t = std::max(max_t, ctl.temperature());
        }
        EXPECT_NEAR((max_t + min_t) / 2.0, 80.0, 0.5)
            << "seed " << seed;
        EXPECT_LT(max_t - min_t, 1.0) << "seed " << seed;
    }
}

TEST(Temperature, DownwardRetargetDoesNotUndershoot)
{
    // A setpoint drop turns the heater off for the whole cooldown.
    // Without anti-windup the integral pegs at its negative clamp
    // during that stretch and the plant undershoots the new target by
    // several degrees before the heater re-engages; with conditional
    // integration the undershoot stays within the hold precision.
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        TemperatureController ctl(80.0, 25.0, seed);
        ctl.settle();
        ASSERT_TRUE(ctl.stable()) << "seed " << seed;
        ctl.setTarget(50.0);
        double min_t = 1e9;
        for (int i = 0; i < 4000; ++i) {
            ctl.step(0.25);
            min_t = std::min(min_t, ctl.temperature());
        }
        EXPECT_TRUE(ctl.stable()) << "seed " << seed;
        EXPECT_GT(min_t, 50.0 - 1.0) << "seed " << seed;
    }
}

TEST(Temperature, UpwardRetargetConvergesWithoutDerivativeKick)
{
    // setTarget() re-bases prevErr_: the first step after a retarget
    // must not see the setpoint jump as a derivative spike. The
    // observable contract is monotone-ish approach and convergence
    // well inside the settle budget.
    TemperatureController ctl(50.0, 25.0, 3);
    ctl.settle();
    ctl.setTarget(80.0);
    int steps_to_stable = -1;
    for (int i = 0; i < 4000; ++i) {
        ctl.step(0.25);
        if (steps_to_stable < 0 && ctl.stable())
            steps_to_stable = i + 1;
    }
    ASSERT_GE(steps_to_stable, 0);
    EXPECT_LT(steps_to_stable, 2000);
    EXPECT_NEAR(ctl.temperature(), 80.0, 0.5);
}

} // namespace
} // namespace svard::bender
