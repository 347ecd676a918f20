/**
 * @file
 * Tests for the dynamic goal-prioritization weights (Sec. III-C,
 * Eqs. 3-6): bounds, long-term equalization, and the prioritization
 * response.
 */

#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/common/rng.hpp"
#include "satori/core/weights.hpp"

namespace satori {
namespace core {
namespace {

TEST(WeightsTest, StartsNeutral)
{
    WeightController wc;
    const auto w = wc.update(0.5, 0.9);
    EXPECT_NEAR(w.w_t, 0.5, 1e-9);
    EXPECT_NEAR(w.w_f, 0.5, 1e-9);
}

TEST(WeightsTest, WeightsAlwaysSumToOne)
{
    WeightController wc;
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const auto w = wc.update(rng.uniform(), rng.uniform());
        EXPECT_NEAR(w.w_t + w.w_f, 1.0, 1e-12);
    }
}

/** Property: bounds hold under arbitrary goal trajectories. */
class WeightBoundsProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(WeightBoundsProperty, BoundedByQuarterAndThreeQuarters)
{
    WeightController wc;
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int i = 0; i < 1000; ++i) {
        const auto w = wc.update(rng.uniform(0.1, 0.9),
                                 rng.uniform(0.1, 0.9));
        EXPECT_GE(w.w_t, 0.25);
        EXPECT_LE(w.w_t, 0.75);
        EXPECT_GE(w.w_f, 0.25);
        EXPECT_LE(w.w_f, 0.75);
        EXPECT_GE(w.w_tp, 0.25 - 1e-12);
        EXPECT_LE(w.w_tp, 0.75 + 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightBoundsProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(WeightsTest, MeanWeightIsHalfOverEqualizationPeriod)
{
    WeightController wc;
    Rng rng(9);
    // Run several full equalization periods with erratic goals and
    // verify the controller reports a ~0.5 mean each period.
    for (int period = 0; period < 5; ++period) {
        for (int i = 0; i < 100; ++i)
            wc.update(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8));
        EXPECT_NEAR(wc.lastEqualizationMeanWt(), 0.5, 0.06)
            << "period " << period;
    }
}

TEST(WeightsTest, EqualizationBoundaryFlagFires)
{
    WeightController wc;
    int boundaries = 0;
    for (int i = 0; i < 300; ++i)
        boundaries += wc.update(0.5, 0.5).equalization_boundary;
    EXPECT_EQ(boundaries, 3); // 300 iterations / 100 per T_E
}

TEST(WeightsTest, PrioritizationBoundaryEveryTenIterations)
{
    WeightController wc;
    int boundaries = 0;
    for (int i = 0; i < 100; ++i)
        boundaries += wc.update(0.5, 0.5).prioritization_boundary;
    EXPECT_EQ(boundaries, 10);
}

TEST(WeightsTest, FairnessImprovementShiftsPriorityToThroughput)
{
    // Eq. 4: if fairness improved during the last period, throughput
    // gets the next opportunity (higher W_TP).
    WeightController wc;
    // Fairness rises sharply within the first prioritization period;
    // throughput is flat.
    WeightComponents w;
    for (int i = 0; i < 11; ++i)
        w = wc.update(0.5, 0.5 + 0.03 * i);
    EXPECT_GT(w.w_tp, 0.5);
    EXPECT_LT(w.w_fp, 0.5);
}

TEST(WeightsTest, ThroughputImprovementShiftsPriorityToFairness)
{
    WeightController wc;
    WeightComponents w;
    for (int i = 0; i < 11; ++i)
        w = wc.update(0.4 + 0.03 * i, 0.9);
    EXPECT_GT(w.w_fp, 0.5);
    EXPECT_LT(w.w_tp, 0.5);
}

TEST(WeightsTest, FavorStrongerAlternativeFlipsEq4)
{
    WeightOptions o;
    o.favor_weaker_goal = false; // the ~5%-worse design alternative
    WeightController wc(o);
    WeightComponents w;
    for (int i = 0; i < 11; ++i)
        w = wc.update(0.5, 0.5 + 0.03 * i);
    // Fairness performed well and keeps being favored.
    EXPECT_GT(w.w_fp, 0.5);
}

TEST(WeightsTest, FlatGoalsKeepNeutralPriorities)
{
    WeightController wc;
    WeightComponents w;
    for (int i = 0; i < 50; ++i)
        w = wc.update(0.6, 0.8);
    EXPECT_NEAR(w.w_tp, 0.5, 1e-9);
    EXPECT_NEAR(w.w_fp, 0.5, 1e-9);
    EXPECT_NEAR(w.w_t, 0.5, 0.02);
}

TEST(WeightsTest, EqualizationComponentCountersImbalance)
{
    // Force throughput-heavy weights early in the period, then check
    // the equalization component pushes back below 0.5.
    WeightController wc;
    WeightComponents w;
    // Throughput keeps being prioritized because fairness improves.
    for (int i = 0; i < 60; ++i)
        w = wc.update(0.5, 0.4 + 0.005 * i);
    // Blend factor has grown; equalization fairness weight must now
    // exceed the throughput one if throughput was favored so far.
    if (w.w_t > 0.5) {
        EXPECT_LT(w.w_te, 0.5);
    }
}

TEST(WeightsTest, ResetPeriodsForgetsHistory)
{
    WeightController wc;
    for (int i = 0; i < 55; ++i)
        wc.update(0.3, 0.9);
    wc.resetPeriods();
    const auto w = wc.update(0.5, 0.5);
    EXPECT_NEAR(w.w_t, 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(w.blend, 0.0);
}

TEST(WeightsTest, InvalidOptionsRejected)
{
    WeightOptions bad;
    bad.prioritization_period = 0.01; // below dt
    EXPECT_THROW(WeightController{bad}, PanicError);
    WeightOptions bad2;
    bad2.equalization_period = 0.5; // below T_P
    EXPECT_THROW(WeightController{bad2}, PanicError);
}

} // namespace
} // namespace core
} // namespace satori
