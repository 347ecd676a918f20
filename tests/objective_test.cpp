/**
 * @file
 * Tests for the configurable multi-goal objective (Sec. III-B, Eq. 2)
 * and the per-goal record keeping that supports dynamic reweighting.
 */

#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/config/enumeration.hpp"
#include "satori/core/goal_record.hpp"
#include "satori/core/objective.hpp"

namespace satori {
namespace core {
namespace {

sim::IntervalObservation
observation()
{
    sim::IntervalObservation obs;
    obs.ips = {2.0, 1.0};
    obs.isolation_ips = {4.0, 4.0};
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    obs.config = Configuration::equalPartition(p, 2);
    return obs;
}

TEST(ObjectiveTest, GoalValuesAreNormalized)
{
    const ObjectiveSpec spec;
    const auto goals = spec.goalValues(observation());
    ASSERT_EQ(goals.size(), 2u);
    for (double g : goals) {
        EXPECT_GE(g, 0.0);
        EXPECT_LE(g, 1.0);
    }
    // Speedups 0.5 and 0.25: throughput = 0.75/2 / iso... = 3/8 scaled.
    EXPECT_GT(goals[0], 0.0);
    // Jain of {0.5, 0.25}.
    EXPECT_NEAR(goals[1], jainFairnessIndex({0.5, 0.25}), 1e-12);
}

TEST(ObjectiveTest, WeightVectorSumsToOne)
{
    const ObjectiveSpec spec;
    const auto w = spec.weightVector(0.7, 0.3);
    ASSERT_EQ(w.size(), 2u);
    EXPECT_NEAR(w[0] + w[1], 1.0, 1e-12);
    EXPECT_NEAR(w[0], 0.7, 1e-12);
}

TEST(ObjectiveTest, CombineIsDotProduct)
{
    EXPECT_DOUBLE_EQ(ObjectiveSpec::combine({0.5, 0.5}, {0.4, 0.8}),
                     0.6);
}

TEST(ObjectiveTest, ExtraGoalGetsFixedShare)
{
    ExtraGoal energy;
    energy.name = "energy";
    energy.weight_share = 0.2;
    energy.evaluator = [](const sim::IntervalObservation&) {
        return 0.9;
    };
    const ObjectiveSpec spec(ThroughputMetric::SumIps,
                             FairnessMetric::JainIndex, {energy});
    EXPECT_EQ(spec.numGoals(), 3u);
    const auto goals = spec.goalValues(observation());
    ASSERT_EQ(goals.size(), 3u);
    EXPECT_DOUBLE_EQ(goals[2], 0.9);
    const auto w = spec.weightVector(0.5, 0.5);
    EXPECT_NEAR(w[0] + w[1] + w[2], 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(w[2], 0.2);
    EXPECT_DOUBLE_EQ(w[0], 0.4); // 0.5 * (1 - 0.2)
}

TEST(ObjectiveTest, ExtraGoalValueIsClamped)
{
    ExtraGoal weird;
    weird.name = "weird";
    weird.weight_share = 0.1;
    weird.evaluator = [](const sim::IntervalObservation&) {
        return 3.7; // out of range
    };
    const ObjectiveSpec spec(ThroughputMetric::SumIps,
                             FairnessMetric::JainIndex, {weird});
    EXPECT_DOUBLE_EQ(spec.goalValues(observation())[2], 1.0);
}

TEST(ObjectiveTest, InvalidExtraGoalsRejected)
{
    ExtraGoal no_eval;
    no_eval.name = "broken";
    no_eval.weight_share = 0.2;
    EXPECT_THROW(ObjectiveSpec(ThroughputMetric::SumIps,
                               FairnessMetric::JainIndex, {no_eval}),
                 FatalError);

    ExtraGoal too_heavy;
    too_heavy.name = "heavy";
    too_heavy.weight_share = 1.5;
    too_heavy.evaluator = [](const sim::IntervalObservation&) {
        return 0.5;
    };
    EXPECT_THROW(ObjectiveSpec(ThroughputMetric::SumIps,
                               FairnessMetric::JainIndex, {too_heavy}),
                 FatalError);
}

Configuration
configOf(int a, int b)
{
    return Configuration({{a, b}});
}

TEST(GoalRecorderTest, StoresAndCombines)
{
    GoalRecorder rec(2, 10);
    rec.add(configOf(2, 2), {0.4, 0.8});
    rec.add(configOf(3, 1), {0.6, 0.2});
    ASSERT_EQ(rec.size(), 2u);
    const auto y = rec.combined({0.5, 0.5});
    EXPECT_NEAR(y[0], 0.6, 1e-12);
    EXPECT_NEAR(y[1], 0.4, 1e-12);
    // Re-weighting without re-sampling (the Sec. III-B mechanism).
    const auto y2 = rec.combined({1.0, 0.0});
    EXPECT_NEAR(y2[0], 0.4, 1e-12);
    EXPECT_NEAR(y2[1], 0.6, 1e-12);
}

TEST(GoalRecorderTest, WindowEvictsOldest)
{
    GoalRecorder rec(1, 3);
    for (int i = 0; i < 5; ++i)
        rec.add(configOf(1 + i % 2, 3 - i % 2), {0.1 * i});
    EXPECT_EQ(rec.size(), 3u);
    // Oldest remaining sample is i = 2.
    EXPECT_NEAR(rec.sample(0).goals[0], 0.2, 1e-12);
}

TEST(GoalRecorderTest, InputsMatchNormalizedVectors)
{
    GoalRecorder rec(1, 10);
    const Configuration c = configOf(3, 1);
    rec.add(c, {0.5});
    EXPECT_EQ(rec.inputs().front(), c.normalizedVector());
}

TEST(GoalRecorderTest, BestByAverageSmoothsNoise)
{
    GoalRecorder rec(1, 50);
    // Config A: consistently good (0.8). Config B: one lucky 0.95
    // among poor samples.
    for (int i = 0; i < 5; ++i)
        rec.add(configOf(2, 2), {0.8});
    rec.add(configOf(3, 1), {0.95});
    for (int i = 0; i < 4; ++i)
        rec.add(configOf(3, 1), {0.3});
    const std::size_t idx = rec.bestSampleByAveragedObjective({1.0});
    EXPECT_TRUE(rec.sample(idx).config == configOf(2, 2));
}

TEST(GoalRecorderTest, UncertaintyKappaPenalizesSingleSamples)
{
    GoalRecorder rec(1, 50);
    for (int i = 0; i < 8; ++i)
        rec.add(configOf(2, 2), {0.80});
    rec.add(configOf(3, 1), {0.82}); // single, slightly higher
    // Without the discount the single sample wins...
    EXPECT_TRUE(rec.sample(rec.bestSampleByAveragedObjective({1.0}))
                    .config == configOf(3, 1));
    // ...with it, the well-attested config wins.
    EXPECT_TRUE(
        rec.sample(rec.bestSampleByAveragedObjective({1.0}, 0.05))
            .config == configOf(2, 2));
}

TEST(GoalRecorderTest, ExactTieGoesToSmallestStringNotSmallestRank)
{
    // Two configurations of an 11-way, 2-job platform whose averaged
    // scores tie exactly (every goal is 0.5, no uncertainty discount).
    // The winner is the lexicographically smallest toString(), which
    // is not the smallest rank once an entry reaches 10.
    PlatformSpec p;
    p.addResource(ResourceKind::LlcWays, 11);
    p.addResource(ResourceKind::Cores, 4);
    const ConfigurationSpace space(p, 2);
    const Configuration ten({{10, 1}, {2, 2}});
    const Configuration nine({{9, 2}, {2, 2}});
    ASSERT_LT(ten.toString(), nine.toString());
    ASSERT_GT(space.rank(ten), space.rank(nine));
    for (const bool ten_first : {true, false}) {
        GoalRecorder rec(1, 10);
        rec.add(ten_first ? ten : nine, {0.5});
        rec.add(ten_first ? nine : ten, {0.5});
        rec.add(ten_first ? ten : nine, {0.5});
        rec.add(ten_first ? nine : ten, {0.5});
        const std::size_t best = rec.bestSampleByAveragedObjective({1.0});
        EXPECT_EQ(rec.sample(best).config.toString(), "[10,1|2,2]");
        // The most recent sample of the winner.
        EXPECT_EQ(best, ten_first ? 2u : 3u);
    }
}

TEST(GoalRecorderTest, ClearEmpties)
{
    GoalRecorder rec(2, 10);
    rec.add(configOf(2, 2), {0.5, 0.5});
    rec.clear();
    EXPECT_TRUE(rec.empty());
}

} // namespace
} // namespace core
} // namespace satori
