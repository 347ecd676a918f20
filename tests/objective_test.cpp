/**
 * @file
 * Tests for the configurable multi-goal objective (Sec. III-B, Eq. 2)
 * and the per-goal record keeping that supports dynamic reweighting.
 */

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/common/rng.hpp"
#include "satori/config/enumeration.hpp"
#include "satori/core/goal_record.hpp"
#include "satori/core/objective.hpp"
#include "satori/linalg/matrix.hpp"
#include "satori/persist/codec.hpp"

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

/** Every inputs() row is bitwise normalizedInto of its sample. */
void
expectRowsPackConfigurations(const GoalRecorder& rec,
                             const std::string& what)
{
    const linalg::Matrix x = rec.inputs();
    ASSERT_EQ(x.rows(), rec.size()) << what;
    RealVec row(x.cols());
    for (std::size_t i = 0; i < rec.size(); ++i) {
        ASSERT_EQ(rec.sample(i).config.unitBuffer().size(), x.cols())
            << what;
        rec.sample(i).config.normalizedInto(row.data(), 1);
        EXPECT_EQ(std::memcmp(x.rowPtr(i), row.data(),
                              row.size() * sizeof(double)),
                  0)
            << what << ", row " << i;
    }
}

TEST(GoalRecorderTest, InputsPackNormalizedConfigurationsBitwise)
{
    // The GP compares its fitted block against the next inputs()
    // bit for bit, so the packing must hold across every way the
    // window changes: eviction, a reactivation trim, and a
    // checkpoint round trip (which saves configurations only).
    EXPECT_EQ(GoalRecorder(2, 16).inputs().rows(), 0u);
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 7);
    p.addResource(ResourceKind::LlcWays, 11);
    p.addResource(ResourceKind::MemBandwidth, 10);
    const ConfigurationSpace space(p, 3);
    Rng rng(31);
    GoalRecorder rec(2, 16);
    for (int i = 0; i < 20; ++i)
        rec.add(space.sample(rng), {rng.uniform(), rng.uniform()});
    ASSERT_EQ(rec.size(), 16u);
    expectRowsPackConfigurations(rec, "evicted");

    rec.trimToRecent(9);
    expectRowsPackConfigurations(rec, "trimmed");

    persist::StateWriter w;
    rec.saveState(w);
    GoalRecorder restored(2, 16);
    persist::StateReader r(w.bytes(), "goal-record");
    restored.restoreState(r);
    r.expectEnd();
    ASSERT_EQ(restored.size(), rec.size());
    expectRowsPackConfigurations(restored, "restored");
    const linalg::Matrix before = rec.inputs();
    const linalg::Matrix after = restored.inputs();
    EXPECT_EQ(std::memcmp(before.rowPtr(0), after.rowPtr(0),
                          before.data().size() * sizeof(double)),
              0);
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
