/**
 * @file
 * Tests for the offline exhaustive evaluator underpinning the Oracle:
 * correctness against brute-force metric computation, memoization,
 * and the strided-search fallback.
 */

#include <gtest/gtest.h>

#include "satori/sim/offline_eval.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace harness {
namespace {

PlatformSpec
tinyPlatform()
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    p.addResource(ResourceKind::LlcWays, 4);
    return p;
}

sim::SimulatedServer
makeTinyServer()
{
    return makeServer(tinyPlatform(),
                      workloads::mixOf({"canneal", "swaptions"}), 42);
}

TEST(OfflineEvalTest, MetricsMatchManualComputation)
{
    auto server = makeTinyServer();
    OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    const Configuration c =
        Configuration::equalPartition(server.platform(), 2);
    const auto [t, f] = eval.metricsFor(c, sig);

    const auto ips = server.evaluateIps(c, sig);
    std::vector<Ips> iso;
    for (std::size_t j = 0; j < 2; ++j)
        iso.push_back(server.isolationIpsAt(j, 0));
    EXPECT_NEAR(t, normalizedThroughput(ThroughputMetric::SumIps, ips,
                                        iso),
                1e-12);
    EXPECT_NEAR(f, normalizedFairness(FairnessMetric::JainIndex,
                                      speedups(ips, iso)),
                1e-12);
}

TEST(OfflineEvalTest, BestForIsTrulyOptimal)
{
    auto server = makeTinyServer();
    OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    const auto& best = eval.bestFor(sig, 0.5, 0.5);
    EXPECT_TRUE(best.exhaustive);

    // Brute-force the tiny space by hand and compare.
    const ConfigurationSpace& space = eval.space();
    double manual_best = -1.0;
    for (std::uint64_t i = 0; i < space.size(); ++i) {
        const auto [t, f] = eval.metricsFor(space.at(i), sig);
        manual_best = std::max(manual_best, 0.5 * t + 0.5 * f);
    }
    EXPECT_NEAR(best.objective, manual_best, 1e-9);
}

TEST(OfflineEvalTest, WeightExtremesSelectTheRightCorners)
{
    auto server = makeTinyServer();
    OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    const auto& t_opt = eval.bestFor(sig, 1.0, 0.0);
    const auto& f_opt = eval.bestFor(sig, 0.0, 1.0);
    // The throughput oracle can't have lower throughput than the
    // fairness oracle and vice versa.
    EXPECT_GE(t_opt.throughput, f_opt.throughput - 1e-12);
    EXPECT_GE(f_opt.fairness, t_opt.fairness - 1e-12);
    EXPECT_NEAR(t_opt.objective, t_opt.throughput, 1e-12);
    EXPECT_NEAR(f_opt.objective, f_opt.fairness, 1e-12);
}

TEST(OfflineEvalTest, MemoizationAvoidsRepeatSearches)
{
    auto server = makeTinyServer();
    OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    eval.bestFor(sig, 0.5, 0.5);
    EXPECT_EQ(eval.searchesPerformed(), 1u);
    eval.bestFor(sig, 0.5, 0.5);
    EXPECT_EQ(eval.searchesPerformed(), 1u); // memo hit
    eval.bestFor(sig, 1.0, 0.0);
    EXPECT_EQ(eval.searchesPerformed(), 2u); // new weights
    std::vector<std::size_t> other_sig(server.numJobs(), 1);
    eval.bestFor(other_sig, 0.5, 0.5);
    EXPECT_EQ(eval.searchesPerformed(), 3u); // new phase signature
}

TEST(OfflineEvalTest, StridedSearchFlagsNonExhaustive)
{
    auto server = makeTinyServer();
    OfflineEvalOptions opt;
    opt.max_evals = 3; // force striding on the tiny space
    OfflineEvaluator eval(server, opt);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    const auto& best = eval.bestFor(sig, 0.5, 0.5);
    EXPECT_FALSE(best.exhaustive);
    EXPECT_TRUE(
        best.config.isValidFor(server.platform(), server.numJobs()));
}

TEST(OfflineEvalTest, BestConfigBeatsEqualPartition)
{
    auto server = makeTinyServer();
    OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    const auto& best = eval.bestFor(sig, 0.5, 0.5);
    const auto [t, f] = eval.metricsFor(
        Configuration::equalPartition(server.platform(), 2), sig);
    EXPECT_GE(best.objective, 0.5 * t + 0.5 * f - 1e-12);
}

TEST(OfflineEvalTest, PaperScaleSearchCompletesQuickly)
{
    // 5 jobs on the paper platform: ~3.3M configurations. The tabled
    // search must stay well under a second.
    auto server = makeServer(
        PlatformSpec::paperTestbed(),
        workloads::mixOf({"blackscholes", "canneal", "fluidanimate",
                          "freqmine", "streamcluster"}),
        42);
    OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    const auto& best = eval.bestFor(sig, 0.5, 0.5);
    EXPECT_TRUE(best.exhaustive);
    EXPECT_GT(best.objective, 0.0);
}

} // namespace
} // namespace harness
} // namespace satori
