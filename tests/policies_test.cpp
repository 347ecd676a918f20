/**
 * @file
 * Tests for the baseline partitioning policies: validity, the
 * resources each is allowed to touch, and their characteristic
 * behaviours.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/policies/copart_policy.hpp"
#include "satori/policies/dcat_policy.hpp"
#include "satori/policies/equal_policy.hpp"
#include "satori/policies/oracle_policy.hpp"
#include "satori/policies/parties_policy.hpp"
#include "satori/policies/random_policy.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace policies {
namespace {

PlatformSpec
smallPlatform()
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    p.addResource(ResourceKind::MemBandwidth, 6);
    return p;
}

sim::SimulatedServer
makeSmallServer(std::uint64_t seed = 42)
{
    return harness::makeServer(
        smallPlatform(),
        workloads::mixOf({"canneal", "streamcluster", "swaptions"}),
        seed);
}

void
runAndCheckValidity(PartitioningPolicy& policy,
                    sim::SimulatedServer& server, int steps = 150)
{
    sim::PerfMonitor monitor(server);
    for (int i = 0; i < steps; ++i) {
        const auto obs = monitor.observe(0.1);
        const Configuration next = policy.decide(obs);
        ASSERT_TRUE(next.isValidFor(server.platform(), server.numJobs()))
            << policy.name() << " step " << i << ": " << next.toString();
        server.setConfiguration(next);
    }
}

TEST(EqualPolicyTest, NeverMoves)
{
    auto server = makeSmallServer();
    EqualPartitionPolicy policy(server.platform(), 3);
    sim::PerfMonitor monitor(server);
    const Configuration equal =
        Configuration::equalPartition(server.platform(), 3);
    for (int i = 0; i < 20; ++i)
        EXPECT_TRUE(policy.decide(monitor.observe(0.1)) == equal);
}

TEST(RandomPolicyTest, ValidAndDiverse)
{
    auto server = makeSmallServer();
    RandomPolicy policy(server.platform(), 3);
    sim::PerfMonitor monitor(server);
    std::set<std::string> seen;
    for (int i = 0; i < 50; ++i) {
        const auto c = policy.decide(monitor.observe(0.1));
        ASSERT_TRUE(c.isValidFor(server.platform(), 3));
        seen.insert(c.toString());
    }
    EXPECT_GT(seen.size(), 30u); // overwhelmingly distinct draws
}

TEST(RandomPolicyTest, ResetRestartsStream)
{
    auto server = makeSmallServer();
    RandomPolicy policy(server.platform(), 3);
    sim::PerfMonitor monitor(server);
    const auto obs = monitor.observe(0.1);
    const auto first = policy.decide(obs);
    policy.decide(obs);
    policy.reset();
    EXPECT_TRUE(policy.decide(obs) == first);
}

TEST(DCatPolicyTest, OnlyReallocatesLlcWays)
{
    auto server = makeSmallServer();
    DCatPolicy policy(server.platform(), 3);
    sim::PerfMonitor monitor(server);
    const Configuration equal =
        Configuration::equalPartition(server.platform(), 3);
    const int llc = server.platform().indexOf(ResourceKind::LlcWays);
    for (int i = 0; i < 200; ++i) {
        const auto c = policy.decide(monitor.observe(0.1));
        ASSERT_TRUE(c.isValidFor(server.platform(), 3));
        for (std::size_t r = 0; r < server.platform().numResources();
             ++r) {
            if (static_cast<int>(r) == llc)
                continue;
            // Non-LLC rows stay at the equal partition.
            EXPECT_TRUE(std::ranges::equal(c.resourceRow(r),
                                           equal.resourceRow(r)));
        }
        server.setConfiguration(c);
    }
}

TEST(DCatPolicyTest, RequiresLlcResource)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    EXPECT_THROW(DCatPolicy(p, 2), FatalError);
}

TEST(DCatPolicyTest, EventuallyMovesWays)
{
    auto server = makeSmallServer();
    DCatPolicy policy(server.platform(), 3);
    sim::PerfMonitor monitor(server);
    const Configuration equal =
        Configuration::equalPartition(server.platform(), 3);
    bool moved = false;
    for (int i = 0; i < 300 && !moved; ++i) {
        const auto c = policy.decide(monitor.observe(0.1));
        moved = !(c == equal);
        server.setConfiguration(c);
    }
    EXPECT_TRUE(moved);
}

TEST(CoPartPolicyTest, OnlyTouchesLlcAndBandwidth)
{
    auto server = makeSmallServer();
    CoPartPolicy policy(server.platform(), 3);
    sim::PerfMonitor monitor(server);
    const Configuration equal =
        Configuration::equalPartition(server.platform(), 3);
    const int cores = server.platform().indexOf(ResourceKind::Cores);
    for (int i = 0; i < 200; ++i) {
        const auto c = policy.decide(monitor.observe(0.1));
        ASSERT_TRUE(c.isValidFor(server.platform(), 3));
        const auto core_index = static_cast<std::size_t>(cores);
        EXPECT_TRUE(std::ranges::equal(c.resourceRow(core_index),
                                       equal.resourceRow(core_index)));
        server.setConfiguration(c);
    }
}

TEST(CoPartPolicyTest, RequiresManagedResource)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    EXPECT_THROW(CoPartPolicy(p, 2), FatalError);
}

TEST(PartiesPolicyTest, MovesAtMostOneUnitPerEpoch)
{
    auto server = makeSmallServer();
    PartiesPolicy policy(server.platform(), 3);
    sim::PerfMonitor monitor(server);
    Configuration prev = server.configuration();
    for (int i = 0; i < 200; ++i) {
        const auto c = policy.decide(monitor.observe(0.1));
        ASSERT_TRUE(c.isValidFor(server.platform(), 3));
        // One transfer changes the L1 distance by exactly 2; reverts
        // likewise. No decision may move more than one unit.
        EXPECT_LE(Configuration::l1Distance(prev, c), 2);
        prev = c;
        server.setConfiguration(c);
    }
}

TEST(PartiesPolicyTest, ImprovesOverEqualPartition)
{
    // Gradient descent on the measured objective should beat the
    // static equal partition on this heterogeneous mix.
    auto server_p = makeSmallServer(7);
    PartiesPolicy parties(server_p.platform(), 3);
    harness::ExperimentOptions opt;
    opt.duration = 30.0;
    const harness::ExperimentRunner runner(opt);
    const auto parties_result = runner.run(server_p, parties, "");

    auto server_e = makeSmallServer(7);
    EqualPartitionPolicy equal(server_e.platform(), 3);
    const auto equal_result = runner.run(server_e, equal, "");

    EXPECT_GT(parties_result.mean_objective,
              equal_result.mean_objective);
}

TEST(OraclePolicyTest, MatchesEvaluatorOptimum)
{
    auto server = makeSmallServer();
    OraclePolicy oracle(server, OracleKind::Balanced);
    sim::PerfMonitor monitor(server);
    const auto obs = monitor.observe(0.1);
    const Configuration picked = oracle.decide(obs);
    const auto& best = oracle.evaluator().bestFor(
        server.phaseSignature(), 0.5, 0.5);
    EXPECT_TRUE(picked == best.config);
}

TEST(OraclePolicyTest, KindsAndWeights)
{
    auto server = makeSmallServer();
    OraclePolicy t(server, OracleKind::Throughput);
    OraclePolicy f(server, OracleKind::Fairness);
    OraclePolicy b(server, OracleKind::Balanced);
    // Each kind picks the evaluator's optimum under its weights.
    sim::PerfMonitor monitor(server);
    const auto obs = monitor.observe(0.1);
    const auto sig = server.phaseSignature();
    EXPECT_TRUE(t.decide(obs) ==
                t.evaluator().bestFor(sig, 1.0, 0.0).config);
    EXPECT_TRUE(f.decide(obs) ==
                f.evaluator().bestFor(sig, 0.0, 1.0).config);
    EXPECT_EQ(t.name(), "Throughput-Oracle");
    EXPECT_EQ(f.name(), "Fairness-Oracle");
    EXPECT_EQ(b.name(), "Balanced-Oracle");
}

TEST(OraclePolicyTest, ThroughputOracleBeatsOthersOnThroughput)
{
    auto server = makeSmallServer();
    harness::OfflineEvaluator eval(server);
    const auto sig = server.phaseSignature();
    const auto& t_opt = eval.bestFor(sig, 1.0, 0.0);
    const auto& f_opt = eval.bestFor(sig, 0.0, 1.0);
    EXPECT_GE(t_opt.throughput, f_opt.throughput);
    EXPECT_GE(f_opt.fairness, t_opt.fairness);
}

TEST(AllPoliciesTest, ValidOverLongRuns)
{
    const std::vector<std::string> names{"Equal",  "Random", "dCAT",
                                         "CoPart", "PARTIES"};
    for (const auto& name : names) {
        auto server = makeSmallServer(11);
        auto policy = harness::makePolicy(name, server);
        runAndCheckValidity(*policy, server);
    }
}

} // namespace
} // namespace policies
} // namespace satori
