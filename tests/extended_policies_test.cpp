/**
 * @file
 * Tests for the extended policies: the CLITE baseline and the
 * resource-restricted adapter.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/core/controller.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/policies/clite_policy.hpp"
#include "satori/policies/dcat_policy.hpp"
#include "satori/policies/restricted_policy.hpp"
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

TEST(ClitePolicyTest, AlwaysValidDecisions)
{
    auto server = makeSmallServer();
    ClitePolicy clite(server.platform(), 3);
    sim::PerfMonitor monitor(server);
    for (int i = 0; i < 200; ++i) {
        const auto c = clite.decide(monitor.observe(0.1));
        ASSERT_TRUE(c.isValidFor(server.platform(), 3)) << i;
        server.setConfiguration(c);
    }
}

TEST(ClitePolicyTest, ConvergesAndHolds)
{
    auto server = makeSmallServer();
    ClitePolicy clite(server.platform(), 3);
    sim::PerfMonitor monitor(server);
    bool converged = false;
    for (int i = 0; i < 300 && !converged; ++i) {
        server.setConfiguration(clite.decide(monitor.observe(0.1)));
        converged = clite.converged();
    }
    EXPECT_TRUE(converged);
}

TEST(ClitePolicyTest, BeatsRandomButNotSatori)
{
    // Sec. VI: CLITE lands near PARTIES level - clearly above Random,
    // not above SATORI - when applied to this problem.
    harness::ExperimentOptions opt;
    opt.duration = 30.0;
    const harness::ExperimentRunner runner(opt);

    auto run = [&](const std::string& name) {
        auto server = makeSmallServer(7);
        auto policy = harness::makePolicy(name, server);
        return runner.run(server, *policy, "");
    };
    const auto clite = run("CLITE");
    const auto random = run("Random");
    const auto satori = run("SATORI");
    EXPECT_GT(clite.mean_objective, random.mean_objective);
    // On a single short scenario CLITE and SATORI are statistically
    // close (Sec. VI says they differ mainly on dynamic mixes); only
    // guard against a gross inversion here.
    EXPECT_GE(satori.mean_objective, clite.mean_objective * 0.95);
}

TEST(ClitePolicyTest, ResetRestoresInitialState)
{
    auto server = makeSmallServer();
    ClitePolicy clite(server.platform(), 3);
    sim::PerfMonitor monitor(server);
    for (int i = 0; i < 120; ++i)
        server.setConfiguration(clite.decide(monitor.observe(0.1)));
    clite.reset();
    EXPECT_FALSE(clite.converged());
}

TEST(RestrictedPolicyTest, OnlyManagedRowsDeviateFromEqual)
{
    auto server = makeSmallServer();
    RestrictedPolicy policy(
        server.platform(), 3, {ResourceKind::LlcWays},
        [](const PlatformSpec& restricted, std::size_t jobs) {
            return std::make_unique<core::SatoriController>(restricted,
                                                            jobs);
        });
    sim::PerfMonitor monitor(server);
    const Configuration equal =
        Configuration::equalPartition(server.platform(), 3);
    for (int i = 0; i < 120; ++i) {
        const auto c = policy.decide(monitor.observe(0.1));
        ASSERT_TRUE(c.isValidFor(server.platform(), 3));
        // Cores and bandwidth must stay equal.
        EXPECT_TRUE(
            std::ranges::equal(c.resourceRow(0), equal.resourceRow(0)));
        EXPECT_TRUE(
            std::ranges::equal(c.resourceRow(2), equal.resourceRow(2)));
        server.setConfiguration(c);
    }
}

TEST(RestrictedPolicyTest, NameCarriesResourceSuffix)
{
    auto server = makeSmallServer();
    RestrictedPolicy policy(
        server.platform(), 3,
        {ResourceKind::LlcWays, ResourceKind::MemBandwidth},
        [](const PlatformSpec& restricted, std::size_t jobs) {
            return std::make_unique<core::SatoriController>(restricted,
                                                            jobs);
        });
    EXPECT_EQ(policy.name(), "SATORI[llc_ways+mem_bw]");
}

TEST(RestrictedPolicyTest, WrapsArbitraryInnerPolicies)
{
    auto server = makeSmallServer();
    RestrictedPolicy policy(
        server.platform(), 3, {ResourceKind::LlcWays},
        [](const PlatformSpec& restricted, std::size_t jobs) {
            return std::make_unique<DCatPolicy>(restricted, jobs);
        });
    sim::PerfMonitor monitor(server);
    for (int i = 0; i < 60; ++i) {
        const auto c = policy.decide(monitor.observe(0.1));
        ASSERT_TRUE(c.isValidFor(server.platform(), 3));
        server.setConfiguration(c);
    }
    policy.reset();
}

TEST(RestrictedPolicyTest, RejectsEmptyResourceSet)
{
    auto server = makeSmallServer();
    EXPECT_THROW(
        RestrictedPolicy(
            server.platform(), 3, {ResourceKind::PowerCap},
            [](const PlatformSpec& restricted, std::size_t jobs) {
                return std::make_unique<core::SatoriController>(
                    restricted, jobs);
            }),
        FatalError);
}

} // namespace
} // namespace policies
} // namespace satori
