/**
 * @file
 * Tests for the simulated server substrate: job accounting, stepping,
 * isolation measurement, reconfiguration transients, determinism, and
 * the perf monitor.
 */

#include <vector>
#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/sim/monitor.hpp"
#include "satori/sim/server.hpp"
#include "satori/workloads/suites.hpp"

namespace satori {
namespace sim {
namespace {

workloads::WorkloadProfile
tinyWorkload(double length = 1000.0)
{
    workloads::WorkloadProfile w;
    w.name = "tiny";
    w.suite = "test";
    perfmodel::PhaseParams a, b;
    a.label = "a";
    a.length = length;
    a.base_ipc = 1.0;
    b.label = "b";
    b.length = length;
    b.base_ipc = 2.0;
    w.phases = {a, b};
    w.fixed_work = 2.0 * length;
    return w;
}

SimulatedServer
makeTestServer(std::size_t jobs = 2, double noise = 0.0)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    p.addResource(ResourceKind::MemBandwidth, 6);
    std::vector<workloads::WorkloadProfile> mix;
    for (std::size_t j = 0; j < jobs; ++j)
        mix.push_back(workloads::parsecSuite()[j]);
    ServerOptions opt;
    opt.noise_sigma = noise;
    return SimulatedServer(p, perfmodel::MachineParams::paperLike(),
                           std::move(mix), opt);
}

TEST(JobTest, RetireAdvancesPhasesAndRuns)
{
    Job job(tinyWorkload(1000.0));
    EXPECT_EQ(job.currentPhaseIndex(), 0u);
    job.retire(1000.0);
    EXPECT_EQ(job.currentPhaseIndex(), 1u);
    EXPECT_EQ(job.completedRuns(), 0u);
    job.retire(1000.0); // completes one fixed-work run (2000 instr)
    EXPECT_EQ(job.completedRuns(), 1u);
    EXPECT_DOUBLE_EQ(job.totalRetired(), 2000.0);
    job.reset();
    EXPECT_EQ(job.completedRuns(), 0u);
    EXPECT_EQ(job.currentPhaseIndex(), 0u);
}

TEST(ServerTest, ConstructionStartsAtEqualPartition)
{
    auto server = makeTestServer(2);
    const Configuration equal =
        Configuration::equalPartition(server.platform(), 2);
    EXPECT_TRUE(server.configuration() == equal);
    EXPECT_EQ(server.numJobs(), 2u);
    EXPECT_DOUBLE_EQ(server.now(), 0.0);
}

TEST(ServerTest, StepAdvancesTimeAndRetiresWork)
{
    auto server = makeTestServer(2);
    const auto ips = server.step(0.1);
    EXPECT_NEAR(server.now(), 0.1, 1e-12);
    ASSERT_EQ(ips.size(), 2u);
    for (std::size_t j = 0; j < 2; ++j) {
        EXPECT_GT(ips[j], 0.0);
        EXPECT_NEAR(server.job(j).totalRetired(), ips[j] * 0.1, 1e-6);
    }
}

TEST(ServerTest, InvalidConfigurationRejected)
{
    auto server = makeTestServer(2);
    Configuration bad = server.configuration();
    bad.units(0, 0) += 1; // breaks the core total
    EXPECT_THROW(server.setConfiguration(bad), FatalError);
}

TEST(ServerTest, IsolationDominatesColocation)
{
    auto server = makeTestServer(3);
    const auto iso = server.isolationIpsNow();
    const auto shared = server.step(0.1);
    for (std::size_t j = 0; j < 3; ++j)
        EXPECT_GT(iso[j], shared[j]);
}

TEST(ServerTest, DeterministicForSameSeed)
{
    auto a = makeTestServer(2, 0.05);
    auto b = makeTestServer(2, 0.05);
    for (int i = 0; i < 20; ++i) {
        const auto ia = a.step(0.1);
        const auto ib = b.step(0.1);
        for (std::size_t j = 0; j < 2; ++j)
            EXPECT_DOUBLE_EQ(ia[j], ib[j]);
    }
}

TEST(ServerTest, EvaluateIpsMatchesNoiselessStep)
{
    auto server = makeTestServer(2, 0.0);
    const auto sig = server.phaseSignature();
    const auto predicted =
        server.evaluateIps(server.configuration(), sig);
    const auto measured = server.step(0.1);
    for (std::size_t j = 0; j < 2; ++j)
        EXPECT_NEAR(measured[j], predicted[j], predicted[j] * 1e-9);
}

TEST(ServerTest, ReconfigurationTransientDepressesIps)
{
    auto quiet = makeTestServer(2, 0.0);
    auto moved = makeTestServer(2, 0.0);

    // Same large reallocation applied to `moved` only.
    Configuration big = moved.configuration();
    big.transferUnit(0, 0, 1);
    big.transferUnit(0, 0, 1);
    big.transferUnit(1, 1, 0);
    big.transferUnit(1, 1, 0);
    moved.setConfiguration(big);

    const auto ips_moved = moved.step(0.1);
    // Compare against the *same* configuration applied without a
    // transient (a fresh server whose initial config is big).
    quiet.setConfiguration(big);
    quiet.step(0.1);              // absorb the transient
    const auto settled = quiet.step(0.1);
    for (std::size_t j = 0; j < 2; ++j)
        EXPECT_LT(ips_moved[j], settled[j]);
}

TEST(ServerTest, TransientDecaysWithinFewIntervals)
{
    auto server = makeTestServer(2, 0.0);
    Configuration big = server.configuration();
    big.transferUnit(0, 0, 1);
    big.transferUnit(1, 0, 1);
    server.setConfiguration(big);
    const auto first = server.step(0.1);
    std::vector<Ips> later;
    for (int i = 0; i < 5; ++i)
        later = server.step(0.1);
    for (std::size_t j = 0; j < 2; ++j)
        EXPECT_GT(later[j], first[j]);
}

TEST(ServerTest, NoTransientWhenConfigurationUnchanged)
{
    auto server = makeTestServer(2, 0.0);
    server.setConfiguration(server.configuration());
    const auto a = server.step(0.1);
    const auto b = server.step(0.1);
    for (std::size_t j = 0; j < 2; ++j)
        EXPECT_NEAR(a[j], b[j], a[j] * 1e-9);
}

TEST(ServerTest, ReplaceJobStartsFresh)
{
    auto server = makeTestServer(2, 0.0);
    server.step(1.0);
    EXPECT_GT(server.job(0).totalRetired(), 0.0);
    server.replaceJob(0, workloads::workloadByName("swaptions"));
    EXPECT_DOUBLE_EQ(server.job(0).totalRetired(), 0.0);
    EXPECT_EQ(server.job(0).profile().name, "swaptions");
    // Stepping continues fine.
    const auto ips = server.step(0.1);
    EXPECT_GT(ips[0], 0.0);
}

TEST(ServerTest, PhaseSignatureTracksPhases)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    std::vector<workloads::WorkloadProfile> mix{tinyWorkload(1e9)};
    SimulatedServer server(p, perfmodel::MachineParams::paperLike(),
                           std::move(mix), {});
    EXPECT_EQ(server.phaseSignature(), std::vector<std::size_t>{0});
    // Run until the first phase (1e9 instructions) completes.
    while (server.phaseSignature()[0] == 0)
        server.step(0.1);
    EXPECT_EQ(server.phaseSignature(), std::vector<std::size_t>{1});
}

TEST(ServerTest, PowerCapResourceSupported)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    p.addResource(ResourceKind::PowerCap, 4);
    std::vector<workloads::WorkloadProfile> mix{
        workloads::workloadByName("swaptions"),
        workloads::workloadByName("vips")};
    ServerOptions opt;
    opt.noise_sigma = 0.0;
    SimulatedServer server(p, perfmodel::MachineParams::paperLike(),
                           std::move(mix), opt);
    // Starving job 0 of power lowers its IPS.
    const auto equal_ips = server.step(0.1);
    Configuration starved = server.configuration();
    starved.transferUnit(1, 0, 1); // 1 power unit from job0 to job1
    server.setConfiguration(starved);
    server.step(0.1); // absorb transient
    const auto after = server.step(0.1);
    EXPECT_LT(after[0], equal_ips[0]);
}

TEST(ServerTest, OverCommittedConfigurationNamesTheResource)
{
    auto server = makeTestServer(2);
    Configuration bad = server.configuration();
    bad.units(1, 0) += 2; // over-commits the LLC ways total
    try {
        server.setConfiguration(bad);
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("llc_ways"), std::string::npos) << msg;
        EXPECT_NE(msg.find("capacity"), std::string::npos) << msg;
    }
}

TEST(ServerTest, StarvedJobConfigurationNamesTheJob)
{
    auto server = makeTestServer(2);
    Configuration bad = server.configuration();
    // Keep the total right but leave job 1 without any cores.
    bad.units(0, 0) += bad.units(0, 1);
    bad.units(0, 1) = 0;
    try {
        server.setConfiguration(bad);
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("cores"), std::string::npos) << msg;
        EXPECT_NE(msg.find("job 1"), std::string::npos) << msg;
    }
}

TEST(ServerTest, ReplaceJobRejectsBadArguments)
{
    auto server = makeTestServer(2);
    EXPECT_THROW(
        server.replaceJob(2, workloads::workloadByName("swaptions")),
        FatalError);
    workloads::WorkloadProfile empty;
    empty.name = "empty";
    EXPECT_THROW(server.replaceJob(0, empty), FatalError);
}

TEST(ServerTest, ReplaceJobKeepsBookkeepingConsistentAcrossChurn)
{
    auto server = makeTestServer(2, 0.0);
    // A pending reconfiguration transient on job 0 must not leak into
    // its replacement: a fresh job starts with a clean slate.
    Configuration big = server.configuration();
    big.transferUnit(0, 0, 1);
    big.transferUnit(1, 0, 1);
    server.setConfiguration(big);
    server.replaceJob(0, workloads::workloadByName("swaptions"));
    const auto fresh_first = server.step(0.1);
    const auto fresh_second = server.step(0.1);
    // Job 0's transient was cleared by the replacement, so its IPS is
    // flat; job 1 still pays its transient down.
    EXPECT_NEAR(fresh_first[0], fresh_second[0], fresh_second[0] * 1e-9);
    EXPECT_LT(fresh_first[1], fresh_second[1]);
    // Churn several times in a row; configuration shape must hold.
    for (int i = 0; i < 3; ++i)
        server.replaceJob(i % 2, workloads::workloadByName("canneal"));
    EXPECT_EQ(server.configuration().numJobs(), 2u);
    EXPECT_GT(server.step(0.1)[0], 0.0);
}

TEST(ServerTest, ExternalThrottleScalesMeasuredIps)
{
    auto a = makeTestServer(2, 0.0);
    auto b = makeTestServer(2, 0.0);
    b.setExternalThrottle({0.5, 1.0});
    const auto full = a.step(0.1);
    const auto throttled = b.step(0.1);
    EXPECT_NEAR(throttled[0], 0.5 * full[0], full[0] * 1e-9);
    EXPECT_NEAR(throttled[1], full[1], full[1] * 1e-9);

    // Clearing restores full speed.
    b.setExternalThrottle({});
    const auto restored = b.step(0.1);
    const auto reference = a.step(0.1);
    EXPECT_NEAR(restored[0], reference[0], reference[0] * 1e-9);
}

TEST(ServerTest, ExternalThrottleRejectsBadFactors)
{
    auto server = makeTestServer(2);
    EXPECT_THROW(server.setExternalThrottle({0.5}), FatalError);
    EXPECT_THROW(server.setExternalThrottle({0.5, 0.0}), FatalError);
    EXPECT_THROW(server.setExternalThrottle({0.5, 1.5}), FatalError);
    EXPECT_THROW(server.setExternalThrottle({0.5, -1.0}), FatalError);
}

TEST(MonitorTest, ObservationCarriesBaselineAndConfig)
{
    auto server = makeTestServer(2, 0.0);
    PerfMonitor monitor(server);
    const auto obs = monitor.observe(0.1);
    EXPECT_EQ(obs.ips.size(), 2u);
    EXPECT_EQ(obs.isolation_ips, monitor.baseline());
    EXPECT_TRUE(obs.config == server.configuration());
    EXPECT_NEAR(obs.time, 0.1, 1e-12);
}

TEST(MonitorTest, BaselineResetTracksPhaseChange)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    std::vector<workloads::WorkloadProfile> mix{tinyWorkload(1e8)};
    ServerOptions opt;
    opt.noise_sigma = 0.0;
    SimulatedServer server(p, perfmodel::MachineParams::paperLike(),
                           std::move(mix), opt);
    PerfMonitor monitor(server);
    const auto before = monitor.baseline();
    // Advance into phase b (double the IPC) and re-record.
    while (server.phaseSignature()[0] == 0)
        monitor.observe(0.1);
    monitor.resetBaseline();
    EXPECT_NE(monitor.baseline()[0], before[0]);
}

} // namespace
} // namespace sim
} // namespace satori
