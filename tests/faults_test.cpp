/**
 * @file
 * Tests for the fault-injection subsystem: plan parsing and scripting
 * errors, injector determinism (same seed + plan = bitwise identical
 * interval records), churn/baseline interactions, hardened-controller
 * behavior under faults, and audit cleanliness while faults are
 * active.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>
#include <gtest/gtest.h>

#include "record_match.hpp"
#include "satori/satori.hpp"

namespace satori {
namespace faults {
namespace {

PlatformSpec
testPlatform()
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    p.addResource(ResourceKind::MemBandwidth, 6);
    return p;
}

workloads::JobMix
testMix()
{
    return workloads::mixOf({"canneal", "streamcluster", "swaptions"});
}

// ---- FaultPlan scripting -------------------------------------------

TEST(FaultPlanTest, ParsesEveryKindWithOptions)
{
    const auto plan = FaultPlan::parse(
        "# a comment line\n"
        "drop 10..20 job=1 p=0.5\n"
        "nan 20..30\n"
        "freeze 30..40 job=*\n"
        "spike 40..50 x=8\n"
        "noact 50..60 p=0.25\n"
        "delay 60..70 k=4\n"
        "partial 70..80\n"
        "offline 80..90 job=2 x=0.5\n"
        "crash 95\n");
    ASSERT_EQ(plan.events().size(), 9u);
    EXPECT_EQ(plan.events()[0].kind, FaultKind::DropSample);
    EXPECT_EQ(plan.events()[0].job, 1);
    EXPECT_DOUBLE_EQ(plan.events()[0].probability, 0.5);
    EXPECT_EQ(plan.events()[2].job, -1);
    EXPECT_DOUBLE_EQ(plan.events()[3].magnitude, 8.0);
    EXPECT_EQ(plan.events()[5].delay_intervals, 4u);
    EXPECT_DOUBLE_EQ(plan.events()[7].magnitude, 0.5);
    // Single-interval shorthand: "crash 95" is [95, 96).
    EXPECT_EQ(plan.events()[8].start_interval, 95u);
    EXPECT_EQ(plan.events()[8].end_interval, 96u);
    EXPECT_EQ(plan.horizon(), 96u);
}

TEST(FaultPlanTest, RoundTripsThroughToString)
{
    const auto plan = FaultPlan::parse(
        "spike 5..15 job=0 p=0.35 x=0.1\n"
        "delay 20..30 k=7\n"
        "crash 40\n");
    const auto reparsed = FaultPlan::parse(plan.toString());
    ASSERT_EQ(reparsed.events().size(), plan.events().size());
    for (std::size_t i = 0; i < plan.events().size(); ++i) {
        EXPECT_EQ(reparsed.events()[i].kind, plan.events()[i].kind);
        EXPECT_EQ(reparsed.events()[i].start_interval,
                  plan.events()[i].start_interval);
        EXPECT_EQ(reparsed.events()[i].end_interval,
                  plan.events()[i].end_interval);
        EXPECT_EQ(reparsed.events()[i].job, plan.events()[i].job);
        EXPECT_DOUBLE_EQ(reparsed.events()[i].probability,
                         plan.events()[i].probability);
    }
}

TEST(FaultPlanTest, RejectsMalformedScriptsNamingTheLine)
{
    EXPECT_THROW(FaultPlan::parse("explode 1..2\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("drop\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("drop 20..10\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("drop 5..5\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("drop 1..2 p=1.5\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("drop 1..2 p=0\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("delay 1..2 k=0\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("drop 1..2 job=-3\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("drop 1..2 bogus=1\n"), FatalError);
    EXPECT_THROW(FaultPlan::parse("drop 1..2 nonsense\n"), FatalError);

    // Errors name the source and the offending line.
    try {
        (void)FaultPlan::parse("drop 1..2\nexplode 3..4\n",
                               "plan.txt");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("plan.txt"), std::string::npos) << msg;
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    }
}

TEST(FaultPlanTest, LoadFileErrorsNameThePath)
{
    EXPECT_THROW(FaultPlan::loadFile("/nonexistent/plan.txt"),
                 FatalError);

    const std::string path = "/tmp/satori_fault_plan_test.txt";
    {
        std::ofstream out(path);
        out << "spike 1..3 x=4\ncrash 5\n";
    }
    const auto plan = FaultPlan::loadFile(path);
    EXPECT_EQ(plan.events().size(), 2u);
    std::remove(path.c_str());
}

TEST(FaultPlanTest, EscalatingPresetCoversAllPhasesWithinHorizon)
{
    const auto plan = FaultPlan::escalating(3, 300);
    EXPECT_FALSE(plan.empty());
    EXPECT_LE(plan.horizon(), 300u);

    bool has_telemetry = false, has_actuation = false,
         has_platform = false;
    for (const auto& e : plan.events()) {
        switch (e.kind) {
          case FaultKind::DropSample:
          case FaultKind::NanSample:
          case FaultKind::FreezeSample:
          case FaultKind::SpikeSample:
            has_telemetry = true;
            break;
          case FaultKind::DropActuation:
          case FaultKind::DelayActuation:
          case FaultKind::PartialActuation:
            has_actuation = true;
            break;
          case FaultKind::CoreOffline:
          case FaultKind::JobCrash:
            has_platform = true;
            break;
        }
        EXPECT_LT(e.start_interval, e.end_interval);
    }
    EXPECT_TRUE(has_telemetry);
    EXPECT_TRUE(has_actuation);
    EXPECT_TRUE(has_platform);
}

// ---- FaultInjector behavior ----------------------------------------

TEST(FaultInjectorTest, TelemetryFaultsPerturbOnlyTheCopy)
{
    auto mix = testMix();
    sim::SimulatedServer server =
        harness::makeServer(testPlatform(), mix, 7, 0.0);
    sim::PerfMonitor monitor(server);

    FaultInjector injector(
        FaultPlan::parse("drop 0..5 job=0\nspike 0..5 job=1 x=8\n"), 1);
    injector.beginInterval(server);
    const auto truth = monitor.observe(0.1);
    const auto seen = injector.perturbObservation(truth);

    EXPECT_DOUBLE_EQ(seen.ips[0], 0.0);          // dropped
    EXPECT_NEAR(seen.ips[1], truth.ips[1] * 8.0, // spiked
                1e-9);
    EXPECT_DOUBLE_EQ(seen.ips[2], truth.ips[2]); // untouched
    EXPECT_GT(truth.ips[0], 0.0);                // truth intact
    EXPECT_EQ(injector.stats().samples_dropped, 1u);
    EXPECT_EQ(injector.stats().samples_spiked, 1u);
    EXPECT_FALSE(injector.lastFlags().empty());
}

TEST(FaultInjectorTest, DroppedActuationLeavesConfigInForce)
{
    auto mix = testMix();
    sim::SimulatedServer server =
        harness::makeServer(testPlatform(), mix, 7, 0.0);
    const Configuration before = server.configuration();

    Configuration request = before;
    request.units(0, 0) += 1;
    request.units(0, 1) -= 1;

    FaultInjector injector(FaultPlan::parse("noact 0..10\n"), 1);
    injector.beginInterval(server);
    const Configuration& applied = injector.actuate(server, request);
    EXPECT_TRUE(applied == before); // silently ignored
    EXPECT_EQ(injector.stats().actuations_dropped, 1u);
}

TEST(FaultInjectorTest, DelayedActuationLandsKIntervalsLate)
{
    auto mix = testMix();
    sim::SimulatedServer server =
        harness::makeServer(testPlatform(), mix, 7, 0.0);
    const Configuration before = server.configuration();
    Configuration request = before;
    request.units(0, 0) += 1;
    request.units(0, 1) -= 1;

    // Every actuation in the window lags by 3 intervals, exactly like
    // a management daemon that fell behind.
    FaultInjector injector(FaultPlan::parse("delay 0..10 k=3\n"), 1);
    injector.beginInterval(server);
    EXPECT_TRUE(injector.actuate(server, request) == before);

    // Intervals 1 and 2: the request is still in the queue.
    for (int i = 0; i < 2; ++i) {
        injector.beginInterval(server);
        injector.actuate(server, before);
        EXPECT_TRUE(server.configuration() == before);
    }

    // Interval 3: the queued request comes due and lands (the current
    // interval's request joins the queue in turn).
    injector.beginInterval(server);
    injector.actuate(server, before);
    EXPECT_TRUE(server.configuration() == request);
    EXPECT_EQ(injector.stats().actuations_delayed, 4u);
}

TEST(FaultInjectorTest, PartialActuationStaysFeasible)
{
    auto mix = testMix();
    sim::SimulatedServer server =
        harness::makeServer(testPlatform(), mix, 7, 0.0);
    Configuration request = server.configuration();
    request.units(0, 0) += 1;
    request.units(0, 1) -= 1;
    request.units(1, 1) += 1;
    request.units(1, 2) -= 1;

    FaultInjector injector(FaultPlan::parse("partial 0..50\n"), 1);
    for (int i = 0; i < 50; ++i) {
        injector.beginInterval(server);
        // Never throws: every mixed configuration row-sums to
        // capacity (setConfiguration FATALs otherwise).
        injector.actuate(server, request);
    }
    EXPECT_GT(injector.stats().actuations_partial, 0u);
}

TEST(FaultInjectorTest, CrashReplacesJobAndReportsChurn)
{
    auto mix = testMix();
    sim::SimulatedServer server =
        harness::makeServer(testPlatform(), mix, 7, 0.0);
    server.job(0).retire(1e9); // progress to lose on restart

    FaultInjector injector(FaultPlan::parse("crash 0 job=0\n"), 1);
    EXPECT_TRUE(injector.beginInterval(server));
    EXPECT_DOUBLE_EQ(server.job(0).totalRetired(), 0.0);
    EXPECT_EQ(injector.stats().crashes, 1u);

    // Interval 1 is past the plan: no churn.
    injector.actuate(server, server.configuration());
    EXPECT_FALSE(injector.beginInterval(server));
}

TEST(FaultInjectorTest, OfflineThrottleIsTransient)
{
    auto mix = testMix();
    sim::SimulatedServer server =
        harness::makeServer(testPlatform(), mix, 7, 0.0);

    FaultInjector injector(
        FaultPlan::parse("offline 0..2 job=1 x=0.5\n"), 1);
    injector.beginInterval(server);
    ASSERT_EQ(server.externalThrottle().size(), server.numJobs());
    EXPECT_DOUBLE_EQ(server.externalThrottle()[1], 0.5);
    injector.actuate(server, server.configuration());

    injector.beginInterval(server);
    injector.actuate(server, server.configuration());

    // Past the window: full speed is restored.
    injector.beginInterval(server);
    EXPECT_DOUBLE_EQ(server.externalThrottle()[1], 1.0);
}

// ---- End-to-end determinism and resilience -------------------------

std::vector<persist::IntervalRecord>
runFaulted(const std::string& policy_name, std::uint64_t fault_seed)
{
    auto mix = testMix();
    sim::SimulatedServer server =
        harness::makeServer(testPlatform(), mix, 11);
    auto policy = harness::makePolicy(policy_name, server);

    FaultInjector injector(FaultPlan::escalating(mix.jobs.size(), 100),
                           fault_seed);
    std::vector<persist::IntervalRecord> records;
    harness::ExperimentOptions opt;
    opt.duration = 10.0; // 100 intervals
    opt.faults = &injector;
    opt.on_interval = [&](const persist::IntervalRecord& rec) {
        records.push_back(rec);
    };
    (void)harness::ExperimentRunner(opt).run(server, *policy, mix.label);
    return records;
}

TEST(FaultInjectorTest, GoldenTraceIsByteIdenticalAcrossRuns)
{
    const auto a = runFaulted("SATORI", 0xFA17);
    const auto b = runFaulted("SATORI", 0xFA17);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(testutil::firstDivergence(a, b), "");
    // The records carry the per-interval fault annotations.
    EXPECT_TRUE(std::any_of(a.begin(), a.end(), [](const auto& rec) {
        return rec.faults.find("spike(j") != std::string::npos;
    }));
}

TEST(FaultInjectorTest, DifferentSeedsChangeTheFaultPattern)
{
    // Same plan, different Bernoulli draws: the per-interval fault
    // pattern must differ between seeds (and, per the golden-trace
    // test above, be identical for equal seeds).
    const auto plan = FaultPlan::parse("drop 0..100 job=0 p=0.5\n");
    auto pattern_of = [&](std::uint64_t seed) {
        auto mix = testMix();
        sim::SimulatedServer server =
            harness::makeServer(testPlatform(), mix, 7, 0.0);
        sim::PerfMonitor monitor(server);
        FaultInjector injector(plan, seed);
        std::string pattern;
        for (int i = 0; i < 100; ++i) {
            injector.beginInterval(server);
            const auto seen =
                injector.perturbObservation(monitor.observe(0.1));
            // Fault injection writes an exact 0.0; equality is exact.
            // satori-analyzer: allow(num-float-eq)
            pattern += seen.ips[0] == 0.0 ? '1' : '0';
            injector.actuate(server, server.configuration());
        }
        return pattern;
    };
    const std::string p1 = pattern_of(1);
    EXPECT_NE(p1, pattern_of(2));
    EXPECT_EQ(p1, pattern_of(1)); // and reproducible
    EXPECT_NE(p1.find('1'), std::string::npos);
    EXPECT_NE(p1.find('0'), std::string::npos);
}

TEST(FaultResilienceTest, HardenedControllerSurvivesChurnMidBurst)
{
    // A crash in the middle of the exploration burst: baseline reset
    // ordering (churn -> resetBaseline -> observe) must keep the
    // observation consistent and the controller learning.
    auto mix = testMix();
    sim::SimulatedServer server =
        harness::makeServer(testPlatform(), mix, 11);
    auto policy = harness::makePolicy("SATORI", server);

    FaultInjector injector(
        FaultPlan::parse("crash 8 job=0\ncrash 15 job=2\n"), 3);
    harness::ExperimentOptions opt;
    opt.duration = 6.0;
    opt.faults = &injector;
    const harness::ExperimentRunner runner(opt);
    const auto result = runner.run(server, *policy, mix.label);

    EXPECT_EQ(injector.stats().crashes, 2u);
    EXPECT_GT(result.mean_throughput, 0.0);
    EXPECT_GT(result.mean_fairness, 0.0);
}

TEST(FaultResilienceTest, HardenedSurvivesNanTelemetry)
{
    // NaN readings reach the guard, never the GP: the run completes
    // and the recorded objective history stays finite.
    auto mix = testMix();
    sim::SimulatedServer server =
        harness::makeServer(testPlatform(), mix, 11);
    auto policy = harness::makePolicy("SATORI", server);
    auto* satori =
        dynamic_cast<core::SatoriController*>(policy.get());
    ASSERT_NE(satori, nullptr);

    FaultInjector injector(
        FaultPlan::parse("nan 10..40 job=1 p=0.8\n"), 3);
    harness::ExperimentOptions opt;
    opt.duration = 8.0;
    opt.faults = &injector;
    const harness::ExperimentRunner runner(opt);
    const auto result = runner.run(server, *policy, mix.label);

    EXPECT_GT(injector.stats().samples_nan, 0u);
    EXPECT_GT(satori->telemetryGuard().stats().non_finite, 0u);
    EXPECT_TRUE(std::isfinite(result.mean_throughput));
    EXPECT_GT(result.mean_throughput, 0.0);
}

TEST(FaultResilienceTest, DegradedModeEngagesAndRecovers)
{
    // A long unusable stretch (NaN on every job, past any budget)
    // must push the controller into the equal-partition fallback,
    // and the clean tail must bring it back out.
    auto mix = testMix();
    sim::SimulatedServer server =
        harness::makeServer(testPlatform(), mix, 11);
    core::SatoriOptions options;
    options.resilience.degraded_after = 5;
    auto policy = harness::makePolicy("SATORI", server, options);
    auto* satori =
        dynamic_cast<core::SatoriController*>(policy.get());
    ASSERT_NE(satori, nullptr);

    FaultInjector injector(
        FaultPlan::parse("nan 20..60 job=* p=1\n"), 3);
    harness::ExperimentOptions opt;
    opt.duration = 10.0;
    opt.faults = &injector;
    const harness::ExperimentRunner runner(opt);
    (void)runner.run(server, *policy, mix.label);

    EXPECT_GE(satori->diagnostics().degraded_entries, 1u);
    EXPECT_GT(satori->diagnostics().unusable_intervals, 0u);
    EXPECT_FALSE(satori->degraded()); // recovered in the clean tail
}

TEST(FaultResilienceTest, ActuationRetryReconverges)
{
    auto mix = testMix();
    sim::SimulatedServer server =
        harness::makeServer(testPlatform(), mix, 11);
    auto policy = harness::makePolicy("SATORI", server);
    auto* satori =
        dynamic_cast<core::SatoriController*>(policy.get());
    ASSERT_NE(satori, nullptr);

    FaultInjector injector(FaultPlan::parse("noact 10..30 p=0.7\n"), 3);
    harness::ExperimentOptions opt;
    opt.duration = 8.0;
    opt.faults = &injector;
    const harness::ExperimentRunner runner(opt);
    const auto result = runner.run(server, *policy, mix.label);

    EXPECT_GT(injector.stats().actuations_dropped, 0u);
    EXPECT_GT(satori->diagnostics().actuation_mismatches, 0u);
    EXPECT_GT(satori->diagnostics().actuation_retries, 0u);
    EXPECT_GT(result.mean_throughput, 0.0);
}

#ifdef SATORI_AUDIT_ENABLED
TEST(FaultAuditTest, HardenedRunUnderFaultsIsAuditClean)
{
    // The CI fault-matrix criterion: with every fault class active,
    // the hardened controller must never feed an invariant-violating
    // value downstream (non-finite GP targets, bad observations,
    // invalid allocations).
    analysis::globalAuditor().clear();
    auto plan = FaultPlan::escalating(3, 100);
    plan.add(FaultPlan::parse("nan 10..30 job=0 p=0.5\n").events()[0]);

    auto mix = testMix();
    sim::SimulatedServer server =
        harness::makeServer(testPlatform(), mix, 11);
    auto policy = harness::makePolicy("SATORI", server);
    FaultInjector injector(plan, 0xFA17);
    harness::ExperimentOptions opt;
    opt.duration = 10.0;
    opt.faults = &injector;
    const harness::ExperimentRunner runner(opt);
    (void)runner.run(server, *policy, mix.label);

    EXPECT_GT(analysis::globalAuditor().checksRun(), 0u);
    EXPECT_EQ(analysis::globalAuditor().violationCount(), 0u)
        << analysis::globalAuditor().renderReport();
    analysis::globalAuditor().clear();
}
#endif

} // namespace
} // namespace faults
} // namespace satori
