/**
 * @file
 * End-to-end integration tests: the paper's qualitative results must
 * hold on small scenarios (SATORI beats Random, the Oracle dominates,
 * single-goal variants specialize correctly), plus fixed-work
 * completion and job-churn robustness.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <gtest/gtest.h>

#include "satori/satori.hpp"

namespace satori {
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

workloads::JobMix
heterogeneousMix()
{
    return workloads::mixOf({"canneal", "streamcluster", "swaptions"});
}

harness::ExperimentResult
runPolicy(const std::string& name, Seconds duration = 25.0,
          std::uint64_t seed = 42)
{
    auto server =
        harness::makeServer(smallPlatform(), heterogeneousMix(), seed);
    auto policy = harness::makePolicy(name, server);
    harness::ExperimentOptions opt;
    opt.duration = duration;
    return harness::ExperimentRunner(opt).run(server, *policy, "mix");
}

TEST(IntegrationTest, SatoriBeatsRandomOnBothGoals)
{
    const auto satori = runPolicy("SATORI");
    const auto random = runPolicy("Random");
    EXPECT_GT(satori.mean_throughput, random.mean_throughput);
    EXPECT_GT(satori.mean_fairness, random.mean_fairness);
}

TEST(IntegrationTest, SatoriBeatsStaticEqualPartitioning)
{
    const auto satori = runPolicy("SATORI");
    const auto equal = runPolicy("Equal");
    EXPECT_GT(satori.mean_objective, equal.mean_objective);
}

TEST(IntegrationTest, BalancedOracleDominatesOnTheObjective)
{
    const auto oracle = runPolicy("Balanced-Oracle");
    for (const auto* name : {"SATORI", "PARTIES", "dCAT", "Random"}) {
        const auto r = runPolicy(name);
        EXPECT_GT(oracle.mean_objective, r.mean_objective * 0.98)
            << name << " implausibly beat the balanced oracle";
    }
}

TEST(IntegrationTest, SingleGoalVariantsSpecialize)
{
    const auto t_satori = runPolicy("Throughput-SATORI", 30.0);
    const auto f_satori = runPolicy("Fairness-SATORI", 30.0);
    EXPECT_GT(t_satori.mean_throughput, f_satori.mean_throughput);
    EXPECT_GT(f_satori.mean_fairness, t_satori.mean_fairness);
}

TEST(IntegrationTest, OracleVariantsSpecialize)
{
    const auto t_oracle = runPolicy("Throughput-Oracle");
    const auto f_oracle = runPolicy("Fairness-Oracle");
    EXPECT_GT(t_oracle.mean_throughput, f_oracle.mean_throughput);
    EXPECT_GT(f_oracle.mean_fairness, t_oracle.mean_fairness);
}

TEST(IntegrationTest, FixedWorkRunsComplete)
{
    // A tiny fixed-work budget completes several runs in simulation.
    auto mix = heterogeneousMix();
    for (auto& job : mix.jobs)
        job.fixed_work = 2e8;
    auto server = harness::makeServer(smallPlatform(), mix, 7);
    for (int i = 0; i < 100; ++i)
        server.step(0.1);
    for (std::size_t j = 0; j < server.numJobs(); ++j)
        EXPECT_GT(server.job(j).completedRuns(), 0u) << "job " << j;
}

TEST(IntegrationTest, JobChurnDoesNotBreakTheController)
{
    auto server =
        harness::makeServer(smallPlatform(), heterogeneousMix(), 21);
    core::SatoriController satori(server.platform(), server.numJobs());
    sim::PerfMonitor monitor(server);
    for (int i = 0; i < 80; ++i)
        server.setConfiguration(satori.decide(monitor.observe(0.1)));
    // A job departs and is replaced (Algorithm 1 line 12 path):
    // re-record baselines; the controller keeps producing valid
    // configurations and adapts.
    server.replaceJob(1, workloads::workloadByName("graph_analytics"));
    monitor.resetBaseline();
    for (int i = 0; i < 120; ++i) {
        const auto next = satori.decide(monitor.observe(0.1));
        ASSERT_TRUE(
            next.isValidFor(server.platform(), server.numJobs()));
        server.setConfiguration(next);
    }
    EXPECT_GT(satori.diagnostics().fairness, 0.0);
}

TEST(IntegrationTest, MinimalResourcesDegenerateCase)
{
    // units == jobs: the only valid configuration is all-ones; every
    // policy must cope.
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 3);
    p.addResource(ResourceKind::LlcWays, 3);
    auto server = harness::makeServer(p, heterogeneousMix(), 3);
    for (const auto* name : {"SATORI", "PARTIES", "Random", "CoPart"}) {
        auto policy = harness::makePolicy(name, server);
        sim::PerfMonitor monitor(server);
        for (int i = 0; i < 30; ++i) {
            const auto next = policy->decide(monitor.observe(0.1));
            ASSERT_TRUE(next.isValidFor(p, 3)) << name;
            server.setConfiguration(next);
        }
    }
}

TEST(IntegrationTest, MetricChoiceDoesNotFlipTheWinner)
{
    // Sec. IV claims SATORI's benefit is not metric-dependent: the
    // SATORI > Random ordering must also hold under geomean-speedup
    // throughput and 1-CoV fairness.
    harness::ExperimentOptions opt;
    opt.duration = 25.0;
    opt.tmetric = ThroughputMetric::GeomeanSpeedup;
    opt.fmetric = FairnessMetric::OneMinusCov;
    const harness::ExperimentRunner runner(opt);

    core::SatoriOptions sopt;
    sopt.objective = core::ObjectiveSpec(ThroughputMetric::GeomeanSpeedup,
                                         FairnessMetric::OneMinusCov);

    auto server_s =
        harness::makeServer(smallPlatform(), heterogeneousMix(), 5);
    core::SatoriController satori(server_s.platform(),
                                  server_s.numJobs(), sopt);
    const auto s = runner.run(server_s, satori, "");

    auto server_r =
        harness::makeServer(smallPlatform(), heterogeneousMix(), 5);
    policies::RandomPolicy random(server_r.platform(),
                                  server_r.numJobs());
    const auto r = runner.run(server_r, random, "");

    EXPECT_GT(s.mean_throughput, r.mean_throughput);
    EXPECT_GT(s.mean_fairness, r.mean_fairness);
}

TEST(IntegrationTest, ExtensibleObjectiveAcceptsThirdGoal)
{
    // The Sec. III-B extensibility claim: add an energy-style goal
    // that prefers concentrated core allocations, and verify SATORI
    // still runs and optimizes sensibly.
    core::ExtraGoal energy;
    energy.name = "energy";
    energy.weight_share = 0.2;
    energy.evaluator = [](const sim::IntervalObservation& obs) {
        // Reward allocations that leave cores in deeper sleep: fewer
        // active cores -> higher "efficiency" score.
        double active = 0.0, total = 0.0;
        for (std::size_t j = 0; j < obs.config.numJobs(); ++j)
            active += obs.config.units(0, j);
        total = active; // all units assigned; normalize by machine.
        return 1.0 - active / std::max(total, 1.0) * 0.5;
    };
    core::SatoriOptions opt;
    opt.objective = core::ObjectiveSpec(
        ThroughputMetric::SumIps, FairnessMetric::JainIndex, {energy});

    auto server =
        harness::makeServer(smallPlatform(), heterogeneousMix(), 9);
    core::SatoriController satori(server.platform(), server.numJobs(),
                                  opt);
    sim::PerfMonitor monitor(server);
    for (int i = 0; i < 60; ++i) {
        const auto next = satori.decide(monitor.observe(0.1));
        ASSERT_TRUE(
            next.isValidFor(server.platform(), server.numJobs()));
        server.setConfiguration(next);
    }
}

/**
 * Forwards to a policy and folds every decision's toString() into a
 * running 64-bit FNV-1a hash.
 */
class DigestingPolicy final : public core::PartitioningPolicy
{
  public:
    DigestingPolicy(core::PartitioningPolicy& inner, std::uint64_t& hash)
        : inner_(inner), hash_(hash)
    {
    }

    [[nodiscard]] std::string name() const override { return inner_.name(); }

    Configuration decide(const IntervalObservation& obs) override
    {
        Configuration next = inner_.decide(obs);
        for (const char ch : next.toString() + "\n") {
            hash_ ^= static_cast<unsigned char>(ch);
            hash_ *= 0x100000001b3ULL;
        }
        return next;
    }

    void reset() override { inner_.reset(); }

  private:
    core::PartitioningPolicy& inner_;
    std::uint64_t& hash_;
};

/** One 60 s satori_sim-equivalent run on parsec 5-job mix 3. */
void
digestRun(const std::string& policy_name, bool power_cap_with_faults,
          std::uint64_t& hash)
{
    const workloads::JobMix mix =
        workloads::allMixes(workloads::suiteByName("parsec"), 5).at(3);
    PlatformSpec platform;
    platform.addResource(ResourceKind::Cores, 10);
    platform.addResource(ResourceKind::LlcWays, 11);
    platform.addResource(ResourceKind::MemBandwidth, 10);
    if (power_cap_with_faults)
        platform.addResource(ResourceKind::PowerCap, 10);
    auto server = harness::makeServer(platform, mix, 42, 0.04);
    auto policy = harness::makePolicy(policy_name, server);
    DigestingPolicy digesting(*policy, hash);

    harness::ExperimentOptions opt;
    opt.duration = 60.0;
    std::optional<faults::FaultInjector> injector;
    if (power_cap_with_faults) {
        const auto horizon =
            static_cast<std::size_t>(opt.duration / opt.dt);
        injector.emplace(
            faults::FaultPlan::escalating(mix.jobs.size(), horizon),
            0xFA17);
        opt.faults = &*injector;
    }
    (void)harness::ExperimentRunner(opt).run(server, digesting, mix.label);
}

TEST(IntegrationTest, DecisionDigestIsPinned)
{
    // Every decision of three fixed runs, hashed: SATORI on parsec
    // 5-job mix 3, SATORI on the power-cap platform under the
    // escalating fault preset, and CLITE on the first run's mix. A
    // refactor that claims to keep decisions bit-identical must leave
    // this digest unchanged; a deliberate decision change updates
    // kPinned to the value printed on mismatch.
    constexpr std::uint64_t kPinned = 0xd02336a87051a887ULL;
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    digestRun("SATORI", false, hash);
    digestRun("SATORI", true, hash);
    digestRun("CLITE", false, hash);
    char printed[32];
    std::snprintf(printed, sizeof printed, "0x%016" PRIx64 "ULL", hash);
    EXPECT_EQ(hash, kPinned) << "decision digest is now " << printed;
}

TEST(IntegrationTest, BaselineDigestIsPinned)
{
    // Every decision of PARTIES, CoPart and dCAT on parsec 5-job mix
    // 3 for 60 s, hashed like DecisionDigestIsPinned, which runs none
    // of these three policies.
    constexpr std::uint64_t kPinned = 0x96f85f1d9751ff4dULL;
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    digestRun("PARTIES", false, hash);
    digestRun("CoPart", false, hash);
    digestRun("dCAT", false, hash);
    char printed[32];
    std::snprintf(printed, sizeof printed, "0x%016" PRIx64 "ULL", hash);
    EXPECT_EQ(hash, kPinned) << "baseline digest is now " << printed;
}

} // namespace
} // namespace satori
