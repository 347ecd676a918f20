/**
 * @file
 * Tests for the experiment harness: the runner loop, policy factory,
 * and %-of-oracle comparison reporting.
 */

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/common/parallel.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/harness/repeat.hpp"
#include "satori/harness/report.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/policies/equal_policy.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace harness {
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
smallMix()
{
    return workloads::mixOf({"canneal", "streamcluster", "swaptions"});
}

TEST(ExperimentRunnerTest, AggregatesOverConfiguredDuration)
{
    auto server = makeServer(smallPlatform(), smallMix());
    policies::EqualPartitionPolicy policy(server.platform(), 3);
    ExperimentOptions opt;
    opt.duration = 5.0;
    opt.warmup = 1.0;
    const ExperimentRunner runner(opt);
    const auto result = runner.run(server, policy, "small");
    EXPECT_EQ(result.policy_name, "Equal");
    EXPECT_EQ(result.mix_label, "small");
    // 50 intervals total, 10 in warm-up.
    EXPECT_EQ(result.throughput_stats.count(), 40u);
    EXPECT_GT(result.mean_throughput, 0.0);
    EXPECT_GT(result.mean_fairness, 0.0);
    EXPECT_LE(result.mean_fairness, 1.0);
    EXPECT_NEAR(result.mean_objective,
                0.5 * result.mean_throughput +
                    0.5 * result.mean_fairness,
                1e-12);
    EXPECT_NEAR(server.now(), 5.0, 1e-9);
}

TEST(ExperimentRunnerTest, WorstJobIsMinimumOfJobMeans)
{
    auto server = makeServer(smallPlatform(), smallMix());
    policies::EqualPartitionPolicy policy(server.platform(), 3);
    ExperimentOptions opt;
    opt.duration = 5.0;
    const ExperimentRunner runner(opt);
    const auto result = runner.run(server, policy, "");
    ASSERT_EQ(result.job_mean_speedups.size(), 3u);
    double min = 1.0;
    for (double s : result.job_mean_speedups)
        min = std::min(min, s);
    EXPECT_DOUBLE_EQ(result.worst_job_speedup, min);
}

TEST(ExperimentRunnerTest, SeriesRecordedOnRequest)
{
    auto server = makeServer(smallPlatform(), smallMix());
    policies::EqualPartitionPolicy policy(server.platform(), 3);
    ExperimentOptions opt;
    opt.duration = 3.0;
    opt.warmup = 0.0;
    std::vector<persist::IntervalRecord> records;
    opt.on_interval = [&](const persist::IntervalRecord& rec) {
        records.push_back(rec);
    };
    const ExperimentRunner runner(opt);
    const auto result = runner.run(server, policy, "");
    ASSERT_EQ(records.size(), 30u);
    double throughput_sum = 0.0;
    double fairness_sum = 0.0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].interval, i);
        throughput_sum += records[i].throughput;
        fairness_sum += records[i].fairness;
    }
    // With no warm-up the aggregates cover every recorded interval.
    EXPECT_NEAR(result.mean_throughput, throughput_sum / 30.0, 1e-12);
    EXPECT_NEAR(result.mean_fairness, fairness_sum / 30.0, 1e-12);
}

TEST(ExperimentRunnerTest, OnIntervalHookSeesEveryInterval)
{
    auto server = makeServer(smallPlatform(), smallMix());
    policies::EqualPartitionPolicy policy(server.platform(), 3);
    ExperimentOptions opt;
    opt.duration = 2.0;
    int calls = 0;
    opt.on_interval = [&](const persist::IntervalRecord& rec) {
        ++calls;
        EXPECT_GT(rec.time, 0.0);
        EXPECT_GE(rec.throughput, 0.0);
        EXPECT_GE(rec.fairness, 0.0);
    };
    (void)ExperimentRunner(opt).run(server, policy, "");
    EXPECT_EQ(calls, 20);
}

TEST(PolicyFactoryTest, AllNamesConstruct)
{
    auto server = makeServer(smallPlatform(), smallMix());
    for (const auto& name :
         {"Equal", "Random", "dCAT", "CoPart", "PARTIES", "SATORI",
          "SATORI-static", "Throughput-SATORI", "Fairness-SATORI",
          "Balanced-Oracle", "Throughput-Oracle", "Fairness-Oracle"}) {
        auto policy = makePolicy(name, server);
        ASSERT_NE(policy, nullptr) << name;
        EXPECT_EQ(policy->name(), name);
    }
    EXPECT_THROW(makePolicy("Quantum", server), FatalError);
}

TEST(PolicyFactoryTest, ComparisonSetMatchesPaperFigure)
{
    const auto names = comparisonPolicyNames();
    EXPECT_EQ(names, (std::vector<std::string>{"Random", "dCAT",
                                               "CoPart", "PARTIES",
                                               "SATORI"}));
    EXPECT_EQ(satoriVariantNames().size(), 4u);
}

TEST(ComparePoliciesTest, NormalizesAgainstBalancedOracle)
{
    ExperimentOptions opt;
    opt.duration = 8.0;
    const MixComparison comp = comparePolicies(
        smallPlatform(), smallMix(), {"Equal", "Random"}, opt, 42);
    EXPECT_EQ(comp.scores.size(), 2u);
    EXPECT_GT(comp.oracle.mean_throughput, 0.0);
    for (const auto& s : comp.scores) {
        EXPECT_GT(s.throughput_pct, 0.0);
        EXPECT_GT(s.fairness_pct, 0.0);
        EXPECT_NEAR(s.throughput_pct,
                    s.result.mean_throughput /
                        comp.oracle.mean_throughput,
                    1e-12);
    }
    EXPECT_NO_THROW((void)comp.score("Equal"));
    EXPECT_THROW((void)comp.score("SATORI"), FatalError);
}

TEST(ComparePoliciesTest, AggregateHelpers)
{
    ExperimentOptions opt;
    opt.duration = 6.0;
    std::vector<MixComparison> comps;
    comps.push_back(comparePolicies(smallPlatform(), smallMix(),
                                    {"Equal"}, opt, 1));
    comps.push_back(comparePolicies(smallPlatform(), smallMix(),
                                    {"Equal"}, opt, 2));
    const double t = meanThroughputPct(comps, "Equal");
    const double f = meanFairnessPct(comps, "Equal");
    const double w = meanWorstJobPct(comps, "Equal");
    EXPECT_GT(t, 0.0);
    EXPECT_GT(f, 0.0);
    EXPECT_GT(w, 0.0);
    EXPECT_NEAR(t,
                (comps[0].score("Equal").throughput_pct +
                 comps[1].score("Equal").throughput_pct) /
                    2.0,
                1e-12);
}

TEST(RepeatPolicyTest, AggregatesAcrossSeeds)
{
    ExperimentOptions opt;
    opt.duration = 5.0;
    const auto rep = repeatPolicy(smallPlatform(), smallMix(), "Equal",
                                  opt, 4, 100);
    EXPECT_EQ(rep.policy, "Equal");
    EXPECT_EQ(rep.runs, 4u);
    EXPECT_GT(rep.throughput.mean, 0.0);
    EXPECT_GT(rep.objective.mean, 0.0);
    // Several noisy seeds give a non-degenerate confidence interval.
    EXPECT_GT(rep.throughput.ci95, 0.0);
    EXPECT_NE(rep.objective.toString().find("+/-"), std::string::npos);
}

TEST(RepeatPolicyTest, SingleRunHasNoInterval)
{
    ExperimentOptions opt;
    opt.duration = 3.0;
    const auto rep = repeatPolicy(smallPlatform(), smallMix(), "Equal",
                                  opt, 1, 7);
    EXPECT_DOUBLE_EQ(rep.throughput.ci95, 0.0);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce)
{
    for (const std::size_t workers : {1u, 2u, 4u}) {
        common::ThreadPool pool(workers);
        EXPECT_EQ(pool.workerCount(), workers);
        const std::size_t count = 100;
        std::vector<int> hits(count, 0);
        pool.forEachIndex(count,
                          [&](std::size_t i) { hits[i] += 1; });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i], 1) << i;
        // The pool is reusable for further batches.
        pool.forEachIndex(count,
                          [&](std::size_t i) { hits[i] += 1; });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i], 2) << i;
        pool.forEachIndex(0, [&](std::size_t) { ADD_FAILURE(); });
    }
}

TEST(ThreadPoolTest, FirstExceptionPropagatesToCaller)
{
    common::ThreadPool pool(3);
    EXPECT_THROW(
        pool.forEachIndex(50,
                          [](std::size_t i) {
                              if (i == 7)
                                  throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // Still usable after a failed batch.
    std::atomic<int> ran{0};
    pool.forEachIndex(10, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 10);
}

TEST(ParallelForTest, SerialAndPooledAgree)
{
    std::vector<std::size_t> serial(64, 0);
    common::parallelFor(64, 1, [&](std::size_t i) { serial[i] = i * i; });
    std::vector<std::size_t> pooled(64, 0);
    common::parallelFor(64, 4, [&](std::size_t i) { pooled[i] = i * i; });
    EXPECT_EQ(serial, pooled);
}

TEST(RepeatPolicyTest, ParallelStatisticsBitIdenticalToSerial)
{
    // The determinism contract for the parallel harness: per-run seeds
    // derive from indices and folding is index-ordered, so every
    // thread count produces byte-for-byte the same aggregate.
    ExperimentOptions opt;
    opt.duration = 3.0;
    const auto serial = repeatPolicy(smallPlatform(), smallMix(),
                                     "Equal", opt, 6, 11, {}, 1);
    for (const std::size_t threads : {2u, 4u, 6u}) {
        const auto parallel = repeatPolicy(smallPlatform(), smallMix(),
                                           "Equal", opt, 6, 11, {},
                                           threads);
        EXPECT_EQ(parallel.runs, serial.runs);
        EXPECT_EQ(parallel.throughput.mean, serial.throughput.mean);
        EXPECT_EQ(parallel.throughput.ci95, serial.throughput.ci95);
        EXPECT_EQ(parallel.fairness.mean, serial.fairness.mean);
        EXPECT_EQ(parallel.fairness.ci95, serial.fairness.ci95);
        EXPECT_EQ(parallel.objective.mean, serial.objective.mean);
        EXPECT_EQ(parallel.objective.ci95, serial.objective.ci95);
    }

    // SATORI policies (GP + controller inside each worker) hold the
    // same guarantee.
    const auto s1 = repeatPolicy(smallPlatform(), smallMix(), "SATORI",
                                 opt, 3, 5, {}, 1);
    const auto s4 = repeatPolicy(smallPlatform(), smallMix(), "SATORI",
                                 opt, 3, 5, {}, 4);
    EXPECT_EQ(s1.objective.mean, s4.objective.mean);
    EXPECT_EQ(s1.objective.ci95, s4.objective.ci95);
}

TEST(RepeatPolicyTest, SharedSinksForceSerialExecution)
{
    // A trace sink is single-run state; the threaded overload must
    // not share it across workers (it serializes instead, and the
    // trace stays well-formed).
    ExperimentOptions opt;
    opt.duration = 2.0;
    int intervals = 0;
    opt.on_interval = [&](const persist::IntervalRecord&) {
        ++intervals;
    };
    const auto rep = repeatPolicy(smallPlatform(), smallMix(), "Equal",
                                  opt, 3, 21, {}, 4);
    EXPECT_EQ(rep.runs, 3u);
    EXPECT_GT(intervals, 0);
}

} // namespace
} // namespace harness
} // namespace satori
