/**
 * @file
 * Pins the decision-loop performance work's determinism contract:
 * the incremental GP path (rank-1 Cholesky appends + batched
 * acquisition) must produce interval records bitwise identical to
 * the full-refit path it replaced, over a real controller run that
 * exercises appends, window trims, settling, and baseline resets.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "record_match.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/obs/obs.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace {

std::vector<persist::IntervalRecord>
runRecords(bool incremental, const std::vector<std::string>& mix,
           double duration)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    auto server = harness::makeServer(p, workloads::mixOf(mix), 5);
    core::SatoriOptions options;
    options.engine.incremental = incremental;
    auto policy = harness::makePolicy("SATORI", server, options);

    std::vector<persist::IntervalRecord> records;
    harness::ExperimentOptions opt;
    opt.duration = duration;
    opt.on_interval = [&](const persist::IntervalRecord& rec) {
        records.push_back(rec);
    };
    (void)harness::ExperimentRunner(opt).run(server, *policy, "");
    return records;
}

/**
 * The load-bearing test for EngineOptions::incremental: every
 * per-interval record (time, config, per-job IPS and speedups,
 * metrics, decision) must match the full-refit path bit for bit.
 * 12 s at 100 ms intervals crosses the baseline-reset period and the
 * GP sample window, so the fast run takes both of the GP's update
 * branches - rank-1 appends and full refits - and the obs counters
 * prove it.
 */
TEST(PerfPathTest, IncrementalDecisionTraceByteIdenticalToFullRefit)
{
    const std::vector<std::string> mix = {"canneal", "swaptions",
                                          "streamcluster"};
    obs::Observability& o = obs::observability();
    o.resetAll();
    o.setMetricsEnabled(true);
    const auto fast = runRecords(true, mix, 12.0);
    [[maybe_unused]] const std::uint64_t appends =
        o.lib().gp_incremental_updates.value();
    [[maybe_unused]] const std::uint64_t full_fits =
        o.lib().gp_fits.value();
    o.resetAll();
    const auto full = runRecords(false, mix, 12.0);
    EXPECT_FALSE(fast.empty());
    EXPECT_EQ(testutil::firstDivergence(fast, full), "");
#if defined(SATORI_OBS_ENABLED) && SATORI_OBS_ENABLED
    EXPECT_GT(appends, 0u);
    EXPECT_GT(full_fits, 0u);
#endif
}

/** Same contract on a second mix with a shorter, pre-settling run. */
TEST(PerfPathTest, IncrementalTraceMatchesOnSecondMix)
{
    const std::vector<std::string> mix = {"fluidanimate", "canneal"};
    const auto fast = runRecords(true, mix, 5.0);
    const auto full = runRecords(false, mix, 5.0);
    EXPECT_FALSE(fast.empty());
    EXPECT_EQ(testutil::firstDivergence(fast, full), "");
}

} // namespace
} // namespace satori
