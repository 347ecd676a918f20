/**
 * @file
 * Pins the decision-loop performance work's determinism contract:
 * the incremental GP path (rank-1 Cholesky appends + batched
 * acquisition) must produce interval records bitwise identical to
 * the full-refit path it replaced (pinned as a digest of that path's
 * records), over a real controller run that exercises appends,
 * window trims, settling, and baseline resets.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "satori/harness/experiment.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/obs/obs.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace {

std::vector<persist::IntervalRecord>
runRecords(const std::vector<std::string>& mix, double duration)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    auto server = harness::makeServer(p, workloads::mixOf(mix), 5);
    auto policy = harness::makePolicy("SATORI", server);

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
 * 64-bit FNV-1a over every record's encoding: every IntervalRecord
 * field, doubles bitwise. The pinned values were taken from the
 * full-refit engine path (every setSamples a full GP fit) on the
 * same runs.
 */
std::uint64_t
recordsDigest(const std::vector<persist::IntervalRecord>& records)
{
    persist::StateWriter w;
    for (const persist::IntervalRecord& rec : records)
        rec.encode(w);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char ch : w.bytes()) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** EXPECT that @p records hash to @p pinned, printing the new value. */
void
expectDigest(const std::vector<persist::IntervalRecord>& records,
             std::uint64_t pinned)
{
    const std::uint64_t hash = recordsDigest(records);
    char printed[32];
    std::snprintf(printed, sizeof printed, "0x%016" PRIx64 "ULL", hash);
    EXPECT_EQ(hash, pinned) << "record digest is now " << printed;
}

/**
 * The load-bearing test for the engine's incremental path: every
 * per-interval record (time, config, per-job IPS and speedups,
 * metrics, decision) must hash, bit for bit, to the digest the
 * full-refit engine path produced before that path was deleted.
 * 12 s at 100 ms intervals crosses the baseline-reset period and the
 * GP sample window, so the run takes both of the GP's update
 * branches - rank-1 appends and full refits - and the obs counters
 * prove it.
 */
TEST(PerfPathTest, IncrementalDecisionTraceMatchesFullRefitDigest)
{
    obs::Observability& o = obs::observability();
    o.resetAll();
    o.setMetricsEnabled(true);
    const auto records =
        runRecords({"canneal", "swaptions", "streamcluster"}, 12.0);
    [[maybe_unused]] const std::uint64_t appends =
        o.lib().gp_incremental_updates.value();
    [[maybe_unused]] const std::uint64_t full_fits =
        o.lib().gp_fits.value();
    o.resetAll();
    EXPECT_FALSE(records.empty());
    expectDigest(records, 0x9b9c53cdf1db6139ULL);
#if defined(SATORI_OBS_ENABLED) && SATORI_OBS_ENABLED
    EXPECT_GT(appends, 0u);
    EXPECT_GT(full_fits, 0u);
#endif
}

/** Same contract on a second mix with a shorter, pre-settling run. */
TEST(PerfPathTest, IncrementalTraceMatchesFullRefitDigestOnSecondMix)
{
    const auto records = runRecords({"fluidanimate", "canneal"}, 5.0);
    EXPECT_FALSE(records.empty());
    expectDigest(records, 0x2773c1526f65ec5eULL);
}

} // namespace
} // namespace satori
