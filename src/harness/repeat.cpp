#include "satori/harness/repeat.hpp"

#include <cmath>
#include <cstdio>

#include "satori/common/logging.hpp"
#include "satori/common/parallel.hpp"
#include "satori/common/stats.hpp"
#include "satori/harness/scenarios.hpp"

namespace satori {
namespace harness {
namespace {

Estimate
estimateOf(const OnlineStats& stats)
{
    Estimate e;
    e.mean = stats.mean();
    if (stats.count() >= 2) {
        e.ci95 = 1.96 * stats.stddev() /
                 std::sqrt(static_cast<double>(stats.count()));
    }
    return e;
}

} // namespace

std::string
Estimate::toString(int precision) const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f +/- %.*f", precision, mean,
                  precision, ci95);
    return buf;
}

bool
RepeatedResult::clearlyBeats(const RepeatedResult& other) const
{
    return objective.mean - other.objective.mean >
           objective.ci95 + other.objective.ci95;
}

RepeatedResult
repeatPolicy(const PlatformSpec& platform, const workloads::JobMix& mix,
             const std::string& policy_name,
             const ExperimentOptions& options, std::size_t runs,
             std::uint64_t seed0, core::SatoriOptions satori_options,
             std::size_t threads)
{
    SATORI_ASSERT(runs >= 1);
    const ExperimentRunner runner(options);
    // Trace sinks, fault injectors, and interval hooks are written for
    // one run at a time; never share them across workers.
    const bool shared_sinks = options.trace != nullptr ||
                              options.faults != nullptr ||
                              static_cast<bool>(options.on_interval);
    if (shared_sinks)
        threads = 1;

    // Each run builds its own server + policy (and thus its own
    // engine/GP) from its index alone and writes one pre-sized slot.
    struct RunOutcome
    {
        double throughput = 0.0;
        double fairness = 0.0;
        double objective = 0.0;
    };
    std::vector<RunOutcome> outcomes(runs);
    common::parallelFor(runs, threads, [&](std::size_t r) {
        sim::SimulatedServer server =
            makeServer(platform, mix, seed0 + r);
        auto policy = makePolicy(policy_name, server, satori_options);
        const auto result = runner.run(server, *policy, mix.label);
        outcomes[r].throughput = result.mean_throughput;
        outcomes[r].fairness = result.mean_fairness;
        outcomes[r].objective = result.mean_objective;
    });

    // Fold in index order so the statistics are bit-identical to a
    // serial loop regardless of worker scheduling.
    OnlineStats t_stats, f_stats, o_stats;
    for (const RunOutcome& o : outcomes) {
        t_stats.add(o.throughput);
        f_stats.add(o.fairness);
        o_stats.add(o.objective);
    }
    RepeatedResult out;
    out.policy = policy_name;
    out.runs = runs;
    out.throughput = estimateOf(t_stats);
    out.fairness = estimateOf(f_stats);
    out.objective = estimateOf(o_stats);
    return out;
}

} // namespace harness
} // namespace satori
