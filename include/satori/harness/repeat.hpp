/**
 * @file
 * Multi-seed repetition: run the same (platform, mix, policy)
 * scenario under several RNG seeds and report means with normal
 * confidence intervals, so policy comparisons can be stated with
 * statistical backing rather than single-run point estimates.
 */

#ifndef SATORI_HARNESS_REPEAT_HPP
#define SATORI_HARNESS_REPEAT_HPP

#include <string>
#include <vector>

#include "satori/core/controller.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace harness {

/** Mean and half-width of a ~95% normal confidence interval. */
struct Estimate
{
    double mean = 0.0;
    double ci95 = 0.0; ///< 1.96 * stderr; 0 with fewer than 2 runs.

    /** "m ± c" rendering with the given precision. */
    [[nodiscard]] std::string toString(int precision = 3) const;
};

/** Aggregated multi-seed outcome of one policy on one scenario. */
struct RepeatedResult
{
    std::string policy;
    std::size_t runs = 0;
    Estimate throughput; ///< Normalized mean throughput per run.
    Estimate fairness;
    Estimate objective;  ///< 0.5 T + 0.5 F.
};

/**
 * Run @p policy_name on the scenario once per seed in
 * [seed0, seed0 + runs) and aggregate.
 *
 * @p threads caps the worker pool for the runs (0 = one worker per
 * hardware thread, or SATORI_THREADS when set). Each run's seed and
 * result slot derive from its index and the per-run statistics are
 * folded in index order afterwards, so the aggregate is bit-identical
 * at every thread count. Runs fall back to serial execution whenever
 * @p options carries shared mutable sinks (trace, faults,
 * on_interval) - those hooks are written for one run at a time.
 */
RepeatedResult repeatPolicy(const PlatformSpec& platform,
                            const workloads::JobMix& mix,
                            const std::string& policy_name,
                            const ExperimentOptions& options,
                            std::size_t runs, std::uint64_t seed0 = 42,
                            core::SatoriOptions satori_options = {},
                            std::size_t threads = 1);

} // namespace harness
} // namespace satori

#endif // SATORI_HARNESS_REPEAT_HPP
