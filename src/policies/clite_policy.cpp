#include "satori/policies/clite_policy.hpp"

#include <algorithm>

#include "satori/common/logging.hpp"
#include "satori/metrics/metrics.hpp"

namespace satori {
namespace policies {

namespace {

/** Static equal weights of the combined objective. */
constexpr double kWeightThroughput = 0.5;
constexpr double kWeightFairness = 0.5;

/** Random configurations evaluated before BO starts. */
constexpr std::size_t kInitSamples = 8;

/** Samples retained for the GP. */
constexpr std::size_t kWindow = 120;

/** Iterations without improvement before holding the best. */
constexpr std::size_t kStallIntervals = 12;

/** Objective-drop fraction that resumes sampling. */
constexpr double kReactivateThreshold = 0.08;

/** RNG seed. */
constexpr std::uint64_t kSeed = 19;

} // namespace

ClitePolicy::ClitePolicy(const PlatformSpec& platform,
                         std::size_t num_jobs)
    : space_(platform, num_jobs),
      // CLITE explores with uniform candidates only - no structured
      // seeds or concentration sets.
      candgen_(space_, bo::CandidateOptions{false}),
      rng_(kSeed), samples_(1, kWindow), init_left_(kInitSamples)
{
}

double
ClitePolicy::objective(const sim::IntervalObservation& obs) const
{
    const double t = normalizedThroughput(ThroughputMetric::SumIps,
                                          obs.ips, obs.isolation_ips);
    const double f = normalizedFairness(
        FairnessMetric::JainIndex, speedups(obs.ips, obs.isolation_ips));
    return kWeightThroughput * t + kWeightFairness * f;
}

Configuration
ClitePolicy::decide(const sim::IntervalObservation& obs)
{
    const double y = objective(obs);

    // Traditional BO bookkeeping: one scalar per evaluated config.
    samples_.add(obs.config, {y});

    if (holding_) {
        // Resume sampling only if performance degrades noticeably.
        if (hold_reference_ < 0.0) {
            if (obs.config == hold_config_)
                hold_reference_ = y;
        } else if (y < hold_reference_ *
                           (1.0 - kReactivateThreshold)) {
            if (++strikes_ >= 2) {
                holding_ = false;
                strikes_ = 0;
                best_seen_ = -1.0;
                stall_ = 0;
                hold_reference_ = -1.0;
            }
        } else {
            strikes_ = 0;
        }
        if (holding_)
            return hold_config_;
    }

    // Convergence tracking.
    if (y > best_seen_ + 1e-3) {
        best_seen_ = y;
        stall_ = 0;
    } else {
        ++stall_;
    }

    // Random initialization phase (CLITE seeds its GP randomly).
    if (init_left_ > 0) {
        --init_left_;
        return space_.sample(rng_);
    }

    // The objective is never negative, so 0.0 + 1.0 * y == y exactly.
    const std::vector<double> ys = samples_.combined({1.0});
    engine_.setSamples(samples_.inputs(), ys);
    // The best *observed* configuration, first of equal maxima.
    const Configuration& incumbent =
        samples_
            .sample(static_cast<std::size_t>(
                std::max_element(ys.begin(), ys.end()) - ys.begin()))
            .config;

    if (stall_ >= kStallIntervals) {
        // Hold it (CLITE's decision once sampling stops).
        holding_ = true;
        hold_config_ = incumbent;
        hold_reference_ = -1.0;
        return hold_config_;
    }

    std::vector<Configuration> candidates =
        candgen_.generate(incumbent, rng_);
    return candidates[engine_.suggestIndex(bo::SoaPoints(candidates))];
}

void
ClitePolicy::reset()
{
    samples_.clear();
    init_left_ = kInitSamples;
    best_seen_ = -1.0;
    stall_ = 0;
    holding_ = false;
    hold_reference_ = -1.0;
    strikes_ = 0;
    engine_ = bo::BoEngine();
    rng_ = Rng(kSeed);
}

} // namespace policies
} // namespace satori
