/**
 * @file
 * SATORI's configurable multi-goal objective function (Sec. III-B,
 * Eq. 2): f(x) = sum_k W_k * Goal_k(x), over goals normalized to
 * [0, 1]. Throughput and fairness are built in; additional goals
 * (e.g. energy efficiency) can be registered with a user evaluator,
 * realizing the extensibility claim.
 */

#ifndef SATORI_CORE_OBJECTIVE_HPP
#define SATORI_CORE_OBJECTIVE_HPP

#include <functional>
#include <string>
#include <vector>

#include "satori/common/types.hpp"
#include "satori/config/observation.hpp"
#include "satori/metrics/metrics.hpp"

namespace satori {
namespace core {

/**
 * A user-registered optimization goal beyond throughput/fairness.
 * Extra goals receive a fixed weight share; the dynamic T/F weights
 * are scaled into the remaining share.
 */
struct ExtraGoal
{
    /** Display name, e.g. "energy". */
    std::string name;

    /** Fixed share of the total weight budget, in (0, 1). */
    double weight_share = 0.0;

    /**
     * Evaluator mapping an interval observation to a normalized
     * [0, 1] goal value (1 = best).
     */
    std::function<double(const IntervalObservation&)> evaluator;
};

/**
 * Evaluates the per-goal values of an interval and combines them
 * with supplied weights (Eq. 2).
 */
class ObjectiveSpec
{
  public:
    /**
     * @param tmetric Throughput metric (paper default: sum of IPS).
     * @param fmetric Fairness metric (paper default: Jain's index).
     * @param extras Additional goals; their weight shares must sum
     *        to < 1, leaving room for throughput and fairness.
     */
    ObjectiveSpec(ThroughputMetric tmetric = ThroughputMetric::SumIps,
                  FairnessMetric fmetric = FairnessMetric::JainIndex,
                  std::vector<ExtraGoal> extras = {});

    /** Total goals: 2 built-ins + extras. */
    [[nodiscard]] std::size_t numGoals() const { return 2 + extras_.size(); }

    /**
     * Normalized per-goal values for one interval:
     * index 0 = throughput, 1 = fairness, 2.. = extras.
     */
    [[nodiscard]] std::vector<double> goalValues(
        const IntervalObservation& obs) const;

    /**
     * Full weight vector given the dynamic throughput weight
     * @p w_t and fairness weight @p w_f: extras keep their fixed
     * shares; (w_t, w_f) are scaled into the remaining budget.
     * @pre w_t + w_f ~ 1.
     */
    [[nodiscard]] std::vector<double> weightVector(double w_t, double w_f) const;

    /** Combined objective value: dot(weights, goals) (Eq. 2). */
    [[nodiscard]] static double combine(const std::vector<double>& weights,
                          const std::vector<double>& goals);

    /** Fairness metric in use. */
    [[nodiscard]] FairnessMetric fairnessMetric() const { return fmetric_; }

  private:
    ThroughputMetric tmetric_;
    FairnessMetric fmetric_;
    std::vector<ExtraGoal> extras_;
    double extra_share_ = 0.0;
};

} // namespace core
} // namespace satori

#endif // SATORI_CORE_OBJECTIVE_HPP
