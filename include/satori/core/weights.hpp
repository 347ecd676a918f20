/**
 * @file
 * Dynamic goal prioritization (Sec. III-C, Eqs. 3-6).
 *
 * SATORI temporarily prioritizes throughput or fairness over short
 * prioritization periods (T_P) while an equalization mechanism pulls
 * the average weight of each goal back to 0.5 over a longer
 * equalization period (T_E). Weights are bounded to [0.25, 0.75] so
 * the BO proxy model's "moving goal post" stays controlled.
 *
 * Interpretation note (documented in DESIGN.md): Eq. 3's
 * equalization term is a weight *deficit* accumulated over the
 * elapsed iterations; we apply it in per-iteration units, i.e.
 * W_TE = 0.5 + (0.5 - mean weight so far), which realizes the
 * paper's stated property that weights average 0.5 over T_E.
 */

#ifndef SATORI_CORE_WEIGHTS_HPP
#define SATORI_CORE_WEIGHTS_HPP

#include "satori/common/types.hpp"

namespace satori {

namespace persist {
class StateWriter;
class StateReader;
} // namespace persist

namespace core {

/** The weight decomposition SATORI plots in Fig. 14(a). */
struct WeightComponents
{
    double w_t = 0.5;   ///< Final throughput weight (Eq. 5).
    double w_f = 0.5;   ///< Final fairness weight (Eq. 6).
    double w_te = 0.5;  ///< Equalization throughput component (Eq. 3).
    double w_fe = 0.5;  ///< Equalization fairness component (Eq. 3).
    double w_tp = 0.5;  ///< Prioritization throughput component (Eq. 4).
    double w_fp = 0.5;  ///< Prioritization fairness component (Eq. 4).
    double blend = 0.0; ///< t_e / T_E: equalization dominance factor.
    bool equalization_boundary = false; ///< T_E elapsed this update.
    bool prioritization_boundary = false; ///< T_P elapsed this update.
};

/**
 * Weight-controller tuning (paper defaults: T_P = 1 s, T_E = 10 s).
 * The periods are counted in 100 ms controller intervals; the weight
 * bounds 0.25 and 0.75 are constants of weights.cpp.
 */
struct WeightOptions
{
    Seconds prioritization_period = 1.0;
    Seconds equalization_period = 10.0;

    /**
     * Eq. 4 as published prioritizes the goal whose *counterpart*
     * improved during the last period (i.e. the weaker goal gets
     * the next opportunity). Setting this false flips Eq. 4 to
     * favor the goal that just performed well - the alternative
     * the paper measured to underperform by ~5%.
     */
    bool favor_weaker_goal = true;
};

/**
 * Computes the per-iteration throughput/fairness weights.
 */
class WeightController
{
  public:
    explicit WeightController(WeightOptions options = {});

    /**
     * Advance one controller interval and produce the weights to use
     * for the objective reconstruction of this iteration.
     *
     * @param throughput Normalized throughput observed this interval.
     * @param fairness Normalized fairness observed this interval.
     */
    WeightComponents update(double throughput, double fairness);

    /** Restart both periods (used on job churn). */
    void resetPeriods();

    /** The options in force. */
    [[nodiscard]] const WeightOptions& options() const { return options_; }

    /** Serialize both period states (checkpoint recovery). */
    void saveState(persist::StateWriter& w) const;

    /** Restore state saved by saveState. */
    void restoreState(persist::StateReader& r);

  private:
    WeightOptions options_;

    // Iterations elapsed in the current equalization period.
    std::size_t t_e_iters_ = 0;
    double sum_wt_ = 0.0; ///< Sum of throughput weights this T_E.

    // Prioritization-period state.
    std::size_t t_p_iters_ = 0;
    double period_start_throughput_ = -1.0;
    double period_start_fairness_ = -1.0;
    double w_tp_ = 0.5;
    double w_fp_ = 0.5;
};

} // namespace core
} // namespace satori

#endif // SATORI_CORE_WEIGHTS_HPP
