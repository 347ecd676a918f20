#include "satori/core/weights.hpp"

#include <cmath>

#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"
#include "satori/persist/codec.hpp"

namespace satori {
namespace core {

namespace {

/** Controller interval the periods are counted in. */
constexpr Seconds kDt = kDefaultIntervalSeconds;

/** Weight bounds (Sec. III-C: 0.25 and 0.75). */
constexpr double kWMin = 0.25;
constexpr double kWMax = 0.75;

static_assert(kDt > 0.0);
static_assert(kWMin >= 0.0 && kWMax <= 1.0 && kWMin < kWMax);

} // namespace

WeightController::WeightController(WeightOptions options)
    : options_(options)
{
    SATORI_ASSERT(options_.prioritization_period >= kDt);
    SATORI_ASSERT(options_.equalization_period >=
                  options_.prioritization_period);
}

WeightComponents
WeightController::update(double throughput, double fairness)
{
    WeightComponents out;

    const auto tp_iters = static_cast<std::size_t>(
        std::llround(options_.prioritization_period / kDt));
    const auto te_iters = static_cast<std::size_t>(
        std::llround(options_.equalization_period / kDt));

    // --- Prioritization component (Eq. 4) -------------------------------
    if (period_start_throughput_ < 0.0) {
        // First observation: anchor the period, keep neutral weights.
        period_start_throughput_ = throughput;
        period_start_fairness_ = fairness;
    }
    ++t_p_iters_;
    out.prioritization_boundary = (t_p_iters_ >= tp_iters);
    if (out.prioritization_boundary) {
        const double dt_improve = std::max(
            (throughput - period_start_throughput_) /
                std::max(period_start_throughput_, 1e-9),
            0.0);
        const double df_improve = std::max(
            (fairness - period_start_fairness_) /
                std::max(period_start_fairness_, 1e-9),
            0.0);
        const double total = dt_improve + df_improve;
        if (total < 1e-12) {
            w_tp_ = 0.5;
            w_fp_ = 0.5;
        } else if (options_.favor_weaker_goal) {
            // Eq. 4: the goal whose counterpart improved gets the next
            // opportunity (bounded to [0.25, 0.75] by construction).
            w_tp_ = 0.25 + 0.5 * df_improve / total;
            w_fp_ = 0.25 + 0.5 * dt_improve / total;
        } else {
            // The ~5%-worse alternative: keep favoring the goal that
            // performed well.
            w_tp_ = 0.25 + 0.5 * dt_improve / total;
            w_fp_ = 0.25 + 0.5 * df_improve / total;
        }
        t_p_iters_ = 0;
        period_start_throughput_ = throughput;
        period_start_fairness_ = fairness;
    }
    out.w_tp = w_tp_;
    out.w_fp = w_fp_;

    // --- Equalization component (Eq. 3, per-iteration units) ------------
    const double mean_wt =
        t_e_iters_ == 0 ? 0.5
                        : sum_wt_ / static_cast<double>(t_e_iters_);
    out.w_te = clamp(0.5 + (0.5 - mean_wt), 0.0, 1.0);
    out.w_fe = 1.0 - out.w_te;

    // --- Blend (Eqs. 5-6): equalization dominates near the end of T_E ---
    const double frac = static_cast<double>(t_e_iters_) /
                        static_cast<double>(te_iters);
    out.blend = frac;
    double w_t = frac * out.w_te + (1.0 - frac) * out.w_tp;
    w_t = clamp(w_t, kWMin, kWMax);
    out.w_t = w_t;
    out.w_f = 1.0 - w_t;

    // --- Advance the equalization period --------------------------------
    sum_wt_ += w_t;
    ++t_e_iters_;
    if (t_e_iters_ >= te_iters) {
        t_e_iters_ = 0;
        sum_wt_ = 0.0;
        out.equalization_boundary = true;
    }
    return out;
}

void
WeightController::resetPeriods()
{
    t_e_iters_ = 0;
    sum_wt_ = 0.0;
    t_p_iters_ = 0;
    period_start_throughput_ = -1.0;
    period_start_fairness_ = -1.0;
    w_tp_ = 0.5;
    w_fp_ = 0.5;
}

void
WeightController::saveState(persist::StateWriter& w) const
{
    w.putSize(t_e_iters_);
    w.putDouble(sum_wt_);
    w.putSize(t_p_iters_);
    w.putDouble(period_start_throughput_);
    w.putDouble(period_start_fairness_);
    w.putDouble(w_tp_);
    w.putDouble(w_fp_);
}

void
WeightController::restoreState(persist::StateReader& r)
{
    t_e_iters_ = r.getSize();
    sum_wt_ = r.getDouble();
    t_p_iters_ = r.getSize();
    period_start_throughput_ = r.getDouble();
    period_start_fairness_ = r.getDouble();
    w_tp_ = r.getDouble();
    w_fp_ = r.getDouble();
}

} // namespace core
} // namespace satori
