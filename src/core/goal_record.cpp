#include "satori/core/goal_record.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "satori/common/logging.hpp"
#include "satori/persist/codec.hpp"
#include "satori/persist/state.hpp"

namespace satori {
namespace core {

GoalRecorder::GoalRecorder(std::size_t num_goals, std::size_t window)
    : num_goals_(num_goals), window_(window)
{
    SATORI_ASSERT(num_goals_ >= 1);
}

void
GoalRecorder::add(Configuration config, std::vector<double> goal_values)
{
    SATORI_ASSERT(goal_values.size() == num_goals_);
    GoalSample s;
    s.config = std::move(config);
    s.goals = std::move(goal_values);
    samples_.push_back(std::move(s));
    if (window_ > 0 && samples_.size() > window_)
        samples_.pop_front();
}

const GoalSample&
GoalRecorder::sample(std::size_t i) const
{
    SATORI_ASSERT(i < samples_.size());
    return samples_[i];
}

linalg::Matrix
GoalRecorder::inputs() const
{
    if (samples_.empty())
        return {};
    const std::size_t dims = samples_.front().config.unitBuffer().size();
    linalg::Matrix out(samples_.size(), dims);
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        SATORI_ASSERT(samples_[i].config.unitBuffer().size() == dims);
        samples_[i].config.normalizedInto(out.rowPtr(i), 1);
    }
    return out;
}

std::vector<double>
GoalRecorder::combined(const std::vector<double>& weights) const
{
    SATORI_ASSERT(weights.size() == num_goals_);
    std::vector<double> out;
    out.reserve(samples_.size());
    for (const auto& s : samples_) {
        double y = 0.0;
        for (std::size_t k = 0; k < num_goals_; ++k)
            y += weights[k] * s.goals[k];
        out.push_back(y);
    }
    return out;
}

std::size_t
GoalRecorder::bestSampleByAveragedObjective(
    const std::vector<double>& weights, double uncertainty_kappa) const
{
    SATORI_ASSERT(!samples_.empty());
    SATORI_ASSERT(weights.size() == num_goals_);
    // Group repeated evaluations of the same configuration and rank
    // configurations by a recency-weighted mean combined score (so
    // measurements taken in stale program phases fade out), minus an
    // uncertainty discount that keeps a single lucky noisy sample
    // from being declared the incumbent.
    const std::size_t n = samples_.size();
    while (recency_.size() < n)
        recency_.push_back(
            std::pow(0.97, static_cast<double>(recency_.size())));
    const std::size_t mask = std::bit_ceil(2 * n) - 1;
    slots_.assign(mask + 1, 0);
    groups_.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const auto& s = samples_[i];
        double y = 0.0;
        for (std::size_t k = 0; k < num_goals_; ++k)
            y += weights[k] * s.goals[k];
        // An FNV-style hash of the unit buffer (one int per round)
        // picks the slot; a group matches only on equal units, so
        // colliding keys stay apart.
        std::uint64_t key = 0xcbf29ce484222325ULL;
        for (const int u : s.config.unitBuffer()) {
            key ^= static_cast<std::uint32_t>(u);
            key *= 0x100000001b3ULL;
        }
        std::size_t slot = key & mask;
        while (slots_[slot] != 0) {
            const Group& g = groups_[slots_[slot] - 1];
            if (g.key == key && samples_[g.latest].config == s.config)
                break;
            slot = (slot + 1) & mask;
        }
        if (slots_[slot] == 0) {
            groups_.push_back({key, i, 0.0, 0.0});
            slots_[slot] = static_cast<std::uint32_t>(groups_.size());
        }
        Group& g = groups_[slots_[slot] - 1];
        const double recency = recency_[n - 1 - i];
        g.weighted_sum += recency * y;
        g.weight += recency;
        g.latest = i;
    }
    const Group* best = nullptr;
    double best_score = -2.0;
    for (const Group& g : groups_) {
        const double m = g.weighted_sum / g.weight;
        // g.weight is the effective (recency-discounted) sample
        // count; the discount shrinks as evaluations accumulate.
        const double score =
            m - uncertainty_kappa / std::sqrt(std::max(g.weight, 1e-3));
        // satori-analyzer: allow(num-float-eq) -- exact ties only
        const bool tie = best != nullptr && score == best_score;
        if (score > best_score ||
            (tie && samples_[g.latest].config.toString() <
                        samples_[best->latest].config.toString())) {
            best_score = score;
            best = &g;
        }
    }
    SATORI_ASSERT(best != nullptr);
    return best->latest;
}

void
GoalRecorder::trimToRecent(std::size_t n)
{
    while (samples_.size() > n)
        samples_.pop_front();
}

void
GoalRecorder::clear()
{
    samples_.clear();
}

void
GoalRecorder::saveState(persist::StateWriter& w) const
{
    w.putSize(num_goals_);
    w.putSize(samples_.size());
    for (const auto& s : samples_) {
        persist::putConfiguration(w, s.config);
        w.putDoubleVec(s.goals);
    }
}

void
GoalRecorder::restoreState(persist::StateReader& r)
{
    const std::size_t saved_goals = r.getSize();
    if (saved_goals != num_goals_)
        SATORI_FATAL("goal-record state has " +
                     std::to_string(saved_goals) +
                     " goals per sample, this recorder uses " +
                     std::to_string(num_goals_));
    const std::size_t n = r.getSize();
    samples_.clear();
    for (std::size_t i = 0; i < n; ++i) {
        GoalSample s;
        s.config = persist::getConfiguration(r);
        s.goals = r.getDoubleVec();
        if (s.goals.size() != num_goals_)
            SATORI_FATAL("goal-record state sample " +
                         std::to_string(i) +
                         " has a mismatched goal vector");
        samples_.push_back(std::move(s));
    }
}

} // namespace core
} // namespace satori
