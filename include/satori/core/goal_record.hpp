/**
 * @file
 * Per-goal performance records (Sec. III-B).
 *
 * SATORI's key mechanism for supporting a dynamically re-weighted
 * objective: instead of storing a single scalar per evaluated
 * configuration (which would have to be re-measured whenever the
 * weights change), it stores each goal's value separately and
 * reconstructs the combined objective in software every iteration.
 */

#ifndef SATORI_CORE_GOAL_RECORD_HPP
#define SATORI_CORE_GOAL_RECORD_HPP

#include <cstdint>
#include <deque>
#include <vector>

#include "satori/common/types.hpp"
#include "satori/config/configuration.hpp"
#include "satori/linalg/matrix.hpp"

namespace satori {

namespace persist {
class StateWriter;
class StateReader;
} // namespace persist

namespace core {

/** One evaluated configuration with its per-goal outcomes. */
struct GoalSample
{
    Configuration config;
    std::vector<double> goals;    ///< Normalized goal values in [0, 1].
};

/**
 * A bounded history of goal samples. The window bound both keeps the
 * per-iteration proxy-model reconstruction cheap and naturally ages
 * out samples taken in stale program phases.
 */
class GoalRecorder
{
  public:
    /**
     * @param num_goals Number of goals recorded per sample (>= 1).
     * @param window Maximum samples retained (0 = unbounded).
     */
    explicit GoalRecorder(std::size_t num_goals, std::size_t window = 180);

    /** Record one evaluated configuration. */
    void add(Configuration config, std::vector<double> goal_values);

    /** Number of retained samples. */
    [[nodiscard]] std::size_t size() const { return samples_.size(); }

    /** True if no samples retained. */
    [[nodiscard]] bool empty() const { return samples_.empty(); }

    /** Sample access, oldest first. */
    [[nodiscard]] const GoalSample& sample(std::size_t i) const;

    /**
     * The GP training block, oldest first: row i is sample i's
     * share-normalized configuration (Configuration::normalizedInto),
     * packed on each call. Empty (0 x 0) when no samples are retained.
     */
    [[nodiscard]] linalg::Matrix inputs() const;

    /**
     * Reconstruct the combined objective for every retained sample:
     * y_i = sum_k weights[k] * goals_ik (Eq. 2).
     * @pre weights.size() == numGoals().
     */
    [[nodiscard]] std::vector<double> combined(const std::vector<double>& weights) const;

    /** Number of goals per sample. */
    [[nodiscard]] std::size_t numGoals() const { return num_goals_; }

    /**
     * Index of the most recent sample of the configuration whose
     * *averaged* combined objective (over its repeated evaluations)
     * is highest - a noise-robust incumbent selection. Exactly equal
     * scores go to the lexicographically smallest toString().
     * @pre !empty().
     */
    [[nodiscard]] std::size_t bestSampleByAveragedObjective(
        const std::vector<double>& weights,
        double uncertainty_kappa = 0.0) const;

    /** Keep only the @p n most recent samples (no-op if fewer). */
    void trimToRecent(std::size_t n);

    /** Drop all samples. */
    void clear();

    /**
     * Serialize the retained sample window (checkpoint recovery):
     * configurations and goal values. The training block is not
     * written; inputs() packs it from the configurations.
     */
    void saveState(persist::StateWriter& w) const;

    /**
     * Restore a window saved by saveState.
     * @throws FatalError if the saved per-sample goal count differs
     *         from this recorder's.
     */
    void restoreState(persist::StateReader& r);

  private:
    /** One configuration's recency-weighted record. */
    struct Group
    {
        std::uint64_t key;    ///< Hash of the configuration's units.
        std::size_t latest;   ///< Its most recent sample.
        double weighted_sum;  ///< Sum of recency * combined score.
        double weight;        ///< Sum of recency.
    };

    std::size_t num_goals_;
    std::size_t window_;
    std::deque<GoalSample> samples_;

    // bestSampleByAveragedObjective scratch, reused across calls (so
    // concurrent calls on one recorder are unsafe): the groups in
    // first-seen order, an open-addressing index over them (group
    // index + 1; 0 = empty), and recency_[k] = 0.97^k.
    mutable std::vector<Group> groups_;
    mutable std::vector<std::uint32_t> slots_;
    mutable std::vector<double> recency_;
};

} // namespace core
} // namespace satori

#endif // SATORI_CORE_GOAL_RECORD_HPP
