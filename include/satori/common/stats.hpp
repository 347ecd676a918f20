/**
 * @file
 * Streaming statistics helpers used by the experiment harness.
 */

#ifndef SATORI_COMMON_STATS_HPP
#define SATORI_COMMON_STATS_HPP

#include <cstddef>
#include <vector>

namespace satori {

namespace persist {
class StateWriter;
class StateReader;
} // namespace persist

/**
 * Online mean/variance accumulator (Welford's algorithm).
 *
 * Used to aggregate per-interval throughput/fairness samples over an
 * experiment without retaining the full time series.
 */
class OnlineStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Number of observations so far. */
    [[nodiscard]] std::size_t count() const { return n_; }

    /** Running mean (0 if empty). */
    [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }

    /** Population variance (0 if fewer than 2 samples). */
    [[nodiscard]] double variance() const;

    /** Population standard deviation. */
    [[nodiscard]] double stddev() const;

    /** Smallest observation (+inf if empty). */
    [[nodiscard]] double min() const { return min_; }

    /** Largest observation (-inf if empty). */
    [[nodiscard]] double max() const { return max_; }

    /** Serialize the accumulator (checkpoint recovery). */
    void saveState(persist::StateWriter& w) const;

    /** Restore an accumulator saved by saveState. */
    void restoreState(persist::StateReader& r);

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_;
    double max_;
};

/**
 * A named time series of scalar samples, with simple aggregation,
 * used to record figure data (weights over time, distances, etc.).
 */
class TimeSeries
{
  public:
    /** Record one (time, value) point. */
    void add(double t, double v);

    /** All sample times, in insertion order. */
    [[nodiscard]] const std::vector<double>& times() const { return times_; }

    /** All sample values, in insertion order. */
    [[nodiscard]] const std::vector<double>& values() const { return values_; }

    /** Number of points. */
    [[nodiscard]] std::size_t size() const { return values_.size(); }

    /** Mean of all values (0 if empty). */
    [[nodiscard]] double mean() const;

  private:
    std::vector<double> times_;
    std::vector<double> values_;
};

/** Percentile (0..100) of a copy of @p v via linear interpolation. */
[[nodiscard]] double percentile(std::vector<double> v, double pct);

} // namespace satori

#endif // SATORI_COMMON_STATS_HPP
