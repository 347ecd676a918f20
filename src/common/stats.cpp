#include "satori/common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "satori/common/logging.hpp"

namespace satori {

void
OnlineStats::add(double x)
{
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
OnlineStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

void
TimeSeries::add(double t, double v)
{
    times_.push_back(t);
    values_.push_back(v);
}

double
TimeSeries::mean() const
{
    if (values_.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values_)
        sum += v;
    return sum / static_cast<double>(values_.size());
}

double
percentile(std::vector<double> v, double pct)
{
    SATORI_ASSERT(!v.empty());
    SATORI_ASSERT(pct >= 0.0 && pct <= 100.0);
    std::sort(v.begin(), v.end());
    if (v.size() == 1)
        return v.front();
    const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

} // namespace satori
