/**
 * @file
 * StatsHistory implementation: per-series deque rings with snapshot
 * stamps, retention by count/age/bytes, and windowed order-statistic
 * queries. See include/satori/obs/stats_history.hpp for the contract.
 */

#include "satori/obs/stats_history.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "satori/common/io.hpp"

namespace satori {
namespace obs {

namespace {

/** Rough per-point footprint for the byte-retention estimate. */
constexpr std::size_t kPointBytes = sizeof(HistoryPoint);

/** Nearest-rank percentile over a sorted vector (p in [0,1]). */
double nearestRank(const std::vector<double>& sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = std::ceil(p * static_cast<double>(sorted.size()));
    std::size_t index = 0;
    if (rank >= 1.0)
        index = static_cast<std::size_t>(rank) - 1;
    if (index >= sorted.size())
        index = sorted.size() - 1;
    return sorted[index];
}

} // namespace

void StatsHistory::configure(const StatsHistoryOptions& options)
{
    common::MutexLock lock(mutex_);
    options_ = options;
    enforceRetention();
}

StatsHistoryOptions StatsHistory::options() const
{
    common::MutexLock lock(mutex_);
    return options_;
}

void StatsHistory::setEnabled(bool enabled)
{
    common::MutexLock lock(mutex_);
    enabled_ = enabled;
}

bool StatsHistory::enabled() const
{
    common::MutexLock lock(mutex_);
    return enabled_;
}

void StatsHistory::record(
    double time, std::uint64_t interval, const MetricsSnapshot& snap,
    const std::vector<std::pair<std::string, double>>& facts)
{
    common::MutexLock lock(mutex_);
    if (!enabled_)
        return;
    stamps_.emplace_back(time, interval);
    for (const CounterSample& c : snap.counters)
        append(c.name, SeriesKind::Counter, time, interval,
               static_cast<double>(c.value));
    for (const GaugeSample& g : snap.gauges)
        append(g.name, SeriesKind::Gauge, time, interval, g.value);
    for (const HistogramSample& h : snap.histograms)
    {
        append(h.name + ".count", SeriesKind::Counter, time, interval,
               static_cast<double>(h.count));
        append(h.name + ".sum", SeriesKind::Counter, time, interval, h.sum);
    }
    for (const auto& [name, value] : facts)
        append(name, SeriesKind::Gauge, time, interval, value);
    enforceRetention();
}

std::size_t StatsHistory::snapshots() const
{
    common::MutexLock lock(mutex_);
    return stamps_.size();
}

std::uint64_t StatsHistory::evicted() const
{
    common::MutexLock lock(mutex_);
    return evicted_;
}

std::size_t StatsHistory::approxBytes() const
{
    common::MutexLock lock(mutex_);
    return bytes_;
}

std::optional<SeriesKind>
StatsHistory::seriesKind(const std::string& series) const
{
    common::MutexLock lock(mutex_);
    const auto it = series_.find(series);
    if (it == series_.end())
        return std::nullopt;
    return it->second.kind;
}

std::vector<HistoryPoint> StatsHistory::range(const std::string& series,
                                              double t_begin,
                                              double t_end) const
{
    common::MutexLock lock(mutex_);
    std::vector<HistoryPoint> out;
    const auto it = series_.find(series);
    if (it == series_.end())
        return out;
    for (const HistoryPoint& p : it->second.points)
        if (p.time >= t_begin && p.time <= t_end)
            out.push_back(p);
    return out;
}

std::vector<HistoryPoint> StatsHistory::lastN(const std::string& series,
                                              std::size_t n) const
{
    common::MutexLock lock(mutex_);
    std::vector<HistoryPoint> out;
    const auto it = series_.find(series);
    if (it == series_.end())
        return out;
    const std::deque<HistoryPoint>& points = it->second.points;
    const std::size_t take = std::min(n, points.size());
    out.assign(points.end() - static_cast<std::ptrdiff_t>(take),
               points.end());
    return out;
}

std::optional<double> StatsHistory::latest(const std::string& series) const
{
    common::MutexLock lock(mutex_);
    const auto it = series_.find(series);
    if (it == series_.end() || it->second.points.empty())
        return std::nullopt;
    return it->second.points.back().value;
}

std::optional<WindowStats>
StatsHistory::windowStats(const std::string& series,
                          double window_seconds) const
{
    common::MutexLock lock(mutex_);
    const auto it = series_.find(series);
    if (it == series_.end() || it->second.points.empty())
        return std::nullopt;
    const std::deque<HistoryPoint>& points = it->second.points;
    const double t_end = points.back().time;
    const double t_begin =
        window_seconds > 0.0 ? t_end - window_seconds : points.front().time;

    std::vector<double> values;
    values.reserve(points.size());
    double sum = 0.0;
    WindowStats stats;
    for (const HistoryPoint& p : points)
    {
        if (p.time < t_begin)
            continue;
        if (values.empty())
        {
            stats.min = p.value;
            stats.max = p.value;
        }
        stats.min = std::min(stats.min, p.value);
        stats.max = std::max(stats.max, p.value);
        sum += p.value;
        values.push_back(p.value);
    }
    if (values.empty())
        return std::nullopt;
    stats.count = values.size();
    stats.mean = sum / static_cast<double>(values.size());
    std::sort(values.begin(), values.end());
    stats.p50 = nearestRank(values, 0.5);
    stats.p95 = nearestRank(values, 0.95);
    return stats;
}

std::vector<HistoryPoint>
StatsHistory::counterRates(const std::string& series,
                           double window_seconds) const
{
    common::MutexLock lock(mutex_);
    std::vector<HistoryPoint> out;
    const auto it = series_.find(series);
    if (it == series_.end() || it->second.kind != SeriesKind::Counter)
        return out;
    const std::deque<HistoryPoint>& points = it->second.points;
    if (points.size() < 2)
        return out;
    const double t_end = points.back().time;
    const double t_begin =
        window_seconds > 0.0 ? t_end - window_seconds : points.front().time;
    for (std::size_t i = 1; i < points.size(); ++i)
    {
        const HistoryPoint& prev = points[i - 1];
        const HistoryPoint& cur = points[i];
        if (cur.time < t_begin)
            continue;
        const double dt = cur.time - prev.time;
        double rate = 0.0;
        // A counter that went down was reset; report 0, not a
        // negative rate artifact. dt <= 0 (duplicate stamp) also
        // yields 0 rather than a division blow-up.
        if (cur.value >= prev.value && dt > 0.0)
            rate = (cur.value - prev.value) / dt;
        out.push_back(HistoryPoint{cur.time, cur.interval, rate});
    }
    return out;
}

std::string StatsHistory::toJson() const
{
    common::MutexLock lock(mutex_);
    std::ostringstream out;
    out << "{\"snapshots\":" << stamps_.size()
        << ",\"evicted\":" << evicted_ << ",\"series\":{";
    bool first_series = true;
    for (const auto& [name, series] : series_)
    {
        if (!first_series)
            out << ",";
        first_series = false;
        out << "\"" << name << "\":{\"kind\":\""
            << (series.kind == SeriesKind::Counter ? "counter" : "gauge")
            << "\",\"points\":[";
        bool first_point = true;
        for (const HistoryPoint& p : series.points)
        {
            if (!first_point)
                out << ",";
            first_point = false;
            out << "[" << formatNumber(p.time) << "," << p.interval << ","
                << formatNumber(p.value) << "]";
        }
        out << "]}";
    }
    out << "}}";
    return out.str();
}

void StatsHistory::clear()
{
    common::MutexLock lock(mutex_);
    series_.clear();
    stamps_.clear();
    bytes_ = 0;
    evicted_ = 0;
}

void StatsHistory::append(const std::string& name, SeriesKind kind,
                          double time, std::uint64_t interval, double value)
{
    Series& series = series_[name];
    if (series.points.empty())
        series.kind = kind;
    series.points.push_back(HistoryPoint{time, interval, value});
    bytes_ += kPointBytes;
}

void StatsHistory::enforceRetention()
{
    // Never evict the only remaining snapshot: a live /history or
    // watchdog probe always has the newest row to look at.
    while (stamps_.size() > 1)
    {
        const bool over_capacity =
            options_.capacity > 0 && stamps_.size() > options_.capacity;
        const bool over_age =
            options_.max_age_seconds > 0.0 &&
            stamps_.back().first - stamps_.front().first >
                options_.max_age_seconds;
        const bool over_bytes =
            options_.max_bytes > 0 && bytes_ > options_.max_bytes;
        if (!over_capacity && !over_age && !over_bytes)
            break;
        evictOldest();
    }
}

void StatsHistory::evictOldest()
{
    const std::uint64_t interval = stamps_.front().second;
    stamps_.pop_front();
    ++evicted_;
    for (auto& [name, series] : series_)
    {
        std::deque<HistoryPoint>& points = series.points;
        while (!points.empty() && points.front().interval <= interval &&
               (stamps_.empty() ||
                points.front().interval < stamps_.front().second))
        {
            points.pop_front();
            bytes_ -= std::min(bytes_, kPointBytes);
        }
    }
}

} // namespace obs
} // namespace satori
