/**
 * @file
 * Bounded in-memory time-series history for the live telemetry plane
 * (modelled on RocksDB's db/in_memory_stats_history.h): each control
 * interval, the harness snapshots the MetricsRegistry plus the
 * controller's per-interval facts (throughput/fairness/objective,
 * guard verdict, degraded/settled state) into per-series rings with
 * retention by snapshot count, by age, and by approximate bytes.
 *
 * Queries are read-only windows over that history: range / last-N
 * point extraction, min/max/mean/p50/p95 over a trailing window, and
 * delta-encoded counter rates - everything a live `/history` endpoint
 * or an SLO watchdog needs without rescanning a file.
 *
 * Time is whatever clock the recorder passes in - the harness passes
 * *simulated* seconds, so history contents are deterministic for a
 * given run and golden-testable with a fake clock. The history is
 * observability-only: the library writes into it and the exporter /
 * watchdog read from it; nothing on the decision path reads it back.
 *
 * Thread-safety: record(), clear(), configure(), and every query are
 * serialized by an internal mutex, so the HTTP exporter thread can
 * query mid-run while the harness thread records.
 */

#ifndef SATORI_OBS_STATS_HISTORY_HPP
#define SATORI_OBS_STATS_HISTORY_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "satori/common/thread_annotations.hpp"
#include "satori/obs/registry.hpp"

namespace satori {
namespace obs {

/** Retention knobs; every limit of 0 means "unlimited". */
struct StatsHistoryOptions
{
    /** Maximum snapshots retained (ring capacity). */
    std::size_t capacity = 4096;

    /** Maximum age in seconds relative to the newest snapshot. */
    double max_age_seconds = 0.0;

    /** Approximate byte budget for all retained points. */
    std::size_t max_bytes = 0;
};

/** One retained sample of one series. */
struct HistoryPoint
{
    double time = 0.0;          ///< Recorder's clock (simulated s).
    std::uint64_t interval = 0; ///< Control-interval index.
    double value = 0.0;
};

/** Order statistics over a trailing window of one series. */
struct WindowStats
{
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0; ///< Nearest-rank median.
    double p95 = 0.0; ///< Nearest-rank 95th percentile.
};

/** How a series accumulates; counters support rate queries. */
enum class SeriesKind
{
    Counter, ///< Monotone count; rates are meaningful deltas.
    Gauge,   ///< Point-in-time level.
};

/**
 * The bounded history store. Disabled by default: record() on a
 * disabled history is a no-op, so the per-interval hook costs one
 * branch until a consumer (exporter, watchdog, --history-out) turns
 * it on.
 */
class StatsHistory
{
  public:
    StatsHistory() = default;
    StatsHistory(const StatsHistory&) = delete;
    StatsHistory& operator=(const StatsHistory&) = delete;

    /** Replace the retention options (keeps recorded data, then
     *  re-applies retention on the next record()). */
    void configure(const StatsHistoryOptions& options);

    /** The retention options in force. */
    [[nodiscard]] StatsHistoryOptions options() const;

    /** Turn snapshot recording on or off. */
    void setEnabled(bool enabled);

    /** True while record() stores snapshots. */
    [[nodiscard]] bool enabled() const;

    /**
     * Record one snapshot row: every counter and gauge in @p snap
     * becomes a point in its series; histograms contribute
     * `<name>.count` and `<name>.sum` counter series; @p facts are
     * recorded as gauge series (the harness passes `facts.*`).
     * Intervals must be non-decreasing run to run. No-op while
     * disabled.
     */
    void record(double time, std::uint64_t interval,
                const MetricsSnapshot& snap,
                const std::vector<std::pair<std::string, double>>& facts);

    /** Snapshot rows currently retained. */
    [[nodiscard]] std::size_t snapshots() const;

    /** Snapshot rows evicted by retention since the last clear(). */
    [[nodiscard]] std::uint64_t evicted() const;

    /** Approximate bytes held by retained points and series names. */
    [[nodiscard]] std::size_t approxBytes() const;

    /** The kind of @p series, or nullopt if unknown. */
    [[nodiscard]] std::optional<SeriesKind>
    seriesKind(const std::string& series) const;

    /** Points of @p series with time in [t_begin, t_end]. */
    [[nodiscard]] std::vector<HistoryPoint>
    range(const std::string& series, double t_begin, double t_end) const;

    /** The newest @p n points of @p series (oldest first). */
    [[nodiscard]] std::vector<HistoryPoint>
    lastN(const std::string& series, std::size_t n) const;

    /** The newest value of @p series, or nullopt if empty/unknown. */
    [[nodiscard]] std::optional<double>
    latest(const std::string& series) const;

    /**
     * min/max/mean/p50/p95 over the trailing @p window_seconds of
     * @p series (window 0 = everything retained). Percentiles use
     * nearest-rank on the sorted values. nullopt when the series is
     * unknown or has no points in the window.
     */
    [[nodiscard]] std::optional<WindowStats>
    windowStats(const std::string& series, double window_seconds) const;

    /**
     * Delta-encoded per-second rates of a counter series over the
     * trailing @p window_seconds: one point per adjacent pair, stamped
     * at the later point's time. A value drop (counter reset) yields
     * rate 0 rather than a negative artifact. Empty for gauges and
     * unknown series.
     */
    [[nodiscard]] std::vector<HistoryPoint>
    counterRates(const std::string& series, double window_seconds) const;

    /**
     * The full retained history as one deterministic JSON object
     * (series in name order): `{"snapshots":N,"evicted":N,
     * "series":{"name":{"kind":"counter","points":[[t,i,v],...]}}}`.
     */
    [[nodiscard]] std::string toJson() const;

    /** Drop all series, stamps, and eviction counts. */
    void clear();

  private:
    struct Series
    {
        SeriesKind kind = SeriesKind::Gauge;
        std::deque<HistoryPoint> points;
    };

    /** Append one point, growing the byte estimate. */
    void append(const std::string& name, SeriesKind kind, double time,
                std::uint64_t interval, double value)
        SATORI_REQUIRES(mutex_);

    /** Evict oldest snapshots until every retention limit holds. */
    void enforceRetention() SATORI_REQUIRES(mutex_);

    /** Drop the oldest snapshot row across all series. */
    void evictOldest() SATORI_REQUIRES(mutex_);

    mutable common::Mutex mutex_; ///< Serializes recording + queries.
    bool enabled_ SATORI_GUARDED_BY(mutex_) = false;
    StatsHistoryOptions options_ SATORI_GUARDED_BY(mutex_);
    /// Series by name; std::map so every export iterates in a stable
    /// deterministic order.
    std::map<std::string, Series> series_ SATORI_GUARDED_BY(mutex_);
    /// (time, interval) of every retained snapshot row, oldest first.
    std::deque<std::pair<double, std::uint64_t>> stamps_
        SATORI_GUARDED_BY(mutex_);
    std::size_t bytes_ SATORI_GUARDED_BY(mutex_) = 0;
    std::uint64_t evicted_ SATORI_GUARDED_BY(mutex_) = 0;
};

} // namespace obs
} // namespace satori

#endif // SATORI_OBS_STATS_HISTORY_HPP
