/**
 * @file
 * The metrics registry: counters, gauges, and fixed-bucket histograms
 * registered by name, updated with zero allocation on the hot path,
 * and exported as point-in-time snapshots (Prometheus-style text
 * exposition or JSON Lines).
 *
 * Registration is the slow path: it validates names, allocates the
 * instrument, and returns a stable reference. Updates through that
 * reference are relaxed atomic operations - no locks, no lookups,
 * no allocation - so instruments can live on the controller's 100 ms
 * decision path without distorting what they measure, while the
 * metrics exporter's thread snapshots them. Snapshots copy all values
 * at once, so a snapshot is isolated from later updates (each value
 * is read atomically; a snapshot taken mid-update may see a histogram
 * bucket before its count).
 */

#ifndef SATORI_OBS_REGISTRY_HPP
#define SATORI_OBS_REGISTRY_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "satori/common/thread_annotations.hpp"

namespace satori {
namespace obs {

/** A monotonically increasing event count. */
class Counter
{
  public:
    Counter() = default;

    /** Add @p n events (hot path: one atomic add). */
    void inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    /** Current count. */
    [[nodiscard]] std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the count (registry reset). */
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** A point-in-time level that can move both ways. */
class Gauge
{
  public:
    Gauge() = default;

    /** Record the current level (hot path: one store). */
    void set(double value) { value_.store(value, std::memory_order_relaxed); }

    /** Last recorded level. */
    [[nodiscard]] double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the level (registry reset). */
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * A fixed-bucket histogram. Bucket upper bounds are set at
 * registration (ascending, finite); an implicit +Inf bucket catches
 * the tail. observe() follows Prometheus `le` semantics: a value
 * lands in the first bucket whose upper bound is >= the value.
 */
class Histogram
{
  public:
    /**
     * @param bounds Ascending finite bucket upper bounds (at least
     *        one). @throws FatalError on empty/unsorted/non-finite.
     */
    explicit Histogram(std::vector<double> bounds);

    /** Record one observation (hot path: short scan + three atomic
     * adds). */
    void observe(double value);

    /** The configured upper bounds (excluding the implicit +Inf). */
    [[nodiscard]] const std::vector<double>& bounds() const
    {
        return bounds_;
    }

    /**
     * Per-bucket (non-cumulative) counts; index bounds().size() is
     * the +Inf bucket.
     */
    [[nodiscard]] std::vector<std::uint64_t> bucketCounts() const;

    /** Total observations. */
    [[nodiscard]] std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** Sum of all observed values. */
    [[nodiscard]] double sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** Zero all buckets (registry reset). */
    void reset();

  private:
    std::vector<double> bounds_;
    /** bounds_.size() + 1 entries. */
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/** One counter's value at snapshot time. */
struct CounterSample
{
    std::string name;
    std::string help;
    std::uint64_t value = 0;
};

/** One gauge's value at snapshot time. */
struct GaugeSample
{
    std::string name;
    std::string help;
    double value = 0.0;
};

/** One histogram's state at snapshot time. */
struct HistogramSample
{
    std::string name;
    std::string help;
    std::vector<double> bounds;         ///< Upper bounds, no +Inf.
    std::vector<std::uint64_t> counts;  ///< Per-bucket, +Inf last.
    std::uint64_t count = 0;
    double sum = 0.0;
};

/**
 * A consistent copy of every registered instrument's value. Isolated
 * from updates made after snapshot() returned.
 */
struct MetricsSnapshot
{
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;

    /**
     * Prometheus text exposition (metric names have '.' mapped to
     * '_'; histograms render cumulative `le` buckets plus _sum and
     * _count series).
     */
    [[nodiscard]] std::string prometheusText() const;

    /** One JSON object per instrument, one per line. */
    [[nodiscard]] std::string jsonLines() const;
};

/**
 * Owns every instrument registered under it. Names use the charset
 * [a-zA-Z0-9_.] and must be unique across all instrument kinds;
 * registering a name twice is fatal (an instrument registered from
 * two call sites would silently merge unrelated series). Instruments
 * are never deallocated before the registry, so the returned
 * references stay valid for the registry's lifetime; reset() zeroes
 * values but keeps every registration.
 *
 * Thread-safety: registration, snapshot(), size(), and reset() are
 * serialized by an internal mutex, so concurrent components (e.g.
 * per-node controllers on a common::ThreadPool) can register
 * instruments safely. Updates *through a returned reference* stay
 * lock-free by design — that is the hot-path contract above — so a
 * snapshot taken while another thread updates an instrument sees a
 * benign torn-free point-in-time value of each instrument, not a
 * cross-instrument atomic cut.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /** Register a counter. @throws FatalError on a duplicate name. */
    Counter& counter(const std::string& name, const std::string& help);

    /** Register a gauge. @throws FatalError on a duplicate name. */
    Gauge& gauge(const std::string& name, const std::string& help);

    /**
     * Register a fixed-bucket histogram. @throws FatalError on a
     * duplicate name or invalid bounds.
     */
    Histogram& histogram(const std::string& name, const std::string& help,
                         std::vector<double> bounds);

    /** Number of registered instruments (all kinds). */
    [[nodiscard]] std::size_t size() const;

    /** Copy every instrument's current value. */
    [[nodiscard]] MetricsSnapshot snapshot() const;

    /** Zero every instrument; registrations stay valid. */
    void reset();

  private:
    template <typename Instrument>
    struct Entry
    {
        std::string name;
        std::string help;
        std::unique_ptr<Instrument> instrument;
    };

    /** @throws FatalError on a bad or already-registered name. */
    void claimName(const std::string& name) SATORI_REQUIRES(mutex_);

    mutable common::Mutex mutex_; ///< Serializes the entry tables.
    std::vector<Entry<Counter>> counters_ SATORI_GUARDED_BY(mutex_);
    std::vector<Entry<Gauge>> gauges_ SATORI_GUARDED_BY(mutex_);
    std::vector<Entry<Histogram>> histograms_ SATORI_GUARDED_BY(mutex_);
    /// All claimed names (sorted).
    std::vector<std::string> names_ SATORI_GUARDED_BY(mutex_);
};

} // namespace obs
} // namespace satori

#endif // SATORI_OBS_REGISTRY_HPP
