#include "satori/obs/registry.hpp"

#include <algorithm>
#include <cmath>

#include "satori/common/io.hpp"
#include "satori/common/logging.hpp"

namespace satori {
namespace obs {

namespace {

bool
validMetricName(const std::string& name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.';
        if (!ok)
            return false;
    }
    return true;
}

/** Metric name in Prometheus form: '.' separators become '_'. */
std::string
prometheusName(const std::string& name)
{
    std::string out = name;
    std::replace(out.begin(), out.end(), '.', '_');
    return out;
}

} // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1)
{
    if (bounds_.empty())
        SATORI_FATAL("histogram needs at least one bucket bound");
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (!std::isfinite(bounds_[i]))
            SATORI_FATAL("histogram bucket bound must be finite");
        if (i > 0 && bounds_[i] <= bounds_[i - 1])
            SATORI_FATAL("histogram bucket bounds must be strictly "
                         "ascending");
    }
}

void
Histogram::observe(double value)
{
    std::size_t bucket = bounds_.size(); // +Inf tail by default
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (value <= bounds_[i]) {
            bucket = i;
            break;
        }
    }
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out;
    out.reserve(counts_.size());
    for (const auto& c : counts_)
        out.push_back(c.load(std::memory_order_relaxed));
    return out;
}

void
Histogram::reset()
{
    for (auto& c : counts_)
        c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

void
MetricsRegistry::claimName(const std::string& name)
{
    if (!validMetricName(name))
        SATORI_FATAL("invalid metric name '" + name +
                     "' (use [a-zA-Z0-9_.])");
    const auto at =
        std::lower_bound(names_.begin(), names_.end(), name);
    if (at != names_.end() && *at == name)
        SATORI_FATAL("metric '" + name + "' registered twice");
    names_.insert(at, name);
}

Counter&
MetricsRegistry::counter(const std::string& name, const std::string& help)
{
    common::MutexLock lock(mutex_);
    claimName(name);
    counters_.push_back({name, help, std::make_unique<Counter>()});
    return *counters_.back().instrument;
}

Gauge&
MetricsRegistry::gauge(const std::string& name, const std::string& help)
{
    common::MutexLock lock(mutex_);
    claimName(name);
    gauges_.push_back({name, help, std::make_unique<Gauge>()});
    return *gauges_.back().instrument;
}

Histogram&
MetricsRegistry::histogram(const std::string& name, const std::string& help,
                           std::vector<double> bounds)
{
    common::MutexLock lock(mutex_);
    claimName(name);
    histograms_.push_back(
        {name, help, std::make_unique<Histogram>(std::move(bounds))});
    return *histograms_.back().instrument;
}

std::size_t
MetricsRegistry::size() const
{
    common::MutexLock lock(mutex_);
    return counters_.size() + gauges_.size() + histograms_.size();
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    common::MutexLock lock(mutex_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& e : counters_)
        snap.counters.push_back({e.name, e.help, e.instrument->value()});
    snap.gauges.reserve(gauges_.size());
    for (const auto& e : gauges_)
        snap.gauges.push_back({e.name, e.help, e.instrument->value()});
    snap.histograms.reserve(histograms_.size());
    for (const auto& e : histograms_) {
        HistogramSample h;
        h.name = e.name;
        h.help = e.help;
        h.bounds = e.instrument->bounds();
        h.counts = e.instrument->bucketCounts();
        h.count = e.instrument->count();
        h.sum = e.instrument->sum();
        snap.histograms.push_back(std::move(h));
    }
    return snap;
}

void
MetricsRegistry::reset()
{
    common::MutexLock lock(mutex_);
    for (auto& e : counters_)
        e.instrument->reset();
    for (auto& e : gauges_)
        e.instrument->reset();
    for (auto& e : histograms_)
        e.instrument->reset();
}

std::string
MetricsSnapshot::prometheusText() const
{
    std::string out;
    for (const auto& c : counters) {
        const std::string name = prometheusName(c.name);
        out += "# HELP " + name + " " + escapeText(c.help) + "\n";
        out += "# TYPE " + name + " counter\n";
        out += name + " " + std::to_string(c.value) + "\n";
    }
    for (const auto& g : gauges) {
        const std::string name = prometheusName(g.name);
        out += "# HELP " + name + " " + escapeText(g.help) + "\n";
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + formatNumber(g.value) + "\n";
    }
    for (const auto& h : histograms) {
        const std::string name = prometheusName(h.name);
        out += "# HELP " + name + " " + escapeText(h.help) + "\n";
        out += "# TYPE " + name + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
            cumulative += h.counts[i];
            out += name + "_bucket{le=\"" + formatNumber(h.bounds[i]) +
                   "\"} " + std::to_string(cumulative) + "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} " +
               std::to_string(h.count) + "\n";
        out += name + "_sum " + formatNumber(h.sum) + "\n";
        out += name + "_count " + std::to_string(h.count) + "\n";
    }
    return out;
}

std::string
MetricsSnapshot::jsonLines() const
{
    std::string out;
    for (const auto& c : counters)
        out += "{\"type\":\"counter\",\"name\":\"" + c.name +
               "\",\"help\":\"" + escapeText(c.help) +
               "\",\"value\":" + std::to_string(c.value) + "}\n";
    for (const auto& g : gauges)
        out += "{\"type\":\"gauge\",\"name\":\"" + g.name +
               "\",\"help\":\"" + escapeText(g.help) +
               "\",\"value\":" + formatNumber(g.value) + "}\n";
    for (const auto& h : histograms) {
        out += "{\"type\":\"histogram\",\"name\":\"" + h.name +
               "\",\"help\":\"" + escapeText(h.help) + "\",\"bounds\":[";
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
            if (i > 0)
                out += ",";
            out += formatNumber(h.bounds[i]);
        }
        out += "],\"counts\":[";
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            if (i > 0)
                out += ",";
            out += std::to_string(h.counts[i]);
        }
        out += "],\"count\":" + std::to_string(h.count) +
               ",\"sum\":" + formatNumber(h.sum) + "}\n";
    }
    return out;
}

} // namespace obs
} // namespace satori
