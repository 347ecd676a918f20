#include "satori/obs/audit.hpp"

#include <fstream>

#include "satori/common/io.hpp"
#include "satori/common/logging.hpp"

namespace satori {
namespace obs {

namespace {

/** One record as a single JSON object (no trailing newline). */
std::string
recordJson(const DecisionRecord& r)
{
    std::string out;
    out += "{\"interval\":" + std::to_string(r.interval);
    out += ",\"time\":" + formatNumber(r.time);
    out += ",\"policy\":\"" + escapeText(r.policy) + "\"";
    out += ",\"observed_ips\":[";
    for (std::size_t i = 0; i < r.observed_ips.size(); ++i) {
        if (i > 0)
            out += ",";
        out += formatNumber(r.observed_ips[i]);
    }
    out += "]";
    out += ",\"guard_verdict\":\"" + escapeText(r.guard_verdict) + "\"";
    out += ",\"degraded\":" + std::string(r.degraded ? "true" : "false");
    out += ",\"settled\":" + std::string(r.settled ? "true" : "false");
    out += ",\"throughput\":" + formatNumber(r.throughput);
    out += ",\"fairness\":" + formatNumber(r.fairness);
    out += ",\"w_t\":" + formatNumber(r.w_t);
    out += ",\"w_f\":" + formatNumber(r.w_f);
    out += ",\"objective\":" + formatNumber(r.objective);
    out += ",\"bo_samples\":" + std::to_string(r.bo_samples);
    out += ",\"proxy_change_pct\":" + formatNumber(r.proxy_change_pct);
    out += ",\"chosen_config\":\"" + escapeText(r.chosen_config) + "\"";
    out += ",\"outcome\":\"" + escapeText(r.outcome) + "\"";
    out += "}";
    return out;
}

} // namespace

void
DecisionAuditChannel::setCapacity(std::size_t capacity)
{
    common::MutexLock lock(mutex_);
    capacity_ = capacity > 0 ? capacity : 1;
    while (records_.size() > capacity_) {
        records_.pop_front();
        ++dropped_;
    }
}

std::size_t
DecisionAuditChannel::capacity() const
{
    common::MutexLock lock(mutex_);
    return capacity_;
}

void
DecisionAuditChannel::emit(DecisionRecord record)
{
    if (!enabled_)
        return;
    common::MutexLock lock(mutex_);
    records_.push_back(std::move(record));
    while (records_.size() > capacity_) {
        records_.pop_front();
        ++dropped_;
    }
}

std::size_t
DecisionAuditChannel::size() const
{
    common::MutexLock lock(mutex_);
    return records_.size();
}

std::uint64_t
DecisionAuditChannel::dropped() const
{
    common::MutexLock lock(mutex_);
    return dropped_;
}

void
DecisionAuditChannel::clear()
{
    common::MutexLock lock(mutex_);
    records_.clear();
    dropped_ = 0;
}

std::string
DecisionAuditChannel::jsonLines() const
{
    common::MutexLock lock(mutex_);
    std::string out;
    for (const DecisionRecord& r : records_)
        out += recordJson(r) + "\n";
    return out;
}

std::string
DecisionAuditChannel::tailJsonLines(std::size_t n) const
{
    common::MutexLock lock(mutex_);
    std::string out;
    const std::size_t take = n < records_.size() ? n : records_.size();
    for (std::size_t i = records_.size() - take; i < records_.size(); ++i)
        out += recordJson(records_[i]) + "\n";
    return out;
}

void
DecisionAuditChannel::writeJsonl(const std::string& path) const
{
    // Atomic install: readers never observe a partially written log.
    satori::atomicWriteFile(path, jsonLines());
}

} // namespace obs
} // namespace satori
