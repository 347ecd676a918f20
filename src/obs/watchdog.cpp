/**
 * @file
 * SLO spec parsing and per-interval rule evaluation. See
 * include/satori/obs/watchdog.hpp for the contract.
 */

#include "satori/obs/watchdog.hpp"

#include <fstream>
#include <sstream>

#include "satori/common/io.hpp"
#include "satori/common/logging.hpp"

namespace satori {
namespace obs {

const char* sloOpName(SloOp op)
{
    switch (op)
    {
    case SloOp::Lt:
        return "<";
    case SloOp::Le:
        return "<=";
    case SloOp::Gt:
        return ">";
    case SloOp::Ge:
        return ">=";
    }
    return "?";
}

bool SloRule::violates(double value) const
{
    switch (op)
    {
    case SloOp::Lt:
        return value < threshold;
    case SloOp::Le:
        return value <= threshold;
    case SloOp::Gt:
        return value > threshold;
    case SloOp::Ge:
        return value >= threshold;
    }
    return false;
}

std::string SloRule::toString() const
{
    std::ostringstream out;
    out << metric << " " << sloOpName(op) << " " << formatNumber(threshold)
        << " for " << for_intervals << " intervals";
    return out.str();
}

SloSpec::SloSpec(std::vector<SloRule> rules) : rules_(std::move(rules)) {}

SloSpec SloSpec::parse(const std::string& text, const std::string& source)
{
    std::vector<SloRule> rules;
    std::istringstream lines(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(lines, line))
    {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        std::string metric;
        if (!(fields >> metric))
            continue; // Blank or comment-only line.

        const auto fail = [&](const std::string& what) {
            SATORI_FATAL(source + ":" + std::to_string(line_no) +
                         ": bad SLO rule: " + what);
        };

        SloRule rule;
        rule.metric = metric;
        std::string op;
        if (!(fields >> op))
            fail("missing operator");
        if (op == "<")
            rule.op = SloOp::Lt;
        else if (op == "<=")
            rule.op = SloOp::Le;
        else if (op == ">")
            rule.op = SloOp::Gt;
        else if (op == ">=")
            rule.op = SloOp::Ge;
        else
            fail("unknown operator '" + op + "' (want <, <=, >, >=)");
        if (!(fields >> rule.threshold))
            fail("missing or non-numeric threshold");
        std::string keyword;
        if (!(fields >> keyword) || keyword != "for")
            fail("expected 'for <k>' after the threshold");
        long long k = 0;
        if (!(fields >> k) || k < 1)
            fail("persistence must be an integer >= 1");
        rule.for_intervals = static_cast<std::size_t>(k);
        std::string trailing;
        if (fields >> trailing && trailing != "intervals")
            fail("unexpected trailing token '" + trailing + "'");
        if (fields >> trailing)
            fail("unexpected trailing token '" + trailing + "'");
        rules.push_back(std::move(rule));
    }
    return SloSpec(std::move(rules));
}

SloSpec SloSpec::loadFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        SATORI_FATAL("cannot open SLO spec: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str(), path);
}

std::string SloSpec::toString() const
{
    std::ostringstream out;
    for (const SloRule& rule : rules_)
        out << rule.toString() << "\n";
    return out.str();
}

std::string SloEvent::toJson() const
{
    std::ostringstream out;
    out << "{\"type\":\"slo_breach\",\"interval\":" << interval
        << ",\"time\":" << formatNumber(time) << ",\"metric\":\""
        << rule.metric << "\",\"op\":\"" << sloOpName(rule.op)
        << "\",\"threshold\":" << formatNumber(rule.threshold)
        << ",\"for_intervals\":" << rule.for_intervals
        << ",\"value\":" << formatNumber(value) << "}";
    return out.str();
}

void Watchdog::configure(SloSpec spec)
{
    common::MutexLock lock(mutex_);
    spec_ = std::move(spec);
    states_.assign(spec_.rules().size(), RuleState{});
    events_.clear();
    breach_count_ = 0;
}

bool Watchdog::enabled() const
{
    common::MutexLock lock(mutex_);
    return !spec_.empty();
}

SloSpec Watchdog::spec() const
{
    common::MutexLock lock(mutex_);
    return spec_;
}

void Watchdog::setFatalOnBreach(bool fatal)
{
    common::MutexLock lock(mutex_);
    fatal_on_breach_ = fatal;
}

bool Watchdog::fatalOnBreach() const
{
    common::MutexLock lock(mutex_);
    return fatal_on_breach_;
}

std::vector<SloEvent> Watchdog::evaluate(const StatsHistory& history,
                                         double time, std::uint64_t interval)
{
    std::vector<SloEvent> fired;
    common::MutexLock lock(mutex_);
    const std::vector<SloRule>& rules = spec_.rules();
    for (std::size_t i = 0; i < rules.size(); ++i)
    {
        const SloRule& rule = rules[i];
        RuleState& state = states_[i];
        const std::optional<double> value = history.latest(rule.metric);
        // An absent metric is healthy, not breaching: rules may name
        // series (e.g. facts.*) that only appear once the controller
        // has produced a decision.
        if (!value || !rule.violates(*value))
        {
            state.consecutive = 0;
            state.breaching = false;
            continue;
        }
        ++state.consecutive;
        if (state.consecutive < rule.for_intervals || state.breaching)
            continue;
        state.breaching = true;
        ++breach_count_;
        SloEvent event;
        event.interval = interval;
        event.time = time;
        event.rule = rule;
        event.value = *value;
        events_.push_back(event);
        while (events_.size() > kMaxEvents)
            events_.pop_front();
        fired.push_back(std::move(event));
    }
    return fired;
}

std::size_t Watchdog::breaching() const
{
    common::MutexLock lock(mutex_);
    std::size_t n = 0;
    for (const RuleState& state : states_)
        if (state.breaching)
            ++n;
    return n;
}

std::uint64_t Watchdog::breachCount() const
{
    common::MutexLock lock(mutex_);
    return breach_count_;
}

std::vector<SloEvent> Watchdog::events() const
{
    common::MutexLock lock(mutex_);
    return {events_.begin(), events_.end()};
}

std::string Watchdog::eventsJsonl() const
{
    common::MutexLock lock(mutex_);
    std::ostringstream out;
    for (const SloEvent& event : events_)
        out << event.toJson() << "\n";
    return out.str();
}

void Watchdog::clear()
{
    common::MutexLock lock(mutex_);
    spec_ = SloSpec();
    states_.clear();
    events_.clear();
    breach_count_ = 0;
    fatal_on_breach_ = false;
}

} // namespace obs
} // namespace satori
