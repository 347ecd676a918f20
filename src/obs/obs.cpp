#include "satori/obs/obs.hpp"

#include <sstream>

#include "satori/common/io.hpp"
#include "satori/common/logging.hpp"

namespace satori {
namespace obs {

namespace {

/** Numeric encoding of a guard verdict for the facts.guard series. */
double
guardVerdictValue(const std::string& verdict)
{
    if (verdict == "healthy")
        return 1.0;
    if (verdict == "repaired")
        return 2.0;
    if (verdict == "unusable")
        return 3.0;
    return 0.0; // "off" or not yet reported.
}

} // namespace

LibraryMetrics::LibraryMetrics(MetricsRegistry& registry)
    : controller_decisions(registry.counter(
          "satori.controller.decisions",
          "Total controller decide() invocations")),
      controller_degraded(registry.counter(
          "satori.controller.degraded_intervals",
          "Intervals spent in the equal-partition degraded fallback")),
      controller_holds(registry.counter(
          "satori.controller.holds",
          "Decisions held because the telemetry sample was unusable")),
      controller_retries(registry.counter(
          "satori.controller.actuation_retries",
          "Decisions that re-issued a config after an actuation "
          "mismatch")),
      controller_settles(registry.counter(
          "satori.controller.settles",
          "Transitions from exploration into the settled state")),
      bo_fits(registry.counter("satori.bo.fits",
                               "Proxy-model refits over the sample set")),
      bo_grid_refits(registry.counter(
          "satori.bo.grid_refits",
          "Proxy-model refits that re-ran the hyperparameter grid")),
      bo_suggests(registry.counter(
          "satori.bo.suggests",
          "Acquisition maximizations over a candidate set")),
      bo_screen_kept(registry.counter(
          "satori.bo.screen_kept",
          "Candidates kept by acquisition screening (none runs: "
          "always 0)")),
      bo_screen_pruned(registry.counter(
          "satori.bo.screen_pruned",
          "Candidates pruned by acquisition screening (none runs: "
          "always 0)")),
      gp_fits(registry.counter(
          "satori.gp.fits",
          "Gaussian-process Cholesky factorizations")),
      gp_incremental_updates(registry.counter(
          "satori.gp.incremental_updates",
          "Rank-1 Cholesky appends that skipped the full refit")),
      guard_healthy(registry.counter(
          "satori.guard.healthy",
          "Telemetry samples the guard passed through unchanged")),
      guard_repaired(registry.counter(
          "satori.guard.repaired",
          "Telemetry samples the guard repaired before use")),
      guard_unusable(registry.counter(
          "satori.guard.unusable",
          "Telemetry samples the guard rejected as unusable")),
      faults_injected(registry.counter(
          "satori.faults.injected",
          "Fault-injector activations flagged during runs")),
      sim_steps(registry.counter(
          "satori.sim.steps",
          "Simulated-server interval advances")),
      harness_intervals(registry.counter(
          "satori.harness.intervals",
          "Control intervals executed by the experiment harness")),
      persist_wal_records(registry.counter(
          "satori.persist.wal_records",
          "Interval records appended to the write-ahead log")),
      persist_snapshots(registry.counter(
          "satori.persist.snapshots",
          "Controller-state snapshots installed")),
      persist_snapshot_bytes(registry.counter(
          "satori.persist.snapshot_bytes",
          "Total snapshot payload bytes written")),
      slo_breaches(registry.counter(
          "satori.slo.breaches",
          "SLO watchdog rules that entered breach")),
      http_requests(registry.counter(
          "satori.http.requests",
          "HTTP requests served by the embedded exporter")),
      bo_samples(registry.gauge(
          "satori.bo.samples",
          "Proxy-model training-set size after the last update")),
      controller_w_t(registry.gauge(
          "satori.controller.w_t",
          "Dynamic throughput weight used by the last decision")),
      controller_w_f(registry.gauge(
          "satori.controller.w_f",
          "Dynamic fairness weight used by the last decision")),
      controller_objective(registry.gauge(
          "satori.controller.objective",
          "Combined objective value of the last scored interval")),
      bo_candidates(registry.histogram(
          "satori.bo.candidates",
          "Candidate configurations evaluated per suggest call",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0})),
      gp_training_size(registry.histogram(
          "satori.gp.training_size",
          "Training-set size at each GP fit",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0}))
{
}

Observability::Observability() : lib_(metrics_)
{
}

Observability&
Observability::instance()
{
    // Meyers singleton; members guard their own state (see
    // include/satori/obs/registry.hpp).
    // satori-analyzer: allow(conc-global-mutable)
    static Observability ctx;
    return ctx;
}

const char*
HealthView::status() const
{
    if (slo_breaching > 0)
        return "breaching";
    if (degraded)
        return "degraded";
    return "ok";
}

bool
HealthView::ok() const
{
    return slo_breaching == 0 && !degraded;
}

std::string
HealthView::toJson() const
{
    std::ostringstream out;
    out << "{\"status\":\"" << status() << "\""
        << ",\"intervals\":" << intervals
        << ",\"last_interval\":" << last_interval
        << ",\"time\":" << formatNumber(time)
        << ",\"have_decision\":" << (have_decision ? "true" : "false")
        << ",\"guard_verdict\":\"" << guard_verdict << "\""
        << ",\"degraded\":" << (degraded ? "true" : "false")
        << ",\"settled\":" << (settled ? "true" : "false")
        << ",\"objective\":" << formatNumber(objective)
        << ",\"slo_rules\":" << slo_rules
        << ",\"slo_breaching\":" << slo_breaching
        << ",\"slo_breaches\":" << slo_breaches
        << ",\"history_enabled\":" << (history_enabled ? "true" : "false")
        << ",\"history_snapshots\":" << history_snapshots
        << ",\"history_evicted\":" << history_evicted << "}";
    return out.str();
}

void
Observability::noteDecision(const DecisionRecord& record)
{
    common::MutexLock lock(live_mutex_);
    last_decision_ = record;
    have_decision_ = true;
}

void
Observability::onHarnessInterval(std::uint64_t interval, double time,
                                 const std::vector<double>& ips,
                                 double throughput, double fairness)
{
    if (!live_enabled_)
        return;

    // Per-interval facts: the harness-side goal values plus the
    // controller's last reported decision state.
    std::vector<std::pair<std::string, double>> facts;
    facts.reserve(12);
    double ips_sum = 0.0;
    for (double v : ips)
        ips_sum += v;
    facts.emplace_back("facts.throughput", throughput);
    facts.emplace_back("facts.fairness", fairness);
    facts.emplace_back("facts.ips_mean",
                       ips.empty()
                           ? 0.0
                           : ips_sum / static_cast<double>(ips.size()));
    {
        common::MutexLock lock(live_mutex_);
        ++live_intervals_;
        live_last_interval_ = interval;
        live_time_ = time;
        if (have_decision_) {
            facts.emplace_back("facts.objective", last_decision_.objective);
            facts.emplace_back("facts.w_t", last_decision_.w_t);
            facts.emplace_back("facts.w_f", last_decision_.w_f);
            facts.emplace_back("facts.degraded",
                               last_decision_.degraded ? 1.0 : 0.0);
            facts.emplace_back("facts.settled",
                               last_decision_.settled ? 1.0 : 0.0);
            facts.emplace_back(
                "facts.guard",
                guardVerdictValue(last_decision_.guard_verdict));
            facts.emplace_back(
                "facts.bo_samples",
                static_cast<double>(last_decision_.bo_samples));
        }
    }

    if (history_.enabled())
        history_.record(time, interval, metrics_.snapshot(), facts);

    if (watchdog_.enabled()) {
        const std::vector<SloEvent> fired =
            watchdog_.evaluate(history_, time, interval);
        if (!fired.empty())
            lib_.slo_breaches.inc(fired.size());
        if (!fired.empty() && watchdog_.fatalOnBreach())
            SATORI_FATAL("SLO breach: " + fired.front().rule.toString() +
                         " (value " + formatNumber(fired.front().value) +
                         " at interval " +
                         std::to_string(fired.front().interval) + ")");
    }
}

HealthView
Observability::healthView() const
{
    HealthView view;
    {
        common::MutexLock lock(live_mutex_);
        view.intervals = live_intervals_;
        view.last_interval = live_last_interval_;
        view.time = live_time_;
        view.have_decision = have_decision_;
        if (have_decision_) {
            view.guard_verdict = last_decision_.guard_verdict;
            view.degraded = last_decision_.degraded;
            view.settled = last_decision_.settled;
            view.objective = last_decision_.objective;
        }
    }
    view.slo_rules = watchdog_.spec().rules().size();
    view.slo_breaching = watchdog_.breaching();
    view.slo_breaches = watchdog_.breachCount();
    view.history_enabled = history_.enabled();
    view.history_snapshots = history_.snapshots();
    view.history_evicted = history_.evicted();
    return view;
}

void
Observability::resetAll()
{
    metrics_.reset();
    tracer_.clear();
    tracer_.setEnabled(false);
    audit_.clear();
    audit_.setEnabled(false);
    audit_.setCapacity(DecisionAuditChannel::kDefaultCapacity);
    history_.clear();
    history_.setEnabled(false);
    history_.configure(StatsHistoryOptions{});
    watchdog_.clear();
    metrics_enabled_ = false;
    live_enabled_ = false;
    {
        common::MutexLock lock(live_mutex_);
        live_intervals_ = 0;
        live_last_interval_ = 0;
        live_time_ = 0.0;
        have_decision_ = false;
        last_decision_ = DecisionRecord{};
    }
}

Observability&
observability()
{
    return Observability::instance();
}

} // namespace obs
} // namespace satori
