#include "satori/core/controller.hpp"

#include <algorithm>
#include <cmath>

#include "satori/analysis/invariants.hpp"
#include "satori/common/logging.hpp"
#include "satori/metrics/metrics.hpp"
#include "satori/obs/obs.hpp"
#include "satori/persist/codec.hpp"
#include "satori/persist/state.hpp"

namespace satori {
namespace core {
namespace {

/** Probe points kept for Fig. 17(b) proxy-change diagnostics. */
constexpr std::size_t kNumProbes = 48;

/** Minimum samples before settling is allowed. */
constexpr std::size_t kMinExploreSamples = 40;

/** Maximum structured seed configurations evaluated at warm-up. */
constexpr std::size_t kMaxSeeds = 9;

/**
 * Fractional drop of the measured balanced objective below its
 * settled reference that re-activates exploration (the paper: SATORI
 * "is invoked only when the performance of a specific job changes
 * significantly or the job mix changes"). Two consecutive violating
 * intervals are required to filter noise.
 */
constexpr double kReactivateThreshold = 0.08;

/**
 * On reactivation, trim the goal records to this many most-recent
 * samples so measurements from the stale program phase do not drag
 * the incumbent selection.
 */
constexpr std::size_t kReactivateKeepSamples = 30;

/**
 * Convergence detection (Sec. V): once the best balanced objective
 * has not improved for this many exploring iterations, SATORI settles
 * on the incumbent configuration and stops updating the GP ("avoiding
 * frequent updates to the GP model after the optimal configuration
 * detection").
 */
constexpr std::size_t kStallIntervals = 12;

/**
 * Hard cap on an exploration burst: after this many exploring
 * iterations SATORI settles on the best configuration found so far
 * even if the search was still improving, bounding the time jobs
 * spend under speculative configurations.
 */
constexpr std::size_t kBurstMaxIntervals = 20;

/**
 * Actuation verification: when the configuration observed in force
 * (IntervalObservation::config) is not the one last requested,
 * re-issue the request up to this many consecutive times before
 * adopting the observed configuration as the operating point.
 */
constexpr std::size_t kActuationRetry = 3;

/**
 * Degraded mode: after this many consecutive unusable telemetry
 * intervals, fall back to the equal partition and freeze all GP /
 * weight / goal-record updates.
 */
constexpr std::size_t kDegradedAfter = 10;

/** Consecutive healthy intervals that end degraded mode. */
constexpr std::size_t kRecoverAfter = 3;

} // namespace

std::string
goalModeName(GoalMode mode)
{
    switch (mode) {
      case GoalMode::Balanced:
        return "SATORI";
      case GoalMode::StaticEqual:
        return "SATORI-static";
      case GoalMode::ThroughputOnly:
        return "Throughput-SATORI";
      case GoalMode::FairnessOnly:
        return "Fairness-SATORI";
    }
    SATORI_PANIC("unknown GoalMode");
}

SatoriController::SatoriController(const PlatformSpec& platform,
                                   std::size_t num_jobs,
                                   SatoriOptions options)
    : options_(std::move(options)), space_(platform, num_jobs),
      candgen_(space_, options_.candidates),
      recorder_(options_.objective.numGoals(), options_.window),
      weight_controller_(options_.weights), rng_(options_.seed),
      guard_(num_jobs),
      equal_config_(Configuration::equalPartition(platform, num_jobs))
{
    seeds_ = candgen_.seedConfigurations();
    if (seeds_.size() > kMaxSeeds) {
        // Keep the equal partition plus an even spread of variants.
        std::vector<Configuration> kept;
        kept.push_back(seeds_.front());
        const std::size_t stride =
            (seeds_.size() - 1 + kMaxSeeds - 2) / (kMaxSeeds - 1);
        for (std::size_t i = 1; i < seeds_.size(); i += stride)
            kept.push_back(seeds_[i]);
        seeds_ = std::move(kept);
    }
    SATORI_ASSERT(!seeds_.empty());
    // A fixed probe set for proxy-model-change diagnostics (Fig. 17b).
    Rng probe_rng = rng_.split();
    std::vector<Configuration> probes;
    probes.reserve(kNumProbes);
    for (std::size_t i = 0; i < kNumProbes; ++i)
        probes.push_back(space_.sample(probe_rng));
    probes_ = bo::SoaPoints(probes);
}

std::string
SatoriController::name() const
{
    return goalModeName(options_.mode);
}

std::pair<double, double>
SatoriController::currentWeights(double throughput, double fairness)
{
    switch (options_.mode) {
      case GoalMode::Balanced: {
        diagnostics_.weights =
            weight_controller_.update(throughput, fairness);
        return {diagnostics_.weights.w_t, diagnostics_.weights.w_f};
      }
      case GoalMode::StaticEqual:
        diagnostics_.weights = WeightComponents{};
        return {0.5, 0.5};
      case GoalMode::ThroughputOnly:
        diagnostics_.weights = WeightComponents{};
        diagnostics_.weights.w_t = 1.0;
        diagnostics_.weights.w_f = 0.0;
        return {1.0, 0.0};
      case GoalMode::FairnessOnly:
        diagnostics_.weights = WeightComponents{};
        diagnostics_.weights.w_t = 0.0;
        diagnostics_.weights.w_f = 1.0;
        return {0.0, 1.0};
    }
    SATORI_PANIC("unknown GoalMode");
}

const Configuration&
SatoriController::holdCourse() const
{
    if (settled_)
        return settled_config_;
    if (last_decision_.numJobs() > 0)
        return last_decision_;
    return equal_config_;
}

void
SatoriController::recordOnly(const IntervalObservation& obs)
{
    const std::vector<double> goals = options_.objective.goalValues(obs);
    recorder_.add(obs.config, goals);
    diagnostics_.throughput = goals[0];
    diagnostics_.fairness = goals[1];
    const auto [w_t, w_f] = currentWeights(goals[0], goals[1]);
    diagnostics_.objective_value = w_t * goals[0] + w_f * goals[1];
    diagnostics_.num_samples = recorder_.size();
}

void
SatoriController::restartExploration()
{
    settled_ = false;
    stall_counter_ = 0;
    best_balanced_ = -1.0;
    settled_ref_objective_ = -1.0;
    reactivate_strikes_ = 0;
    settled_warmup_ = 0;
    burst_len_ = 0;
    recorder_.trimToRecent(kReactivateKeepSamples);
}

Configuration
SatoriController::decide(const IntervalObservation& raw_obs)
{
    SATORI_OBS_SPAN("controller.decide");
    ++decide_calls_;
    SATORI_OBS_METRIC(controller_decisions.inc());

    // Telemetry validation: repair or reject the observation before
    // any of its values can reach the recorder, the weight clock, or
    // the GP. Unhardened, every interval counts as healthy and the
    // method reduces to Algorithm 1 exactly.
    IntervalObservation obs = raw_obs;
    const SampleHealth health =
        options_.hardened ? guard_.filter(obs) : SampleHealth::Healthy;
    if (health == SampleHealth::Unusable) {
        ++unusable_streak_;
        healthy_streak_ = 0;
        ++diagnostics_.unusable_intervals;
    } else if (health == SampleHealth::Healthy) {
        unusable_streak_ = 0;
        ++healthy_streak_;
    } else { // Repaired: counts as neither unusable nor fully healthy.
        unusable_streak_ = 0;
        healthy_streak_ = 0;
    }

    // Degraded fallback: repeated unusable telemetry means every
    // decision would be built on lies. Run the equal partition (the
    // fair static choice) and freeze all learning until the stream
    // recovers; then re-explore from trimmed records, exactly like a
    // reactivation.
    if (degraded_) {
        if (healthy_streak_ >= kRecoverAfter) {
            degraded_ = false;
            restartExploration();
        } else {
            diagnostics_.degraded = true;
            diagnostics_.settled = false;
            expected_config_ = equal_config_;
            has_expected_ = true;
            SATORI_OBS_METRIC(controller_degraded.inc());
            emitObsAudit(obs, health, equal_config_, "degraded");
            return equal_config_;
        }
    } else if (unusable_streak_ >= kDegradedAfter) {
        degraded_ = true;
        ++diagnostics_.degraded_entries;
        diagnostics_.degraded = true;
        diagnostics_.settled = false;
        expected_config_ = equal_config_;
        has_expected_ = true;
        SATORI_OBS_METRIC(controller_degraded.inc());
        emitObsAudit(obs, health, equal_config_, "degraded");
        return equal_config_;
    }
    diagnostics_.degraded = false;

    // An isolated unusable interval (budget-exhausted NaN stream,
    // size mismatch): learn nothing, hold the current course.
    if (health == SampleHealth::Unusable) {
        const Configuration& hold = holdCourse();
        expected_config_ = hold;
        has_expected_ = true;
        SATORI_OBS_METRIC(controller_holds.inc());
        emitObsAudit(obs, health, hold, "hold");
        return hold;
    }

    // Actuation verification: obs.config is what actually ran. If it
    // is not what was requested, the actuation was dropped, delayed,
    // or partially applied - re-issue the request a bounded number of
    // times before accepting reality. The interval is still recorded
    // (it is a true sample of obs.config) and the weight clock still
    // advances.
    if (options_.hardened && has_expected_) {
        if (obs.config == expected_config_) {
            actuation_retries_ = 0;
        } else {
            ++diagnostics_.actuation_mismatches;
            if (actuation_retries_ < kActuationRetry) {
                ++actuation_retries_;
                ++diagnostics_.actuation_retries;
                recordOnly(obs);
                SATORI_OBS_METRIC(controller_retries.inc());
                emitObsAudit(obs, health, expected_config_,
                             "retry-actuation");
                return expected_config_;
            }
            actuation_retries_ = 0; // give up; adopt the observed state
        }
    }

    const Configuration decision = decideCore(obs);
    expected_config_ = decision;
    has_expected_ = true;
    emitObsAudit(obs, health, decision, last_outcome_);
    return decision;
}

Configuration
SatoriController::decideCore(const IntervalObservation& obs)
{
    // (1) Record the outcome of the configuration that just ran,
    // keeping each goal's value separately (Sec. III-B).
    const std::vector<double> goals = options_.objective.goalValues(obs);
    recorder_.add(obs.config, goals);
    diagnostics_.throughput = goals[0];
    diagnostics_.fairness = goals[1];

    // Dynamic weights are tracked in both states so the long-term
    // 0.5-average property holds across settle/explore transitions.
    const auto [w_t, w_f] = currentWeights(goals[0], goals[1]);
    SATORI_OBS_METRIC(controller_w_t.set(w_t));
    SATORI_OBS_METRIC(controller_w_f.set(w_f));

    // Audit the interval the controller is acting on: the incoming
    // configuration must be feasible and the regenerated per-goal
    // values and weight vector sane (Jain in (0, 1], weights ~1).
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkAllocation(
        space_.platform(), space_.numJobs(), obs.config, __FILE__,
        __LINE__));
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkObjective(
        goals, options_.objective.weightVector(w_t, w_f),
        options_.objective.fairnessMetric() == FairnessMetric::JainIndex,
        __FILE__, __LINE__));

    // (1b) While settled, skip all GP work (the paper's overhead
    // optimization) and just watch for a significant drop of the
    // balanced objective, signalling a phase or mix change.
    if (settled_) {
        diagnostics_.settled = true;
        diagnostics_.num_samples = recorder_.size();
        diagnostics_.proxy_change_pct = 0.0;
        diagnostics_.objective_value =
            w_t * goals[0] + w_f * goals[1];
        SATORI_OBS_METRIC(
            controller_objective.set(diagnostics_.objective_value));
        const double balanced_now = 0.5 * goals[0] + 0.5 * goals[1];
        // Temporary prioritization acts while settled too: every
        // prioritization boundary the incumbent is re-selected under
        // the *current* weights, so a throughput-priority period runs
        // a throughput-leaning configuration and vice versa - the
        // short-term trade the paper exploits (Sec. III-C, Fig. 3).
        if (options_.mode == GoalMode::Balanced &&
            diagnostics_.weights.prioritization_boundary &&
            !recorder_.empty()) {
            const std::vector<double> w_now =
                options_.objective.weightVector(w_t, w_f);
            const std::size_t best_i =
                recorder_.bestSampleByAveragedObjective(
                    w_now, options_.incumbent_kappa);
            const Configuration& choice =
                recorder_.sample(best_i).config;
            if (!(choice == settled_config_)) {
                settled_config_ = choice;
                settled_ref_objective_ = -1.0; // re-anchor reference
                reactivate_strikes_ = 0;
            }
        }
        bool reactivate = false;
        if (settled_ref_objective_ < 0.0) {
            // Anchor the reference only after the reconfiguration
            // transient of switching to the settled configuration has
            // decayed; otherwise the recovery itself looks like a
            // performance change and re-triggers exploration.
            if (obs.config == settled_config_ && ++settled_warmup_ >= 3)
                settled_ref_objective_ = balanced_now;
        } else if (balanced_now <
                   settled_ref_objective_ * (1.0 - kReactivateThreshold)) {
            reactivate = (++reactivate_strikes_ >= 2);
        } else {
            reactivate_strikes_ = 0;
            settled_ref_objective_ =
                std::max(settled_ref_objective_,
                         0.9 * settled_ref_objective_ + 0.1 * balanced_now);
        }
        if (!reactivate) {
            last_outcome_ = "settled";
            return settled_config_;
        }
        restartExploration();
    }
    diagnostics_.settled = false;
    ++burst_len_;

    // (2) Regenerate the objective function under the current dynamic
    // weights and software-reconstruct the proxy model.
    const std::vector<double> weights =
        options_.objective.weightVector(w_t, w_f);
    const std::vector<double> y = recorder_.combined(weights);
    diagnostics_.objective_value = y.back();
    SATORI_OBS_METRIC(
        controller_objective.set(diagnostics_.objective_value));
    engine_.setSamples(recorder_.inputs(), y);
    diagnostics_.num_samples = recorder_.size();
    SATORI_OBS_METRIC(
        bo_samples.set(static_cast<double>(recorder_.size())));

    // Convergence tracking on the weight-independent balanced
    // objective: settling must not depend on the moving goal post.
    const double balanced = 0.5 * goals[0] + 0.5 * goals[1];
    if (balanced > best_balanced_ + 1e-3) {
        best_balanced_ = balanced;
        stall_counter_ = 0;
    } else {
        ++stall_counter_;
    }

    // Proxy-change diagnostic (Fig. 17b): mean absolute % change of
    // the model's estimates at a fixed probe set.
    const std::vector<double> probe_means = engine_.probeMeans(probes_);
    if (!last_probe_means_.empty()) {
        double change = 0.0;
        for (std::size_t i = 0; i < probe_means.size(); ++i) {
            const double prev = last_probe_means_[i];
            const double denom = std::max(std::abs(prev), 1e-6);
            change += std::abs(probe_means[i] - prev) / denom;
        }
        diagnostics_.proxy_change_pct =
            100.0 * change / static_cast<double>(probe_means.size());
    }
    last_probe_means_ = probe_means;

    // (3) During warm-up, evaluate the structured S_init list first
    // (Algorithm 1 input; Sec. V initialization-sensitivity note).
    if (next_seed_ < seeds_.size()) {
        last_decision_ = seeds_[next_seed_++];
        last_outcome_ = "seed";
        return last_decision_;
    }

    // (3b) Settle on the incumbent best once the search has stalled
    // or the burst budget is exhausted (Sec. V: stop GP updates after
    // optimal-configuration detection).
    const bool stalled = stall_counter_ >= kStallIntervals;
    const bool burst_spent = burst_len_ >= kBurstMaxIntervals;
    if ((stalled || burst_spent) &&
        recorder_.size() >= kMinExploreSamples) {
        // Incumbent under the *current dynamic weights*: temporary
        // prioritization decides which configuration wins now, while
        // the equalization mechanism guarantees both goals receive
        // equal weight in the long run (Sec. III-C).
        const std::size_t best_i = recorder_.bestSampleByAveragedObjective(
            weights, options_.incumbent_kappa);
        settled_ = true;
        settled_config_ = recorder_.sample(best_i).config;
        settled_ref_objective_ = -1.0;
        reactivate_strikes_ = 0;
        settled_warmup_ = 0;
        diagnostics_.settled = true;
        SATORI_OBS_METRIC(controller_settles.inc());
        last_outcome_ = "settled";
        return settled_config_;
    }

    // (4) Maximize the acquisition function over the candidate set
    // generated around the incumbent.
    const Configuration& incumbent =
        recorder_
            .sample(recorder_.bestSampleByAveragedObjective(
                weights, options_.incumbent_kappa))
            .config;
    std::vector<Configuration> candidates =
        candgen_.generate(incumbent, rng_);
    // Fairness-repair candidates: moves of 2-4 units of each resource
    // from the least- to the most-slowed job, from the incumbent.
    // Multi-unit moves let a single decision cross working-set cliffs
    // that one-unit explorers are blind to. The 1-unit move is one of
    // the incumbent's neighbors, already in the set under the same
    // units > 1 condition, so it is applied but not pushed again.
    {
        const std::vector<double> spd =
            speedups(obs.ips, obs.isolation_ips);
        JobIndex worst = 0, best_j = 0;
        for (JobIndex j = 1; j < spd.size(); ++j) {
            if (spd[j] < spd[worst])
                worst = j;
            if (spd[j] > spd[best_j])
                best_j = j;
        }
        if (worst != best_j) {
            for (std::size_t r = 0; r < space_.platform().numResources();
                 ++r) {
                Configuration c = incumbent;
                for (int step = 0; step < 4; ++step) {
                    if (!c.transferUnit(r, best_j, worst))
                        break;
                    if (step > 0)
                        candidates.push_back(c);
                }
            }
        }
    }
    last_decision_ =
        candidates[engine_.suggestIndex(bo::SoaPoints(candidates))];
    last_outcome_ = "explore";
    return last_decision_;
}

void
SatoriController::emitObsAudit(const IntervalObservation& observation,
                               SampleHealth health,
                               const Configuration& decision,
                               const char* outcome) const
{
#if defined(SATORI_OBS_ENABLED) && SATORI_OBS_ENABLED
    satori::obs::Observability& ctx = satori::obs::observability();
    satori::obs::DecisionAuditChannel& channel = ctx.audit();
    // The record feeds two one-way sinks: the audit ring and the live
    // plane's /healthz + facts.* history series. Build it if either
    // wants it.
    if (!channel.enabled() && !ctx.liveEnabled())
        return;
    satori::obs::DecisionRecord rec;
    rec.interval = decide_calls_ - 1;
    rec.time = observation.time;
    rec.policy = goalModeName(options_.mode);
    rec.observed_ips.assign(observation.ips.begin(),
                            observation.ips.end());
    if (!options_.hardened) {
        rec.guard_verdict = "off";
    } else {
        switch (health) {
          case SampleHealth::Healthy:
            rec.guard_verdict = "healthy";
            break;
          case SampleHealth::Repaired:
            rec.guard_verdict = "repaired";
            break;
          case SampleHealth::Unusable:
            rec.guard_verdict = "unusable";
            break;
        }
    }
    rec.degraded = diagnostics_.degraded;
    rec.settled = diagnostics_.settled;
    rec.throughput = diagnostics_.throughput;
    rec.fairness = diagnostics_.fairness;
    rec.w_t = diagnostics_.weights.w_t;
    rec.w_f = diagnostics_.weights.w_f;
    rec.objective = diagnostics_.objective_value;
    rec.bo_samples = diagnostics_.num_samples;
    rec.proxy_change_pct = diagnostics_.proxy_change_pct;
    rec.chosen_config = decision.toString();
    rec.outcome = outcome;
    if (ctx.liveEnabled())
        ctx.noteDecision(rec);
    if (channel.enabled())
        channel.emit(std::move(rec));
#else
    (void)observation;
    (void)health;
    (void)decision;
    (void)outcome;
#endif
}

void
SatoriController::reset()
{
    recorder_.clear();
    weight_controller_.resetPeriods();
    next_seed_ = 0;
    last_probe_means_.clear();
    settled_ = false;
    settled_ref_objective_ = -1.0;
    reactivate_strikes_ = 0;
    settled_warmup_ = 0;
    best_balanced_ = -1.0;
    stall_counter_ = 0;
    burst_len_ = 0;
    guard_.reset();
    degraded_ = false;
    unusable_streak_ = 0;
    healthy_streak_ = 0;
    has_expected_ = false;
    actuation_retries_ = 0;
    decide_calls_ = 0;
    last_outcome_ = "";
    diagnostics_ = SatoriDiagnostics{};
    engine_ = bo::BoEngine();
}

void
SatoriController::saveState(persist::StateWriter& w) const
{
    engine_.saveState(w);
    recorder_.saveState(w);
    weight_controller_.saveState(w);
    rng_.saveState(w);
    w.putSize(next_seed_);
    w.putDoubleVec(last_probe_means_);

    w.putBool(settled_);
    persist::putConfiguration(w, settled_config_);
    w.putDouble(settled_ref_objective_);
    w.putI64(reactivate_strikes_);
    w.putI64(settled_warmup_);
    w.putDouble(best_balanced_);
    w.putSize(stall_counter_);
    w.putSize(burst_len_);
    persist::putConfiguration(w, last_decision_);

    guard_.saveState(w);
    w.putBool(degraded_);
    w.putSize(unusable_streak_);
    w.putSize(healthy_streak_);
    persist::putConfiguration(w, expected_config_);
    w.putBool(has_expected_);
    w.putSize(actuation_retries_);
    w.putSize(decide_calls_);

    const SatoriDiagnostics& d = diagnostics_;
    w.putDouble(d.weights.w_t);
    w.putDouble(d.weights.w_f);
    w.putDouble(d.weights.w_te);
    w.putDouble(d.weights.w_fe);
    w.putDouble(d.weights.w_tp);
    w.putDouble(d.weights.w_fp);
    w.putDouble(d.weights.blend);
    w.putBool(d.weights.equalization_boundary);
    w.putBool(d.weights.prioritization_boundary);
    w.putDouble(d.objective_value);
    w.putDouble(d.throughput);
    w.putDouble(d.fairness);
    w.putDouble(d.proxy_change_pct);
    w.putSize(d.num_samples);
    w.putBool(d.settled);
    w.putBool(d.degraded);
    w.putSize(d.degraded_entries);
    w.putSize(d.actuation_mismatches);
    w.putSize(d.actuation_retries);
    w.putSize(d.unusable_intervals);
}

void
SatoriController::restoreState(persist::StateReader& r)
{
    engine_.restoreState(r);
    recorder_.restoreState(r);
    weight_controller_.restoreState(r);
    rng_.restoreState(r);
    next_seed_ = r.getSize();
    if (next_seed_ > seeds_.size())
        SATORI_FATAL("controller state seed cursor " +
                     std::to_string(next_seed_) + " exceeds the " +
                     std::to_string(seeds_.size()) + " seeds of this "
                     "instance (options mismatch?)");
    last_probe_means_ = r.getDoubleVec();

    settled_ = r.getBool();
    settled_config_ = persist::getConfiguration(r);
    settled_ref_objective_ = r.getDouble();
    reactivate_strikes_ = static_cast<int>(r.getI64());
    settled_warmup_ = static_cast<int>(r.getI64());
    best_balanced_ = r.getDouble();
    stall_counter_ = r.getSize();
    burst_len_ = r.getSize();
    last_decision_ = persist::getConfiguration(r);

    guard_.restoreState(r);
    degraded_ = r.getBool();
    unusable_streak_ = r.getSize();
    healthy_streak_ = r.getSize();
    expected_config_ = persist::getConfiguration(r);
    has_expected_ = r.getBool();
    actuation_retries_ = r.getSize();
    decide_calls_ = r.getSize();

    SatoriDiagnostics& d = diagnostics_;
    d.weights.w_t = r.getDouble();
    d.weights.w_f = r.getDouble();
    d.weights.w_te = r.getDouble();
    d.weights.w_fe = r.getDouble();
    d.weights.w_tp = r.getDouble();
    d.weights.w_fp = r.getDouble();
    d.weights.blend = r.getDouble();
    d.weights.equalization_boundary = r.getBool();
    d.weights.prioritization_boundary = r.getBool();
    d.objective_value = r.getDouble();
    d.throughput = r.getDouble();
    d.fairness = r.getDouble();
    d.proxy_change_pct = r.getDouble();
    d.num_samples = r.getSize();
    d.settled = r.getBool();
    d.degraded = r.getBool();
    d.degraded_entries = r.getSize();
    d.actuation_mismatches = r.getSize();
    d.actuation_retries = r.getSize();
    d.unusable_intervals = r.getSize();

    // Points at string literals only; the next decide() reassigns it.
    last_outcome_ = "";
}

} // namespace core
} // namespace satori
