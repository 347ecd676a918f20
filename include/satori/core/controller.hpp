/**
 * @file
 * The SATORI controller (Algorithm 1): BO-driven joint exploration of
 * the multi-resource partitioning space with a dynamically
 * re-prioritized throughput+fairness objective.
 */

#ifndef SATORI_CORE_CONTROLLER_HPP
#define SATORI_CORE_CONTROLLER_HPP

#include <memory>
#include <vector>

#include "satori/bo/candidates.hpp"
#include "satori/bo/engine.hpp"
#include "satori/common/rng.hpp"
#include "satori/config/enumeration.hpp"
#include "satori/core/goal_record.hpp"
#include "satori/core/objective.hpp"
#include "satori/core/telemetry_guard.hpp"
#include "satori/core/weights.hpp"
#include "satori/core/policy.hpp"

namespace satori {
namespace core {

/** Which goal regime a SATORI instance runs in (Sec. IV variants). */
enum class GoalMode
{
    Balanced,       ///< Dynamic W_T/W_F re-prioritization (SATORI).
    StaticEqual,    ///< Fixed 0.5/0.5 ("SATORI w/o prioritization").
    ThroughputOnly, ///< W_T = 1, W_F = 0 ("Throughput SATORI").
    FairnessOnly,   ///< W_T = 0, W_F = 1 ("Fairness SATORI").
};

/** Printable name of a goal mode variant. */
[[nodiscard]] std::string goalModeName(GoalMode mode);

/**
 * Everything tunable about a SATORI instance. The Sec. V convergence
 * and reactivation constants (probe count, warm-up seed budget,
 * minimum samples before settling, stall and burst limits,
 * reactivation threshold, samples kept on reactivation) and the
 * hardening constants (actuation retries, degraded-mode entry and
 * exit) are fixed in controller.cpp.
 */
struct SatoriOptions
{
    GoalMode mode = GoalMode::Balanced;
    WeightOptions weights;
    bo::CandidateOptions candidates;
    ObjectiveSpec objective;

    /** Samples retained for proxy-model reconstruction. */
    std::size_t window = 120;

    /** RNG seed for candidate sampling. */
    std::uint64_t seed = 7;

    /**
     * Uncertainty discount applied when selecting the incumbent or
     * the settle configuration from noisy records: score = mean -
     * kappa / sqrt(effective evaluations). Guards against settling on
     * a configuration that measured well once by luck.
     */
    double incumbent_kappa = 0.04;

    /**
     * Hardening against unreliable telemetry and actuation (none of
     * it is in the paper; an online deployment needs it when its
     * pqos/CAT/MBA substrate misbehaves): the telemetry guard in
     * front of every decide(), actuation verification with bounded
     * re-issue, and the degraded equal-partition fallback. false is
     * the paper's original controller (SATORI-vanilla).
     */
    bool hardened = true;
};

/** Per-iteration internals exposed for the paper's analysis figures. */
struct SatoriDiagnostics
{
    WeightComponents weights;        ///< Fig. 14(a) decomposition.
    double objective_value = 0.0;    ///< Fig. 17(a) trajectory.
    double throughput = 0.0;         ///< Normalized T of last interval.
    double fairness = 0.0;           ///< Normalized F of last interval.
    double proxy_change_pct = 0.0;   ///< Fig. 17(b): mean |d mean| %.
    std::size_t num_samples = 0;     ///< Proxy-model training size.
    bool settled = false;            ///< True while exploration is off.

    // Resilience state (cumulative counters since reset()).
    bool degraded = false;                  ///< In fallback this interval.
    std::size_t degraded_entries = 0;       ///< Times fallback engaged.
    std::size_t actuation_mismatches = 0;   ///< Observed != requested.
    std::size_t actuation_retries = 0;      ///< Re-issued requests.
    std::size_t unusable_intervals = 0;     ///< Telemetry intervals skipped.
};

/**
 * SATORI: the paper's controller, as a PartitioningPolicy.
 *
 * Each decide() call implements one iteration of Algorithm 1:
 * record the just-measured throughput/fairness for the configuration
 * that ran, regenerate the objective function from the per-goal
 * records under the current dynamic weights, software-reconstruct
 * the GP proxy model, maximize the acquisition function over a
 * candidate set, and return the next configuration to run.
 */
class SatoriController final : public PartitioningPolicy
{
  public:
    /**
     * @param platform The server's partitionable resources.
     * @param num_jobs Number of co-located jobs.
     * @param options Tuning; defaults match the paper (T_P = 1 s,
     *        T_E = 10 s, Matern 5/2, EI).
     */
    SatoriController(const PlatformSpec& platform, std::size_t num_jobs,
                     SatoriOptions options = {});

    [[nodiscard]] std::string name() const override;
    Configuration decide(const IntervalObservation& obs) override;
    void reset() override;

    /** Diagnostics of the most recent iteration. */
    [[nodiscard]] const SatoriDiagnostics& diagnostics() const { return diagnostics_; }

    /** The configuration space being explored. */
    [[nodiscard]] const ConfigurationSpace& space() const { return space_; }

    /** The options in force. */
    [[nodiscard]] const SatoriOptions& options() const { return options_; }

    /** The telemetry guard (activity counters for tests/benches). */
    [[nodiscard]] const TelemetryGuard& telemetryGuard() const { return guard_; }

    /** True while the degraded equal-partition fallback is active. */
    [[nodiscard]] bool degraded() const { return degraded_; }

    /** Restored instances continue bit-identically. */
    [[nodiscard]] bool supportsPersistence() const override { return true; }

    /**
     * Serialize every cross-interval field: the BO engine recipe, the
     * goal records, weight clocks, RNG streams, settle/reactivation
     * state, the telemetry guard, and the resilience counters.
     * Construction-derived state (seeds, probes, the space) is not
     * saved; restoreState requires an identically constructed
     * instance.
     */
    void saveState(persist::StateWriter& w) const override;

    /** Restore state saved by saveState. */
    void restoreState(persist::StateReader& r) override;

  private:
    /** Current (w_t, w_f) per the goal mode and weight controller. */
    std::pair<double, double> currentWeights(double throughput,
                                             double fairness);

    /** Algorithm 1 proper, fed only guard-approved observations. */
    Configuration decideCore(const IntervalObservation& obs);

    /** Record a sample and advance the weight clock (retry paths). */
    void recordOnly(const IntervalObservation& obs);

    /**
     * Leave the settled state and restart the search from the most
     * recent records (reactivation and degraded-mode recovery).
     */
    void restartExploration();

    /**
     * Emit one decision-audit record (observability only; gated on
     * the channel being enabled, no-op in SATORI_OBS=OFF builds).
     */
    void emitObsAudit(const IntervalObservation& observation,
                      SampleHealth health, const Configuration& decision,
                      const char* outcome) const;

    /** The configuration returned when learning is impossible. */
    [[nodiscard]] const Configuration& holdCourse() const;

    SatoriOptions options_;
    ConfigurationSpace space_;
    bo::CandidateGenerator candgen_;
    bo::BoEngine engine_;
    GoalRecorder recorder_;
    WeightController weight_controller_;
    Rng rng_;

    std::vector<Configuration> seeds_;
    std::size_t next_seed_ = 0;

    bo::SoaPoints probes_;
    std::vector<double> last_probe_means_;

    // Convergence / settling state (Sec. V overhead optimization).
    bool settled_ = false;
    Configuration settled_config_;
    double settled_ref_objective_ = -1.0;
    int reactivate_strikes_ = 0;
    int settled_warmup_ = 0; ///< Intervals until the ref is anchored.
    double best_balanced_ = -1.0;
    std::size_t stall_counter_ = 0;
    std::size_t burst_len_ = 0;
    Configuration last_decision_;

    // Resilience state (telemetry guard + actuation verification +
    // degraded fallback).
    TelemetryGuard guard_;
    Configuration equal_config_;
    bool degraded_ = false;
    std::size_t unusable_streak_ = 0;
    std::size_t healthy_streak_ = 0;
    Configuration expected_config_;
    bool has_expected_ = false;
    std::size_t actuation_retries_ = 0;

    /// decide() invocations since construction/reset (audit records).
    std::size_t decide_calls_ = 0;

    /// How decideCore produced its last decision (audit records).
    const char* last_outcome_ = "";

    SatoriDiagnostics diagnostics_;
};

} // namespace core
} // namespace satori

#endif // SATORI_CORE_CONTROLLER_HPP
