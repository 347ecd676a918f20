/**
 * @file
 * The experiment runner: drives a (server, policy) pair through the
 * paper's measurement loop - 100 ms controller intervals, isolation
 * baselines re-recorded every 10 s (Algorithm 1 line 12) -
 * and aggregates throughput/fairness statistics.
 */

#ifndef SATORI_HARNESS_EXPERIMENT_HPP
#define SATORI_HARNESS_EXPERIMENT_HPP

#include <functional>
#include <string>
#include <vector>

#include "satori/common/stats.hpp"
#include "satori/common/types.hpp"
#include "satori/faults/injector.hpp"
#include "satori/metrics/metrics.hpp"
#include "satori/policies/policy.hpp"
#include "satori/harness/trace.hpp"
#include "satori/sim/monitor.hpp"

namespace satori {

namespace persist {
class Checkpointer;
} // namespace persist

namespace harness {

/** Experiment knobs. */
struct ExperimentOptions
{
    /** Simulated run length. */
    Seconds duration = 20.0;

    /** Controller interval (the paper's 0.1 s). */
    Seconds dt = kDefaultIntervalSeconds;

    /** Initial span excluded from aggregates (controller warm-up). */
    Seconds warmup = 2.0;

    ThroughputMetric tmetric = ThroughputMetric::SumIps;
    FairnessMetric fmetric = FairnessMetric::JainIndex;

    /** Retain full per-interval time series in the result. */
    bool record_series = false;

    /**
     * Optional per-interval hook, called after the policy decided
     * (for figure-specific instrumentation).
     */
    std::function<void(const sim::IntervalObservation&, double t_norm,
                       double f_norm)>
        on_interval;

    /**
     * Optional trace sink: when set, every interval is appended as a
     * TraceRecord (time, config, per-job IPS/speedups, metrics). The
     * writer must outlive the run.
     */
    TraceWriter* trace = nullptr;

    /**
     * Optional fault injector: when set, platform faults are applied
     * before each interval, the policy sees the injector's perturbed
     * telemetry, and decisions go through the injector's (possibly
     * failing) actuation path. Scoring always uses the true
     * observation. The injector must outlive the run. Announced job
     * churn re-records the isolation baseline (Algorithm 1 line 12).
     */
    faults::FaultInjector* faults = nullptr;

    /**
     * Optional durability: when set, every interval is appended to
     * the checkpointer's WAL and controller state is snapshotted on
     * its cadence, so a killed run can resume with --resume and
     * produce a byte-identical decision trace. The policy must
     * return supportsPersistence(). On resume, trace rows before the
     * resumed snapshot are regenerated from the WAL (the on_interval
     * hook is not re-invoked for them), and re-executed intervals are
     * verified bitwise against the WAL's records. The checkpointer
     * must outlive the run.
     */
    persist::Checkpointer* checkpoint = nullptr;
};

/** Aggregated outcome of one experiment. */
struct ExperimentResult
{
    std::string policy_name;
    std::string mix_label;

    /** Post-warmup means of normalized throughput / fairness. */
    double mean_throughput = 0.0;
    double mean_fairness = 0.0;

    /** Mean of the balanced objective 0.5 T + 0.5 F. */
    double mean_objective = 0.0;

    /** Per-job mean speedups (vs isolation baseline). */
    std::vector<double> job_mean_speedups;

    /** The worst job's mean speedup (Fig. 9 metric). */
    double worst_job_speedup = 0.0;

    /** Full distributional statistics (post-warmup). */
    OnlineStats throughput_stats;
    OnlineStats fairness_stats;

    /** Time series (only if record_series was set). */
    TimeSeries throughput_series;
    TimeSeries fairness_series;
};

/** Drives policies through simulated co-location runs. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(ExperimentOptions options = {});

    /**
     * Run @p policy on @p server for the configured duration. The
     * server is mutated (time advances); use a fresh server per run
     * for apples-to-apples policy comparisons.
     */
    [[nodiscard]] ExperimentResult run(sim::SimulatedServer& server,
                         policies::PartitioningPolicy& policy,
                         const std::string& mix_label = "") const;

    /** The options in force. */
    [[nodiscard]] const ExperimentOptions& options() const { return options_; }

  private:
    ExperimentOptions options_;
};

} // namespace harness
} // namespace satori

#endif // SATORI_HARNESS_EXPERIMENT_HPP
