#include "satori/harness/experiment.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "satori/common/logging.hpp"
#include "satori/obs/obs.hpp"
#include "satori/persist/checkpoint.hpp"

namespace satori {
namespace harness {

namespace {

/** Isolation-baseline re-record period (paper: T_E = 10 s). */
constexpr Seconds kBaselineResetPeriod = 10.0;

/** Bitwise double equality (recovery verification wants exactness). */
bool
bitEqual(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

bool
bitEqual(const std::vector<double>& a, const std::vector<double>& b)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    if (n != m)
        return false;
    for (std::size_t i = 0; i < n; ++i)
        if (!bitEqual(a[i], b[i]))
            return false;
    return true;
}

/**
 * Compare a re-executed interval against its pre-crash WAL record.
 * Any difference means the resumed state did not reproduce the
 * original run - a hard error, never a silent fork.
 */
void
verifyReplay(const persist::IntervalRecord& logged,
             const persist::IntervalRecord& redone, std::size_t step)
{
    const char* field = nullptr;
    if (logged.interval != redone.interval)
        field = "interval index";
    else if (!bitEqual(logged.time, redone.time))
        field = "interval time";
    else if (!(logged.config == redone.config))
        field = "running configuration";
    else if (!bitEqual(logged.ips, redone.ips))
        field = "measured IPS";
    else if (!bitEqual(logged.speedups, redone.speedups))
        field = "speedups";
    else if (!bitEqual(logged.throughput, redone.throughput))
        field = "normalized throughput";
    else if (!bitEqual(logged.fairness, redone.fairness))
        field = "normalized fairness";
    else if (logged.faults != redone.faults)
        field = "fault flags";
    else if (!(logged.decision == redone.decision))
        field = "policy decision";
    if (field != nullptr)
        SATORI_FATAL("resume diverged from the WAL at interval " +
                     std::to_string(step) + ": " + field +
                     " does not match the pre-crash run (restored "
                     "state is not byte-identical)");
}

} // namespace

ExperimentRunner::ExperimentRunner(ExperimentOptions options)
    : options_(std::move(options))
{
    SATORI_ASSERT(options_.dt > 0.0);
    SATORI_ASSERT(options_.duration >= options_.dt);
}

ExperimentResult
ExperimentRunner::run(sim::SimulatedServer& server,
                      policies::PartitioningPolicy& policy,
                      const std::string& mix_label) const
{
    ExperimentResult result;
    result.policy_name = policy.name();
    result.mix_label = mix_label;

    sim::PerfMonitor monitor(server);
    const auto steps = static_cast<std::size_t>(
        std::llround(options_.duration / options_.dt));
    Seconds last_reset = server.now();

    std::vector<OnlineStats> per_job_speedup(server.numJobs());

    // Durability: prepare the checkpoint directory and, on resume,
    // restore every piece of cross-interval state from the snapshot,
    // then regenerate the pre-snapshot trace rows from the WAL.
    persist::Checkpointer* ckpt = options_.checkpoint;
    std::size_t start_step = 0;
    std::size_t replayed = 0; ///< WAL records from the killed run.
    if (ckpt != nullptr) {
        if (!policy.supportsPersistence())
            SATORI_FATAL("policy '" + policy.name() +
                         "' does not support checkpointing (no "
                         "saveState/restoreState)");
        ckpt->prepare();
        replayed = ckpt->walRecords().size();
        if (ckpt->resuming() && ckpt->hasSnapshot()) {
            const persist::SnapshotReader& snap = ckpt->snapshot();
            {
                persist::StateReader r = snap.section("server");
                server.restoreState(r);
                r.expectEnd();
            }
            {
                persist::StateReader r = snap.section("monitor");
                monitor.restoreState(r);
                r.expectEnd();
            }
            {
                persist::StateReader r = snap.section("policy");
                policy.restoreState(r);
                r.expectEnd();
            }
            if (options_.faults != nullptr) {
                persist::StateReader r = snap.section("faults");
                options_.faults->restoreState(r);
                r.expectEnd();
            }
            {
                persist::StateReader r = snap.section("loop");
                last_reset = r.getDouble();
                result.throughput_stats.restoreState(r);
                result.fairness_stats.restoreState(r);
                const std::size_t nj = r.getSize();
                if (nj != per_job_speedup.size())
                    SATORI_FATAL("loop state has " + std::to_string(nj) +
                                 " per-job accumulators, this run has " +
                                 std::to_string(per_job_speedup.size()));
                for (auto& s : per_job_speedup)
                    s.restoreState(r);
                result.throughput_series.restoreState(r);
                result.fairness_series.restoreState(r);
                r.expectEnd();
            }
            start_step = ckpt->resumeStep();
        }
        if (options_.trace != nullptr) {
            // Intervals before the snapshot are not re-executed; their
            // trace rows come byte-for-byte from the WAL so the final
            // file is indistinguishable from an uninterrupted run's.
            for (std::size_t i = 0; i < start_step; ++i) {
                const persist::IntervalRecord& logged =
                    ckpt->walRecords()[i];
                TraceRecord row;
                row.time = logged.time;
                row.policy = policy.name();
                row.config = logged.config;
                row.ips = logged.ips;
                row.speedups = logged.speedups;
                row.throughput = logged.throughput;
                row.fairness = logged.fairness;
                row.faults = logged.faults;
                options_.trace->write(row);
            }
        }
    }

    for (std::size_t step = start_step; step < steps; ++step) {
        SATORI_OBS_SPAN("harness.interval");
        SATORI_OBS_METRIC(harness_intervals.inc());
        // Platform faults (crash/restart churn, core offlining) land
        // before the interval runs; announced churn refreshes the
        // isolation baseline exactly as a cluster manager would.
        if (options_.faults != nullptr &&
            options_.faults->beginInterval(server))
            monitor.resetBaseline();

        const sim::IntervalObservation obs = monitor.observe(options_.dt);

        // Score against the *instantaneous* isolation performance so
        // reported aggregates are not biased by baseline staleness;
        // policies themselves only ever see the periodically recorded
        // baseline in obs (the realistic signal).
        const std::vector<Ips> iso_now = server.isolationIpsNow();
        const double t_norm =
            normalizedThroughput(options_.tmetric, obs.ips, iso_now);
        const std::vector<double> spd = speedups(obs.ips, iso_now);
        const double f_norm = normalizedFairness(options_.fmetric, spd);

        if (obs.time > options_.warmup) {
            result.throughput_stats.add(t_norm);
            result.fairness_stats.add(f_norm);
            for (std::size_t j = 0; j < spd.size(); ++j)
                per_job_speedup[j].add(std::min(spd[j], 1.0));
            if (options_.record_series) {
                result.throughput_series.add(obs.time, t_norm);
                result.fairness_series.add(obs.time, f_norm);
            }
        }

        // The policy sees what the (possibly faulty) telemetry path
        // delivers; its decision goes through the (possibly faulty)
        // actuation path. Scoring above used the truth.
        Configuration next;
        if (options_.faults != nullptr) {
            const sim::IntervalObservation seen =
                options_.faults->perturbObservation(obs);
            next = policy.decide(seen);
            SATORI_OBS_SPAN("harness.actuate");
            options_.faults->actuate(server, next);
        } else {
            next = policy.decide(obs);
            SATORI_OBS_SPAN("harness.actuate");
            server.setConfiguration(next);
        }

        if (options_.on_interval)
            options_.on_interval(obs, t_norm, f_norm);

        if (options_.trace) {
            SATORI_OBS_SPAN("harness.trace");
            TraceRecord rec;
            rec.time = obs.time;
            rec.policy = policy.name();
            rec.config = obs.config;
            rec.ips = obs.ips;
            rec.speedups = spd;
            rec.throughput = t_norm;
            rec.fairness = f_norm;
            if (options_.faults != nullptr)
                rec.faults = options_.faults->lastFlags();
            options_.trace->write(rec);
        }

        // Live telemetry plane: one history row + one watchdog pass
        // per interval, after the decision and trace write so nothing
        // here can feed back into them. (`obs` is the interval
        // observation; the namespace needs full qualification.)
        SATORI_OBS_HOOK(::satori::obs::observability().onHarnessInterval(
            static_cast<std::uint64_t>(step), obs.time, obs.ips, t_norm,
            f_norm));

        if (obs.time - last_reset >= kBaselineResetPeriod) {
            monitor.resetBaseline();
            last_reset = obs.time;
        }

        // Durability last, after every state change of the interval,
        // so a snapshot taken here resumes cleanly at step + 1.
        if (ckpt != nullptr) {
            persist::IntervalRecord rec;
            rec.interval = static_cast<std::uint64_t>(step);
            rec.time = obs.time;
            rec.config = obs.config;
            rec.ips = obs.ips;
            rec.speedups = spd;
            rec.throughput = t_norm;
            rec.fairness = f_norm;
            if (options_.faults != nullptr)
                rec.faults = options_.faults->lastFlags();
            rec.decision = next;
            // Intervals the killed run already logged must replay
            // exactly; a divergence means restored state is wrong.
            if (step < replayed)
                verifyReplay(ckpt->walRecords()[step], rec, step);
            ckpt->onIntervalEnd(
                step, rec, [&](persist::SnapshotWriter& snap) {
                    server.saveState(snap.section("server"));
                    monitor.saveState(snap.section("monitor"));
                    policy.saveState(snap.section("policy"));
                    if (options_.faults != nullptr)
                        options_.faults->saveState(
                            snap.section("faults"));
                    persist::StateWriter& w = snap.section("loop");
                    w.putDouble(last_reset);
                    result.throughput_stats.saveState(w);
                    result.fairness_stats.saveState(w);
                    w.putSize(per_job_speedup.size());
                    for (const auto& s : per_job_speedup)
                        s.saveState(w);
                    result.throughput_series.saveState(w);
                    result.fairness_series.saveState(w);
                });
        }
    }

    result.mean_throughput = result.throughput_stats.mean();
    result.mean_fairness = result.fairness_stats.mean();
    result.mean_objective =
        0.5 * result.mean_throughput + 0.5 * result.mean_fairness;
    result.job_mean_speedups.reserve(server.numJobs());
    double worst = 1.0;
    for (const auto& s : per_job_speedup) {
        result.job_mean_speedups.push_back(s.mean());
        worst = std::min(worst, s.mean());
    }
    result.worst_job_speedup = worst;
    return result;
}

} // namespace harness
} // namespace satori
