/**
 * @file
 * bench_interval: one 100 ms control interval of the real SATORI
 * controller, measured end to end and per layer, over four traffic
 * shapes (README.md explains the workloads and every metric).
 *
 * One invocation runs one workload in one process on one thread:
 *
 *   1. Untraced pass. Tracer and metrics stay off. Repeats of every
 *      mix run through harness::ExperimentRunner until --seconds of
 *      host time have passed (at least kQualityReps repeats). A
 *      TimedPolicy decorator times every decide() from outside and
 *      records the controller state. Every end-to-end metric comes
 *      from this pass; each timing is taken per repeat and the best
 *      repeat is reported.
 *   2. Traced pass. Repeat 0 runs again with the obs tracer and
 *      metrics on. After each run, probes time the layers that have
 *      no span of their own (candidate generation, incumbent
 *      selection, and the persist layer on workloads that run without
 *      a checkpointer) on the shapes the run recorded; then the run's
 *      spans are folded into per-name durations and self times.
 *   3. Checks. Each repeat-0 run must give a bit-identical decision
 *      digest and bit-identical result means in both passes (obs is
 *      read-only), and every run must decide once per interval and
 *      report finite means.
 *
 * Usage:
 *   bench_interval --workload <name> --seed <n> [--seconds <s>]
 *                  [--trace 0|1] [--json <file>] [--scratch <dir>]
 *                  [--smoke]
 *
 * Every metric is printed by name with its unit, and percentiles and
 * means with their sample count. The last stdout line is one JSON
 * object {correct, attempted, failed, metrics}: the end-to-end metrics
 * with --trace 0 (default), the per-layer metrics with --trace 1.
 * --json writes every metric of both sets with sample counts. The
 * exit status is nonzero when any run threw or failed a check.
 *
 * Timing uses obs::steadyNowNs(): the steady-clock read lives in the
 * allowlisted obs layer, not here.
 */

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "satori/bo/candidates.hpp"
#include "satori/common/rng.hpp"
#include "satori/common/stats.hpp"
#include "satori/core/controller.hpp"
#include "satori/core/goal_record.hpp"
#include "satori/faults/injector.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/metrics/metrics.hpp"
#include "satori/obs/obs.hpp"
#include "satori/persist/checkpoint.hpp"
#include "satori/workloads/mixes.hpp"
#include "satori/workloads/suites.hpp"

using namespace satori;

namespace {

/**
 * Repeats the untraced pass always runs. The simulated quality metrics
 * average exactly these, so they repeat bit for bit for a seed however
 * fast the host is.
 */
constexpr std::size_t kQualityReps = 10;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

double
nsToUs(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e3;
}

double
nsToS(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

/** splitmix64 finalizer: decorrelates the derived per-run seeds. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Server seed of one run: derived from --seed, the repeat and the mix. */
std::uint64_t
runSeed(std::uint64_t seed, std::size_t rep, std::size_t mix)
{
    return mix64(mix64(mix64(seed) ^ rep) ^ mix);
}

// ------------------------------------------------------------ command line

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false; ///< Last line carries the per-layer metrics.
    bool smoke = false; ///< 2 mixes x 1 repeat x 10 s simulated.
    std::string json;
    std::string scratch = ".";
};

[[noreturn]] void
usage(const std::string& error)
{
    std::fprintf(stderr,
                 "bench_interval: %s\n"
                 "usage: bench_interval --workload "
                 "parsec5|powercap4|ecp-steady|faults-durable --seed <n>\n"
                 "                      [--seconds <s>] [--trace 0|1] "
                 "[--json <file>] [--scratch <dir>] [--smoke]\n",
                 error.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string arg = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = arg;
            } else if (flag == "--seed") {
                args.seed = std::stoull(arg);
                have_seed = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stod(arg);
            } else if (flag == "--trace") {
                if (arg != "0" && arg != "1")
                    usage("--trace takes 0 or 1");
                args.trace = arg == "1";
            } else if (flag == "--json") {
                args.json = arg;
            } else if (flag == "--scratch") {
                args.scratch = arg;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + arg);
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (!have_seed)
        usage("--seed is required");
    if (!(args.seconds > 0.0 && args.seconds < 3600.0))
        usage("--seconds must be in (0, 3600)");
    return args;
}

// --------------------------------------------------------------- workloads

struct Workload
{
    PlatformSpec platform;
    std::vector<workloads::JobMix> mixes;
    Seconds duration = 60.0;

    /**
     * The deployment configuration: the escalating fault plan, a
     * checkpointer (WAL every interval, snapshot every 50) and the
     * decision-audit channel, in both passes.
     */
    bool durable = false;

    [[nodiscard]] std::size_t steps() const
    {
        return static_cast<std::size_t>(
            std::llround(duration / kDefaultIntervalSeconds));
    }
};

std::optional<Workload>
makeWorkload(const std::string& name, bool smoke)
{
    Workload w;
    if (name == "parsec5" || name == "faults-durable") {
        w.platform = PlatformSpec::paperTestbed();
        w.mixes = workloads::allMixes(workloads::parsecSuite(), 5);
        w.durable = name == "faults-durable";
    } else if (name == "powercap4") {
        w.platform = PlatformSpec::extendedTestbed();
        w.mixes = workloads::allMixes(workloads::parsecSuite(), 5);
    } else if (name == "ecp-steady") {
        w.platform = PlatformSpec::paperTestbed();
        w.mixes = workloads::allMixes(workloads::ecpSuite(), 2);
        w.duration = 600.0;
    } else {
        return std::nullopt;
    }
    if (smoke) {
        w.mixes.resize(2);
        w.duration = 10.0;
    }
    return w;
}

// ----------------------------------------------------- the timed decorator

/** Controller state of one interval, from SatoriController::diagnostics(). */
enum class State : std::uint8_t
{
    Explore,
    Settled,
    Degraded,
};

/** What the traced pass keeps of one interval for the probes. */
struct Shape
{
    IntervalObservation seen; ///< The observation decide() received.
    Configuration decision;
    std::vector<double> weights; ///< Objective weights in force.
    bool explored = false;       ///< An acquisition ran.
    /** The controller re-selected its incumbent (explore, settle, or a
     *  settled prioritization boundary). */
    bool picks_incumbent = false;
};

/** Everything a TimedPolicy records, one entry per decide(). */
struct DecideLog
{
    std::vector<double> decide_us;
    std::vector<State> states;
    std::uint64_t digest = kFnvOffset; ///< FNV-1a 64 over decision ranks.
    std::vector<Shape> shapes;         ///< Traced pass only.
};

/**
 * Forwards every PartitioningPolicy call to the SATORI controller and
 * times each decide() from outside: its steady-clock duration, the
 * controller state it left, and a running digest of the decisions.
 */
class TimedPolicy final : public policies::PartitioningPolicy
{
  public:
    TimedPolicy(std::unique_ptr<policies::PartitioningPolicy> inner,
                bool keep_shapes, std::size_t steps)
        : inner_(std::move(inner)),
          ctrl_(dynamic_cast<core::SatoriController&>(*inner_)),
          keep_shapes_(keep_shapes)
    {
        log_.decide_us.reserve(steps);
        log_.states.reserve(steps);
        if (keep_shapes_)
            log_.shapes.reserve(steps);
    }

    [[nodiscard]] std::string name() const override { return ctrl_.name(); }

    Configuration decide(const IntervalObservation& seen) override
    {
        const obs::Counter& suggests =
            obs::observability().lib().bo_suggests;
        const std::uint64_t suggests_before =
            keep_shapes_ ? suggests.value() : 0;
        const std::uint64_t t0 = obs::steadyNowNs();
        Configuration next = ctrl_.decide(seen);
        const std::uint64_t t1 = obs::steadyNowNs();

        log_.decide_us.push_back(nsToUs(t1 - t0));
        const core::SatoriDiagnostics& d = ctrl_.diagnostics();
        log_.states.push_back(d.degraded  ? State::Degraded
                              : d.settled ? State::Settled
                                          : State::Explore);
        const std::uint64_t rank = ctrl_.space().rank(next);
        for (int byte = 0; byte < 8; ++byte) {
            log_.digest ^= (rank >> (8 * byte)) & 0xffU;
            log_.digest *= kFnvPrime;
        }
        if (keep_shapes_) {
            Shape shape;
            shape.seen = seen;
            shape.decision = next;
            shape.weights = ctrl_.options().objective.weightVector(
                d.weights.w_t, d.weights.w_f);
            shape.explored = suggests.value() > suggests_before;
            shape.picks_incumbent =
                shape.explored ||
                (d.settled &&
                 (!was_settled_ || d.weights.prioritization_boundary));
            log_.shapes.push_back(std::move(shape));
        }
        was_settled_ = d.settled;
        return next;
    }

    void reset() override { ctrl_.reset(); }

    [[nodiscard]] bool supportsPersistence() const override
    {
        return ctrl_.supportsPersistence();
    }

    void saveState(persist::StateWriter& w) const override
    {
        ctrl_.saveState(w);
    }

    void restoreState(persist::StateReader& r) override
    {
        ctrl_.restoreState(r);
    }

    [[nodiscard]] const core::SatoriController& controller() const
    {
        return ctrl_;
    }

    [[nodiscard]] const DecideLog& log() const { return log_; }

  private:
    std::unique_ptr<policies::PartitioningPolicy> inner_;
    core::SatoriController& ctrl_;
    bool keep_shapes_;
    bool was_settled_ = false;
    DecideLog log_;
};

// ------------------------------------------------------------------- runs

/** Everything one run owns; building it is the timed set-up. */
struct Run
{
    sim::SimulatedServer server;
    std::unique_ptr<TimedPolicy> policy;
    std::optional<faults::FaultInjector> injector;
    std::optional<persist::Checkpointer> checkpointer;
    harness::ExperimentOptions options;
};

std::unique_ptr<Run>
setUp(const Workload& w, std::size_t mix, std::uint64_t seed,
      bool keep_shapes, const std::string& ckpt_dir)
{
    const workloads::JobMix& jobs = w.mixes[mix];
    auto run = std::make_unique<Run>(
        harness::makeServer(w.platform, jobs, seed));
    run->options.duration = w.duration;
    // Passed explicitly: GCC 12 misreports the default-argument
    // temporary as maybe-uninitialized.
    const core::SatoriOptions defaults;
    run->policy = std::make_unique<TimedPolicy>(
        harness::makePolicy("SATORI", run->server, defaults), keep_shapes,
        w.steps());
    if (w.durable) {
        run->injector.emplace(
            faults::FaultPlan::escalating(jobs.jobs.size(), w.steps()),
            mix64(seed));
        run->options.faults = &*run->injector;
        persist::CheckpointOptions copt;
        copt.dir = ckpt_dir;
        copt.every = 50;
        run->checkpointer.emplace(copt, "bench_interval " + jobs.label +
                                            " " + std::to_string(seed));
        run->options.checkpoint = &*run->checkpointer;
    }
    return run;
}

/** A run's repeat-0 outcome, compared bitwise across the two passes. */
struct Outcome
{
    std::uint64_t digest = 0;
    std::vector<std::uint64_t> mean_bits; ///< T, F, objective, worst job.
};

Outcome
outcomeOf(const harness::ExperimentResult& result, const DecideLog& log)
{
    Outcome o;
    o.digest = log.digest;
    for (double v : {result.mean_throughput, result.mean_fairness,
                     result.mean_objective, result.worst_job_speedup})
        o.mean_bits.push_back(std::bit_cast<std::uint64_t>(v));
    return o;
}

/** @throws std::runtime_error when a run's output is not sane. */
void
checkRun(const harness::ExperimentResult& result, const DecideLog& log,
         std::size_t steps)
{
    if (log.decide_us.size() != steps)
        throw std::runtime_error(
            "decided " + std::to_string(log.decide_us.size()) +
            " times over " + std::to_string(steps) + " intervals");
    for (double v : {result.mean_throughput, result.mean_fairness,
                     result.worst_job_speedup})
        if (!std::isfinite(v) || v <= 0.0)
            throw std::runtime_error("non-finite or non-positive mean");
}

struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

void
reportFailure(const std::string& what, std::size_t rep, std::size_t mix,
              const std::exception& e, Tally& tally)
{
    ++tally.failed;
    std::fprintf(stderr, "bench_interval: FAIL %s repeat %zu mix %zu: %s\n",
                 what.c_str(), rep, mix, e.what());
}

// --------------------------------------------------------- untraced pass

double
pct(const std::vector<double>& v, double p)
{
    return v.empty() ? 0.0 : percentile(v, p);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * One repeat of every mix, summarized when it ends so the pass's memory
 * does not grow with the number of repeats (peak RSS is a metric).
 */
struct Repeat
{
    double decide_p50_us = 0.0;
    double decide_p99_us = 0.0;
    double explore_p50_us = 0.0;
    double settled_p50_us = 0.0;
    double settled_p99_us = 0.0;
    double ctrl_cpu_pct = 0.0;
    double intervals_per_s = 0.0;
    double setup_s = 0.0; ///< Building servers, policies, injectors, checkpointers.
    std::size_t intervals = 0;
    std::size_t explores = 0;
    std::size_t settles = 0;
    double decide_s = 0.0; ///< Total decide() host time.
    double run_s = 0.0;    ///< Total ExperimentRunner::run host time.
};

struct UntracedPass
{
    std::vector<Repeat> reps;
    OnlineStats throughput, fairness, worst_job; ///< First kQualityReps.
    std::vector<Outcome> rep0; ///< Per mix, the traced pass's reference.
};

UntracedPass
runUntraced(const Workload& w, const Args& args,
            const std::string& ckpt_dir, Tally& tally)
{
    UntracedPass pass;
    pass.rep0.resize(w.mixes.size());
    obs::Observability& ctx = obs::observability();
    ctx.resetAll();
    ctx.audit().setEnabled(w.durable);
    const std::size_t min_reps = args.smoke ? 1 : kQualityReps;
    const std::uint64_t start = obs::steadyNowNs();
    std::vector<double> decide_us, explore_us, settled_us;
    for (std::size_t rep = 0;
         rep < min_reps ||
         (!args.smoke && nsToS(obs::steadyNowNs() - start) < args.seconds);
         ++rep) {
        Repeat r;
        double simulated_s = 0.0;
        decide_us.clear();
        explore_us.clear();
        settled_us.clear();
        for (std::size_t m = 0; m < w.mixes.size(); ++m) {
            ++tally.attempted;
            try {
                const std::uint64_t t0 = obs::steadyNowNs();
                const std::unique_ptr<Run> run =
                    setUp(w, m, runSeed(args.seed, rep, m), false, ckpt_dir);
                const std::uint64_t t1 = obs::steadyNowNs();
                const harness::ExperimentResult result =
                    harness::ExperimentRunner(run->options)
                        .run(run->server, *run->policy, w.mixes[m].label);
                const std::uint64_t t2 = obs::steadyNowNs();
                ctx.audit().clear();

                const DecideLog& log = run->policy->log();
                checkRun(result, log, w.steps());
                r.setup_s += nsToS(t1 - t0);
                r.run_s += nsToS(t2 - t1);
                simulated_s += w.duration;
                for (std::size_t i = 0; i < log.decide_us.size(); ++i) {
                    const double us = log.decide_us[i];
                    decide_us.push_back(us);
                    r.decide_s += us / 1e6;
                    if (log.states[i] == State::Explore)
                        explore_us.push_back(us);
                    else if (log.states[i] == State::Settled)
                        settled_us.push_back(us);
                }
                if (rep == 0)
                    pass.rep0[m] = outcomeOf(result, log);
                if (rep < kQualityReps) {
                    pass.throughput.add(result.mean_throughput);
                    pass.fairness.add(result.mean_fairness);
                    pass.worst_job.add(result.worst_job_speedup);
                }
            } catch (const std::exception& e) {
                ctx.audit().clear();
                reportFailure("untraced", rep, m, e, tally);
            }
        }
        r.decide_p50_us = pct(decide_us, 50.0);
        r.decide_p99_us = pct(decide_us, 99.0);
        r.explore_p50_us = pct(explore_us, 50.0);
        r.settled_p50_us = pct(settled_us, 50.0);
        r.settled_p99_us = pct(settled_us, 99.0);
        r.ctrl_cpu_pct = 100.0 * ratio(r.decide_s, simulated_s);
        r.intervals_per_s =
            ratio(static_cast<double>(decide_us.size()), r.run_s);
        r.intervals = decide_us.size();
        r.explores = explore_us.size();
        r.settles = settled_us.size();
        pass.reps.push_back(r);
    }
    ctx.resetAll();
    return pass;
}

// ----------------------------------------------------------- traced pass

/** Durations and self times of every span sharing one name. */
struct SpanSamples
{
    std::vector<double> dur_us;
    std::vector<double> self_us; ///< Duration minus direct children.
};

using SpanTable = std::map<std::string, SpanSamples>;

/**
 * Fold one run's events into @p table. Events are stored in start
 * order with their nesting depth, so a span's direct children are the
 * later events one level deeper, up to the next event at its own depth
 * or shallower.
 */
void
foldSpans(const std::vector<obs::TraceEvent>& events, SpanTable& table)
{
    std::vector<std::uint64_t> child_ns(events.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < events.size(); ++i) {
        while (open.size() > events[i].depth)
            open.pop_back();
        if (!open.empty())
            child_ns[open.back()] += events[i].duration_ns;
        open.push_back(i);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
        const std::uint64_t dur = events[i].duration_ns;
        SpanSamples& samples = table[events[i].name];
        samples.dur_us.push_back(nsToUs(dur));
        samples.self_us.push_back(nsToUs(dur - std::min(dur, child_ns[i])));
    }
}

struct TracedPass
{
    SpanTable spans;
    std::vector<State> states; ///< Per traced interval, in span order.
    std::vector<double> generate_us;
    std::vector<double> candidate_counts;
    std::vector<double> best_us;
    double run_s = 0.0;

    // Library counters over the whole pass.
    std::uint64_t guard_healthy = 0, guard_repaired = 0, guard_unusable = 0;
    std::uint64_t screen_kept = 0, screen_pruned = 0, grid_refits = 0;
    std::uint64_t snapshots = 0, snapshot_bytes = 0;
};

/** Time CandidateGenerator::generate once per exploring interval. */
void
probeCandidates(const TimedPolicy& policy, Rng& rng, TracedPass& pass)
{
    const core::SatoriController& ctrl = policy.controller();
    const bo::CandidateGenerator generator(ctrl.space(),
                                           ctrl.options().candidates);
    for (const Shape& shape : policy.log().shapes) {
        if (!shape.explored)
            continue;
        const std::uint64_t t0 = obs::steadyNowNs();
        const std::vector<Configuration> candidates =
            generator.generate(shape.decision, rng);
        const std::uint64_t t1 = obs::steadyNowNs();
        pass.generate_us.push_back(nsToUs(t1 - t0));
        pass.candidate_counts.push_back(
            static_cast<double>(candidates.size()));
    }
}

/**
 * Replay the run's samples into a bench-owned GoalRecorder and time
 * bestSampleByAveragedObjective wherever the controller called it.
 */
void
probeIncumbent(const TimedPolicy& policy, TracedPass& pass)
{
    const core::SatoriOptions& opt = policy.controller().options();
    core::GoalRecorder recorder(opt.objective.numGoals(), opt.window);
    for (const Shape& shape : policy.log().shapes) {
        const std::vector<double>& ips = shape.seen.ips;
        if (std::all_of(ips.begin(), ips.end(),
                        [](double v) { return std::isfinite(v); }))
            recorder.add(shape.seen.config,
                         opt.objective.goalValues(shape.seen));
        if (!shape.picks_incumbent || recorder.empty())
            continue;
        const std::uint64_t t0 = obs::steadyNowNs();
        const std::size_t best = recorder.bestSampleByAveragedObjective(
            shape.weights, opt.incumbent_kappa);
        const std::uint64_t t1 = obs::steadyNowNs();
        (void)best;
        pass.best_us.push_back(nsToUs(t1 - t0));
    }
}

/**
 * On workloads that run without a checkpointer, append the run's
 * interval records to a scratch WAL and snapshot the final server and
 * controller state every 50 intervals, so the persist spans measure
 * this workload's record and state shapes.
 */
void
probePersist(const TimedPolicy& policy, const sim::SimulatedServer& server,
             const std::string& dir)
{
    persist::CheckpointOptions copt;
    copt.dir = dir;
    copt.every = 50;
    persist::Checkpointer ckpt(copt, "bench_interval persist probe");
    ckpt.prepare();
    const core::SatoriController& ctrl = policy.controller();
    const std::vector<Shape>& shapes = policy.log().shapes;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const IntervalObservation& seen = shapes[i].seen;
        const std::vector<double> goals =
            ctrl.options().objective.goalValues(seen);
        persist::IntervalRecord rec;
        rec.interval = i;
        rec.time = seen.time;
        rec.config = seen.config;
        rec.ips = seen.ips;
        rec.speedups = speedups(seen.ips, seen.isolation_ips);
        rec.throughput = goals[0];
        rec.fairness = goals[1];
        rec.decision = shapes[i].decision;
        ckpt.onIntervalEnd(i, rec, [&](persist::SnapshotWriter& snap) {
            server.saveState(snap.section("server"));
            ctrl.saveState(snap.section("policy"));
        });
    }
}

TracedPass
runTraced(const Workload& w, const Args& args,
          const std::vector<Outcome>& reference,
          const std::string& ckpt_dir, const std::string& probe_dir,
          Tally& tally)
{
    TracedPass pass;
    obs::Observability& ctx = obs::observability();
    ctx.resetAll();
    ctx.tracer().setEnabled(true);
    ctx.setMetricsEnabled(true);
    ctx.audit().setEnabled(w.durable);
    Rng probe_rng(mix64(args.seed));
    for (std::size_t m = 0; m < w.mixes.size(); ++m) {
        ++tally.attempted;
        try {
            const std::unique_ptr<Run> run =
                setUp(w, m, runSeed(args.seed, 0, m), true, ckpt_dir);
            const std::uint64_t t0 = obs::steadyNowNs();
            const harness::ExperimentResult result =
                harness::ExperimentRunner(run->options)
                    .run(run->server, *run->policy, w.mixes[m].label);
            const std::uint64_t t1 = obs::steadyNowNs();
            pass.run_s += nsToS(t1 - t0);

            const DecideLog& log = run->policy->log();
            checkRun(result, log, w.steps());
            const Outcome traced = outcomeOf(result, log);
            if (traced.digest != reference[m].digest ||
                traced.mean_bits != reference[m].mean_bits)
                throw std::runtime_error(
                    "traced run differs from the untraced run");

            probeCandidates(*run->policy, probe_rng, pass);
            probeIncumbent(*run->policy, pass);
            if (!w.durable)
                probePersist(*run->policy, run->server, probe_dir);
            foldSpans(ctx.tracer().events(), pass.spans);
            pass.states.insert(pass.states.end(), log.states.begin(),
                               log.states.end());
        } catch (const std::exception& e) {
            reportFailure("traced", 0, m, e, tally);
        }
        ctx.tracer().clear();
        ctx.audit().clear();
    }
    const obs::LibraryMetrics& lib = ctx.lib();
    pass.guard_healthy = lib.guard_healthy.value();
    pass.guard_repaired = lib.guard_repaired.value();
    pass.guard_unusable = lib.guard_unusable.value();
    pass.screen_kept = lib.bo_screen_kept.value();
    pass.screen_pruned = lib.bo_screen_pruned.value();
    pass.grid_refits = lib.bo_grid_refits.value();
    pass.snapshots = lib.persist_snapshots.value();
    pass.snapshot_bytes = lib.persist_snapshot_bytes.value();
    ctx.resetAll();
    return pass;
}

// ---------------------------------------------------------------- metrics

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0; ///< Behind a percentile or mean; 0 if exact.
    bool per_layer = false;
};

double
peakRssMb()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<Metric>
assemble(const UntracedPass& u, const TracedPass& t, double peak_rss_mb,
         Tally& tally)
{
    std::vector<Metric> out;
    auto e2e = [&](const char* name, const char* unit, double value,
                   std::size_t n) {
        out.push_back({name, unit, value, n, false});
    };
    auto layer = [&](const char* name, const char* unit, double value,
                     std::size_t n) {
        out.push_back({name, unit, value, n, true});
    };
    auto layerPcts = [&](const std::string& prefix, const char* unit,
                         const std::vector<double>& v) {
        out.push_back({prefix + ".p50", unit, pct(v, 50.0), v.size(), true});
        out.push_back({prefix + ".p95", unit, pct(v, 95.0), v.size(), true});
    };
    auto span = [&](const char* name) -> const SpanSamples& {
        static const SpanSamples kNone;
        const auto it = t.spans.find(name);
        return it == t.spans.end() ? kNone : it->second;
    };
    auto count = [&](const char* name) {
        return static_cast<double>(span(name).dur_us.size());
    };

    // End to end, untraced pass. Each timing is computed per repeat and
    // the best repeat is reported: the shared host's speed moves in
    // bursts of seconds to a minute, every repeat runs the same mixes,
    // and the least-disturbed repeat is the steadiest reading of the
    // code's cost. n counts the samples of all repeats.
    std::size_t intervals = 0;
    std::size_t explores = 0;
    std::size_t settles = 0;
    double decide_s = 0.0;
    double run_s = 0.0;
    for (const Repeat& r : u.reps) {
        intervals += r.intervals;
        explores += r.explores;
        settles += r.settles;
        decide_s += r.decide_s;
        run_s += r.run_s;
    }
    auto bestRep = [&](double Repeat::*field, bool higher_is_better) {
        double best = u.reps.front().*field;
        for (const Repeat& r : u.reps)
            best = higher_is_better ? std::max(best, r.*field)
                                    : std::min(best, r.*field);
        return best;
    };
    e2e("decide_us.p50", "us", bestRep(&Repeat::decide_p50_us, false),
        intervals);
    e2e("decide_us.p99", "us", bestRep(&Repeat::decide_p99_us, false),
        intervals);
    e2e("explore_decide_us.p50", "us",
        bestRep(&Repeat::explore_p50_us, false), explores);
    e2e("ctrl_cpu_pct", "%", bestRep(&Repeat::ctrl_cpu_pct, false),
        intervals);
    e2e("intervals_per_s", "1/s", bestRep(&Repeat::intervals_per_s, true),
        intervals);
    // Set-up time: the median of the per-repeat totals.
    std::vector<double> setups;
    for (const Repeat& r : u.reps)
        setups.push_back(r.setup_s);
    e2e("setup_s", "s", pct(setups, 50.0), u.reps.size());
    e2e("peak_rss_mb", "MB", peak_rss_mb, 0);
    e2e("throughput_norm", "ratio", u.throughput.mean(),
        u.throughput.count());
    e2e("fairness_jain", "ratio", u.fairness.mean(), u.fairness.count());
    e2e("worst_job_speedup", "ratio", u.worst_job.mean(),
        u.worst_job.count());

    // core: state shares are exact counts over the traced repeat 0.
    const auto traced_n = static_cast<double>(t.states.size());
    const auto in_state = [&](State s) {
        return static_cast<double>(
            std::count(t.states.begin(), t.states.end(), s));
    };
    layer("core.explore_share", "ratio",
          ratio(in_state(State::Explore), traced_n), t.states.size());
    layer("core.degraded_share", "ratio",
          ratio(in_state(State::Degraded), traced_n), t.states.size());
    layer("core.settled_decide_us.p50", "us",
          bestRep(&Repeat::settled_p50_us, false), settles);
    layer("core.settled_decide_us.p99", "us",
          bestRep(&Repeat::settled_p99_us, false), settles);
    const SpanSamples& decide = span("controller.decide");
    std::vector<double> explore_self;
    if (decide.self_us.size() == t.states.size()) {
        for (std::size_t i = 0; i < t.states.size(); ++i)
            if (t.states[i] == State::Explore)
                explore_self.push_back(decide.self_us[i]);
    } else {
        ++tally.failed;
        std::fprintf(stderr,
                     "bench_interval: FAIL %zu controller.decide spans for "
                     "%zu traced intervals\n",
                     decide.self_us.size(), t.states.size());
    }
    layerPcts("core.decide_self_us", "us", explore_self);
    layerPcts("core.goal_record.best_us", "us", t.best_us);
    const auto guard_n = static_cast<double>(
        t.guard_healthy + t.guard_repaired + t.guard_unusable);
    layer("core.guard.repaired_share", "ratio",
          ratio(static_cast<double>(t.guard_repaired), guard_n), 0);
    layer("core.guard.unusable_share", "ratio",
          ratio(static_cast<double>(t.guard_unusable), guard_n), 0);

    // bo
    layerPcts("bo.candidates.generate_us", "us", t.generate_us);
    layer("bo.candidates.count.p50", "count", pct(t.candidate_counts, 50.0),
          t.candidate_counts.size());
    layerPcts("bo.acquisition_us", "us", span("bo.acquisition").dur_us);
    layer("bo.acquisition.count", "count", count("bo.acquisition"), 0);
    layer("bo.screen_pruned_share", "ratio",
          ratio(static_cast<double>(t.screen_pruned),
                static_cast<double>(t.screen_kept + t.screen_pruned)),
          0);
    layerPcts("bo.fit_us", "us", span("bo.fit").dur_us);
    layerPcts("bo.probe_us", "us", span("bo.probe").dur_us);
    layer("gp.fit.count", "count", count("gp.fit"), 0);
    layer("gp.fit.incremental.count", "count", count("gp.fit.incremental"),
          0);
    layer("gp.fit.refresh.count", "count", count("gp.fit.refresh"), 0);
    layer("gp.fit.window_slide.count", "count",
          count("gp.fit.window_slide"), 0);
    layer("bo.grid_refits.count", "count",
          static_cast<double>(t.grid_refits), 0);
    layer("gp.full_fit_share", "ratio",
          ratio(count("gp.fit"), count("bo.fit")), 0);

    // sim
    layerPcts("sim.step_us", "us", span("sim.step").dur_us);
    layerPcts("sim.observe_self_us", "us", span("sim.observe").self_us);

    // harness
    layer("harness.nondecide_us.mean", "us",
          1e6 * ratio(run_s - decide_s, static_cast<double>(intervals)),
          intervals);
    layerPcts("harness.actuate_us", "us", span("harness.actuate").dur_us);

    // persist
    layerPcts("persist.wal_append_us", "us",
              span("persist.wal.append").dur_us);
    layerPcts("persist.snapshot_us", "us", span("persist.snapshot").dur_us);
    layer("persist.snapshot_bytes.mean", "bytes",
          ratio(static_cast<double>(t.snapshot_bytes),
                static_cast<double>(t.snapshots)),
          t.snapshots);

    // obs
    layer("obs.trace_overhead_pct", "%",
          100.0 * (ratio(t.run_s, u.reps.front().run_s) - 1.0), 0);
    return out;
}

// ----------------------------------------------------------------- output

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.15g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** {"correct":..,"attempted":..,"failed":..,"metrics":{..}} */
std::string
resultJson(const std::vector<Metric>& metrics, const Tally& tally,
           bool with_samples)
{
    std::string s = "{\"correct\": ";
    s += tally.failed == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(tally.attempted);
    s += ", \"failed\": " + std::to_string(tally.failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        s += i == 0 ? "" : ", ";
        s += "\"" + m.name + "\": {\"value\": " + number(m.value) +
             ", \"unit\": \"" + m.unit + "\"";
        if (with_samples)
            s += ", \"samples\": " + std::to_string(m.samples);
        s += "}";
    }
    return s + "}}";
}

void
printMetrics(const std::vector<Metric>& metrics, bool per_layer)
{
    std::printf("%s\n", per_layer ? "per layer (traced repeat 0 and probes)"
                                   : "end to end (untraced pass)");
    for (const Metric& m : metrics) {
        if (m.per_layer != per_layer)
            continue;
        std::printf("  %-30s %16s %-6s", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());
        if (m.samples > 0)
            std::printf(" n=%zu", m.samples);
        std::printf("\n");
    }
}

/** A scratch directory removed (with its contents) on scope exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(std::filesystem::path path) : path_(std::move(path))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    [[nodiscard]] std::string sub(const char* name) const
    {
        return (path_ / name).string();
    }

  private:
    std::filesystem::path path_;
};

int
runBench(const Args& args)
{
    const std::optional<Workload> workload =
        makeWorkload(args.workload, args.smoke);
    if (!workload)
        usage("unknown workload " + args.workload);
    const ScratchDir scratch(std::filesystem::path(args.scratch) /
                             "bench_interval.scratch");
    Tally tally;
    const UntracedPass untraced =
        runUntraced(*workload, args, scratch.sub("ckpt"), tally);
    const double peak_rss_mb = peakRssMb();
    const TracedPass traced =
        runTraced(*workload, args, untraced.rep0, scratch.sub("ckpt"),
                  scratch.sub("probe"), tally);
    const std::vector<Metric> metrics =
        assemble(untraced, traced, peak_rss_mb, tally);

    std::printf("bench_interval workload=%s seed=%llu repeats=%zu "
                "mixes=%zu simulated=%gs/run\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                untraced.reps.size(), workload->mixes.size(),
                workload->duration);
    printMetrics(metrics, false);
    printMetrics(metrics, true);
    std::printf("failed_runs_pct %s %% (%zu of %zu runs)\n",
                number(100.0 * ratio(static_cast<double>(tally.failed),
                                     static_cast<double>(tally.attempted)))
                    .c_str(),
                tally.failed, tally.attempted);
    if (!args.json.empty()) {
        std::ofstream out(args.json);
        out << resultJson(metrics, tally, true) << "\n";
        if (!out)
            throw std::runtime_error("cannot write " + args.json);
    }
    std::vector<Metric> selected;
    for (const Metric& m : metrics)
        if (m.per_layer == args.trace)
            selected.push_back(m);
    std::printf("%s\n", resultJson(selected, tally, false).c_str());
    return tally.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return runBench(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_interval: %s\n", e.what());
        return 1;
    }
}
