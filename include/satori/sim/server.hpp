/**
 * @file
 * The simulated CMP server: the substrate standing in for the paper's
 * Intel Xeon testbed with CAT/MBA/taskset partitioning (Sec. IV).
 *
 * The server holds a set of co-located jobs and the active resource-
 * partitioning configuration; step() advances simulated time in
 * controller intervals (100 ms by default), evaluating each job's IPS
 * under the analytic performance model plus measurement noise.
 */

#ifndef SATORI_SIM_SERVER_HPP
#define SATORI_SIM_SERVER_HPP

#include <vector>

#include "satori/common/rng.hpp"
#include "satori/common/types.hpp"
#include "satori/config/configuration.hpp"
#include "satori/config/platform.hpp"
#include "satori/perfmodel/perf.hpp"
#include "satori/sim/job.hpp"
#include "satori/workloads/profile.hpp"

namespace satori {

namespace persist {
class StateWriter;
class StateReader;
} // namespace persist

namespace sim {

/**
 * Simulator construction knobs. The per-resource reconfiguration
 * transient (cost per unit moved, cap, decay) is fixed in server.cpp.
 */
struct ServerOptions
{
    /** RNG seed; fully determines the run. */
    std::uint64_t seed = 42;

    /**
     * Relative standard deviation of multiplicative IPS measurement
     * noise (models pqos sampling jitter and residual interference
     * from unpartitioned structures such as SMT and the ring).
     */
    double noise_sigma = 0.04;
};

/** A partitionable multi-core server executing co-located jobs. */
class SimulatedServer
{
  public:
    /**
     * Build a server for @p platform running one job per profile in
     * @p mix, starting from the equal partition (S_init).
     *
     * @throws FatalError if any resource has fewer units than jobs.
     */
    SimulatedServer(PlatformSpec platform,
                    perfmodel::MachineParams machine,
                    std::vector<workloads::WorkloadProfile> mix,
                    ServerOptions options = {});

    /** Number of co-located jobs. */
    [[nodiscard]] std::size_t numJobs() const { return jobs_.size(); }

    /** The platform's partitionable resources. */
    [[nodiscard]] const PlatformSpec& platform() const { return platform_; }

    /** Machine performance constants. */
    [[nodiscard]] const perfmodel::MachineParams& machine() const { return machine_; }

    /**
     * Apply a new partitioning configuration (validated).
     *
     * @throws FatalError naming the offending resource when a
     *         per-resource total exceeds (or undershoots) the
     *         platform's capacity, or when the shape is wrong.
     */
    void setConfiguration(const Configuration& config);

    /** The configuration currently in force. */
    [[nodiscard]] const Configuration& configuration() const { return config_; }

    /**
     * Advance simulated time by @p dt seconds under the current
     * configuration.
     *
     * @return Per-job IPS measured over the interval (noise included).
     */
    std::vector<Ips> step(Seconds dt);

    /** Simulated time elapsed so far. */
    [[nodiscard]] Seconds now() const { return now_; }

    /**
     * Per-job isolated-execution IPS at each job's *current* phase
     * (the job alone on the whole machine); noiseless. This is the
     * paper's online isolation baseline measurement.
     */
    [[nodiscard]] std::vector<Ips> isolationIpsNow() const;

    /** Current phase index of every job (the oracle's memo key). */
    [[nodiscard]] std::vector<std::size_t> phaseSignature() const;

    /** Job state access. */
    [[nodiscard]] const Job& job(std::size_t j) const;

    /** Mutable job state access. */
    Job& job(std::size_t j);

    /**
     * Replace job @p j with a new workload mid-run (job churn); the
     * new job starts from scratch. The configuration is kept and the
     * job's outstanding reconfiguration transient is cleared (a fresh
     * process has no warmed state to lose).
     *
     * @throws FatalError if @p j is out of range or @p profile has no
     *         phases.
     */
    void replaceJob(std::size_t j, workloads::WorkloadProfile profile);

    /**
     * External per-job rate factors in (0, 1], modeling effects
     * outside the partitioned resources - transient core offlining,
     * thermal throttling, a noisy co-runner on unmanaged structures.
     * Applied multiplicatively to true IPS in step(), so telemetry
     * and scoring both see the slowdown. Resets to all-ones via an
     * empty vector.
     *
     * @throws FatalError on a size mismatch or out-of-range factor.
     */
    void setExternalThrottle(std::vector<double> factors);

    /** The external throttle in force (empty = all-ones). */
    [[nodiscard]] const std::vector<double>& externalThrottle() const
    {
        return external_throttle_;
    }

    /**
     * Evaluate the noiseless model: per-job IPS under @p config with
     * jobs pinned at @p phase_signature. Does not mutate the server.
     * Used by the offline oracle and the characterization benches.
     */
    [[nodiscard]] std::vector<Ips> evaluateIps(
        const Configuration& config,
        const std::vector<std::size_t>& phase_signature) const;

    /**
     * Noiseless isolation IPS of job @p j pinned at phase
     * @p phase_index.
     */
    [[nodiscard]] Ips isolationIpsAt(std::size_t j, std::size_t phase_index) const;

    /**
     * Serialize all mutable run state: per-job progress, the active
     * configuration, the noise RNG stream, simulated time, and the
     * reconfiguration/throttle vectors. Platform, machine constants,
     * and workload profiles are construction inputs and not saved.
     */
    void saveState(persist::StateWriter& w) const;

    /**
     * Restore state saved by saveState onto a server constructed with
     * the same platform/mix/options.
     *
     * @throws FatalError if the saved shape does not match this
     *         server (job count, configuration shape).
     */
    void restoreState(persist::StateReader& r);

    /** Map @p config to the model's AllocationView for job @p j. */
    [[nodiscard]] perfmodel::AllocationView allocationView(const Configuration& config,
                                             JobIndex j) const;

  private:
    PlatformSpec platform_;
    perfmodel::MachineParams machine_;
    ServerOptions options_;
    std::vector<Job> jobs_;
    Configuration config_;
    Rng rng_;
    Seconds now_ = 0.0;

    /** Per-job outstanding reconfiguration transient (IPS fraction). */
    std::vector<double> reconfig_penalty_;

    /** External per-job rate factors (empty = no throttling). */
    std::vector<double> external_throttle_;
};

} // namespace sim
} // namespace satori

#endif // SATORI_SIM_SERVER_HPP
