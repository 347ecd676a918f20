/**
 * @file
 * A co-located job: a workload profile plus runtime progress state
 * (phase position, retired instructions, fixed-work completions).
 */

#ifndef SATORI_SIM_JOB_HPP
#define SATORI_SIM_JOB_HPP

#include <cstdint>

#include "satori/perfmodel/phase.hpp"
#include "satori/workloads/profile.hpp"

namespace satori {

namespace persist {
class StateWriter;
class StateReader;
} // namespace persist

namespace sim {

/**
 * Runtime state of one job executing on the simulated server.
 *
 * Follows the paper's fixed-work methodology (Sec. IV): a job "run"
 * is a fixed number of instructions; jobs restart upon completion so
 * long-horizon co-location experiments always have work available.
 */
class Job
{
  public:
    /** Start the job at the beginning of its first phase. */
    explicit Job(workloads::WorkloadProfile profile);

    /** The workload this job executes. */
    [[nodiscard]] const workloads::WorkloadProfile& profile() const { return profile_; }

    /** Parameters of the phase currently executing. */
    [[nodiscard]] const perfmodel::PhaseParams& currentPhase() const;

    /** Index of the current phase within the profile's cycle. */
    [[nodiscard]] std::size_t currentPhaseIndex() const;

    /** Retire @p n instructions, advancing phase and work accounting. */
    void retire(Instructions n);

    /** Total instructions retired since construction/reset. */
    [[nodiscard]] Instructions totalRetired() const { return total_retired_; }

    /** Completed fixed-work runs (for fixed-work experiments). */
    [[nodiscard]] std::uint64_t completedRuns() const { return completed_runs_; }

    /** Restart from scratch (phase 0, zero counters). */
    void reset();

    /** Serialize progress state; the profile itself is not saved. */
    void saveState(persist::StateWriter& w) const;

    /** Restore progress saved by saveState onto the same profile. */
    void restoreState(persist::StateReader& r);

  private:
    workloads::WorkloadProfile profile_;
    perfmodel::PhaseSequence phases_;
    Instructions total_retired_ = 0;
    Instructions run_retired_ = 0;
    std::uint64_t completed_runs_ = 0;
};

} // namespace sim
} // namespace satori

#endif // SATORI_SIM_JOB_HPP
