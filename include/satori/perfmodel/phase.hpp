/**
 * @file
 * Program phases: a workload is a cyclic sequence of phases, each with
 * its own resource-sensitivity parameters (Sec. II observes that the
 * optimal configuration shifts because phases differ in sensitivity).
 */

#ifndef SATORI_PERFMODEL_PHASE_HPP
#define SATORI_PERFMODEL_PHASE_HPP

#include <string>
#include <vector>

#include "satori/common/types.hpp"
#include "satori/perfmodel/mrc.hpp"

namespace satori {
namespace perfmodel {

/**
 * Resource-sensitivity parameters of one program phase, driving the
 * analytic performance model in perf.hpp.
 */
struct PhaseParams
{
    /** Short label for traces ("compute", "stream", ...). */
    std::string label;

    /** Per-core IPC with a perfect LLC (no model misses). */
    double base_ipc = 1.0;

    /** Amdahl parallel fraction in [0, 1]; core-count sensitivity. */
    double parallel_fraction = 0.9;

    /** LLC miss-ratio curve (MPKI as a function of allocated ways). */
    MissRatioCurve mrc;

    /**
     * Core-count/cache coupling: each additional active core inflates
     * the working set competing for the allocated ways, so the MRC is
     * evaluated at effective ways w / (1 + cache_pressure * (c - 1)).
     * This correlated utility across resources (Sec. VI) is what
     * makes one-dimension-at-a-time search prone to local maxima.
     */
    double cache_pressure = 0.2;

    /** Average exposed stall cycles per LLC miss (post-MLP overlap). */
    double miss_penalty_cycles = 120.0;

    /** Bytes of memory traffic per LLC miss (line + writeback share). */
    double bytes_per_miss = 80.0;

    /** Phase length in retired instructions before the next phase. */
    Instructions length = 2e9;
};

/**
 * Tracks progress through a cyclic phase sequence by retired
 * instructions. Copyable value type owned by sim::Job.
 */
class PhaseSequence
{
  public:
    /** @pre at least one phase; all lengths > 0. */
    explicit PhaseSequence(std::vector<PhaseParams> phases);

    /** The currently executing phase. */
    [[nodiscard]] const PhaseParams& current() const;

    /** Index of the current phase within the cycle. */
    [[nodiscard]] std::size_t currentIndex() const { return index_; }

    /**
     * Retire @p instructions; advances through phase boundaries
     * (possibly several) and wraps around cyclically.
     */
    void advance(Instructions instructions);

    /** Phase by index. */
    [[nodiscard]] const PhaseParams& phase(std::size_t i) const;

    /** Instructions retired inside the current phase. */
    [[nodiscard]] Instructions progressInPhase() const { return progress_; }

    /** Restart from the first phase. */
    void reset();

    /**
     * Jump to phase @p index with @p progress instructions already
     * retired inside it (checkpoint recovery).
     * @pre index < the number of phases; 0 <= progress <
     *      phase(index).length.
     */
    void seek(std::size_t index, Instructions progress);

  private:
    std::vector<PhaseParams> phases_;
    std::size_t index_ = 0;
    Instructions progress_ = 0;
};

} // namespace perfmodel
} // namespace satori

#endif // SATORI_PERFMODEL_PHASE_HPP
