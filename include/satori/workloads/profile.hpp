/**
 * @file
 * Workload profiles: named synthetic equivalents of the paper's
 * PARSEC / CloudSuite / ECP benchmarks (Tables I-III), expressed as
 * cyclic phase sequences over the analytic performance model.
 */

#ifndef SATORI_WORKLOADS_PROFILE_HPP
#define SATORI_WORKLOADS_PROFILE_HPP

#include <string>
#include <vector>

#include "satori/common/types.hpp"
#include "satori/perfmodel/phase.hpp"

namespace satori {
namespace workloads {

/**
 * A named workload: a phase cycle plus fixed-work accounting metadata
 * (the paper uses the fixed-work methodology, Sec. IV).
 */
struct WorkloadProfile
{
    /** Benchmark name, e.g. "canneal". */
    std::string name;

    /** Suite the benchmark belongs to ("parsec", "cloudsuite", "ecp"). */
    std::string suite;

    /** One-line description mirroring the paper's tables. */
    std::string description;

    /** The cyclic phase sequence. */
    std::vector<perfmodel::PhaseParams> phases;

    /** Instructions that constitute one complete "run" (fixed work). */
    Instructions fixed_work = 5e10;
};

/**
 * Helper used by the suite definitions: builds one phase with the
 * exponential miss-ratio-curve parameterization.
 */
[[nodiscard]] perfmodel::PhaseParams makePhase(std::string label, double base_ipc,
                                 double parallel_fraction, double mpki_one,
                                 double mpki_floor, double mrc_decay_ways,
                                 double miss_penalty_cycles,
                                 double bytes_per_miss,
                                 Instructions length);

/**
 * Like makePhase() but with a working-set-cliff MRC: MPKI stays high
 * until @p knee_ways fit, then drops steeply (width @p cliff_width).
 */
[[nodiscard]] perfmodel::PhaseParams makeCliffPhase(std::string label, double base_ipc,
                                      double parallel_fraction,
                                      double mpki_one, double mpki_floor,
                                      double knee_ways, double cliff_width,
                                      double miss_penalty_cycles,
                                      double bytes_per_miss,
                                      Instructions length);

} // namespace workloads
} // namespace satori

#endif // SATORI_WORKLOADS_PROFILE_HPP
