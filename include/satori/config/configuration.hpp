/**
 * @file
 * A resource-partitioning configuration: how many units of every
 * shared resource each co-located job receives (Sec. II).
 */

#ifndef SATORI_CONFIG_CONFIGURATION_HPP
#define SATORI_CONFIG_CONFIGURATION_HPP

#include <span>
#include <string>
#include <vector>

#include "satori/common/types.hpp"
#include "satori/config/platform.hpp"

namespace satori {

/**
 * One permutation of resource allocation of all available resources
 * to all co-located jobs. Every job receives at least one unit of
 * every resource and the units of each resource are fully assigned.
 *
 * Stored as one contiguous resource-major buffer of integer units:
 * element (r * numJobs + j) is job j's share of resource r, so a copy
 * costs a single allocation.
 */
class Configuration
{
  public:
    /** An empty configuration (no jobs/resources). */
    Configuration() = default;

    /**
     * Construct from explicit unit assignments.
     *
     * @param alloc alloc[r][j] = units of resource r given to job j.
     */
    explicit Configuration(std::vector<std::vector<int>> alloc);

    /**
     * Construct from a resource-major unit buffer.
     *
     * @param units units[r * num_jobs + j] = units of resource r given
     *        to job j. @pre units.size() == num_resources * num_jobs.
     */
    Configuration(std::size_t num_resources, std::size_t num_jobs,
                  std::vector<int> units);

    /** Number of co-located jobs. */
    [[nodiscard]] std::size_t numJobs() const { return num_jobs_; }

    /** Number of resources. */
    [[nodiscard]] std::size_t numResources() const { return num_resources_; }

    /** Units of resource @p r given to job @p j. */
    [[nodiscard]] int units(ResourceIndex r, JobIndex j) const;

    /** Mutable unit count (validity must be restored by the caller). */
    int& units(ResourceIndex r, JobIndex j);

    /** The allocation row for resource @p r (one entry per job). */
    [[nodiscard]] std::span<const int> resourceRow(ResourceIndex r) const;

    /** Every unit count, resource-major (see the class comment). */
    [[nodiscard]] std::span<const int> unitBuffer() const { return units_; }

    /** Total units assigned for resource @p r. */
    [[nodiscard]] int totalUnits(ResourceIndex r) const;

    /**
     * True if the configuration is well-formed for @p platform and
     * @p num_jobs: right shape, every job gets >= 1 unit of every
     * resource, all units fully assigned.
     */
    [[nodiscard]] bool isValidFor(const PlatformSpec& platform,
                    std::size_t num_jobs) const;

    /**
     * The S_init configuration: every resource divided as equally as
     * possible among jobs (Algorithm 1); leftovers go to the
     * lowest-indexed jobs.
     */
    [[nodiscard]] static Configuration equalPartition(const PlatformSpec& platform,
                                        std::size_t num_jobs);

    /**
     * Flatten to share-normalized reals, numResources x numJobs of
     * them: element d = (r * numJobs + j), job j's fraction of
     * resource r, goes to out[d * stride]. This is the GP input
     * representation (stride 1 writes a training-block row, stride
     * C a structure-of-arrays candidate block) and the space in which
     * the paper's Fig. 15 distances are computed (scaled back to
     * units there).
     */
    void normalizedInto(double* out, std::size_t stride) const;

    /**
     * Euclidean distance between two configurations in *unit* space
     * (the Fig. 15 metric: 15-dimensional vectors of unit counts).
     */
    [[nodiscard]] static double distance(const Configuration& a, const Configuration& b);

    /**
     * L1 (total moved units) distance between two configurations -
     * the natural measure of reconfiguration effort.
     */
    [[nodiscard]] static int l1Distance(const Configuration& a, const Configuration& b);

    /**
     * Transfer one unit of resource @p r from job @p from to job @p to.
     * @return false (and leave the configuration unchanged) if @p from
     * has only one unit left.
     */
    bool transferUnit(ResourceIndex r, JobIndex from, JobIndex to);

    /** Compact human-readable rendering, e.g. "[5,5|6,5|5,5]". */
    [[nodiscard]] std::string toString() const;

    /** Structural equality. */
    bool operator==(const Configuration& other) const;

  private:
    std::size_t num_resources_ = 0;
    std::size_t num_jobs_ = 0;
    std::vector<int> units_;
};

} // namespace satori

#endif // SATORI_CONFIG_CONFIGURATION_HPP
