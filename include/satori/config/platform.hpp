/**
 * @file
 * Description of the partitionable resources of a CMP server.
 *
 * Mirrors the paper's testbed (Sec. IV): an Intel Xeon Skylake with
 * 10 physical cores (partitioned with taskset), an 11-way shared LLC
 * (partitioned with Intel CAT), and memory bandwidth in 10% steps
 * (partitioned with Intel MBA).
 */

#ifndef SATORI_CONFIG_PLATFORM_HPP
#define SATORI_CONFIG_PLATFORM_HPP

#include <string>
#include <vector>

#include "satori/common/types.hpp"

namespace satori {

/** Kinds of partitionable resources the simulator understands. */
enum class ResourceKind
{
    Cores,          ///< Physical cores (taskset affinity).
    LlcWays,        ///< Last-level cache ways (Intel CAT).
    MemBandwidth,   ///< Memory bandwidth units (Intel MBA, 10% steps).
    PowerCap,       ///< Power budget units (Intel RAPL) - extension.
};

/** Human-readable name of a resource kind. */
[[nodiscard]] std::string resourceKindName(ResourceKind kind);

/** One partitionable resource: a kind and its number of integer units. */
struct ResourceSpec
{
    ResourceKind kind;
    int units;
};

/**
 * The set of partitionable resources on a server.
 *
 * A PlatformSpec defines the shape of the configuration space; the
 * performance semantics of the units (GHz, GB/s, ...) live in
 * perfmodel::MachineParams.
 */
class PlatformSpec
{
  public:
    /** An empty platform (no resources); add with addResource(). */
    PlatformSpec() = default;

    /** Construct from a resource list. */
    explicit PlatformSpec(std::vector<ResourceSpec> resources);

    /** Append one resource. @pre units >= 1. */
    void addResource(ResourceKind kind, int units);

    /** Number of partitionable resources. */
    [[nodiscard]] std::size_t numResources() const { return resources_.size(); }

    /** Resource descriptor by index. */
    [[nodiscard]] const ResourceSpec& resource(ResourceIndex r) const;

    /** Units of resource @p r. */
    [[nodiscard]] int units(ResourceIndex r) const { return resource(r).units; }

    /** All resources. */
    [[nodiscard]] const std::vector<ResourceSpec>& resources() const { return resources_; }

    /**
     * Index of the resource with the given kind, or -1 if absent.
     * Platforms never contain the same kind twice.
     */
    [[nodiscard]] int indexOf(ResourceKind kind) const;

    /**
     * A restricted copy containing only the resources in @p kinds
     * (used for the single/two-resource ablation of Sec. V).
     */
    [[nodiscard]] PlatformSpec restrictedTo(const std::vector<ResourceKind>& kinds) const;

    /**
     * The paper's testbed: 10 cores, 11 LLC ways, 10 memory-bandwidth
     * units (Sec. IV).
     */
    [[nodiscard]] static PlatformSpec paperTestbed();

    /**
     * The paper's testbed extended with an 8-unit RAPL-style power
     * budget - the fourth knob the conclusion says SATORI can handle.
     */
    [[nodiscard]] static PlatformSpec extendedTestbed();

  private:
    std::vector<ResourceSpec> resources_;
};

} // namespace satori

#endif // SATORI_CONFIG_PLATFORM_HPP
