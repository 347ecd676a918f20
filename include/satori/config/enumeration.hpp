/**
 * @file
 * Enumeration of the resource-partitioning configuration space.
 *
 * The space of one resource with U units split among M jobs (>= 1 unit
 * each) is the set of compositions of U into M positive parts, of size
 * C(U-1, M-1); the joint space is the Cartesian product over resources
 * (Sec. II: S_conf = prod_r C(U_r - 1, M - 1)).
 */

#ifndef SATORI_CONFIG_ENUMERATION_HPP
#define SATORI_CONFIG_ENUMERATION_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "satori/common/rng.hpp"
#include "satori/config/configuration.hpp"
#include "satori/config/platform.hpp"

namespace satori {

/**
 * Enumerates compositions of @p units into @p parts positive integer
 * parts in lexicographic order. Every composition is precomputed at
 * construction, so unranking returns a table row and ranking costs
 * O(parts) table lookups.
 */
class CompositionSpace
{
  public:
    /**
     * Bound on the precomputed table, compositions x parts units
     * (4 MiB of ints). The largest resource of any bundled platform
     * needs 210 x 5.
     */
    static constexpr std::uint64_t kMaxTableUnits = std::uint64_t{1} << 20;

    /**
     * @pre units >= parts >= 1.
     * @throws FatalError if the table would exceed kMaxTableUnits.
     */
    CompositionSpace(int units, int parts);

    /** Number of compositions: C(units-1, parts-1). */
    [[nodiscard]] std::uint64_t size() const { return size_; }

    /** The @p index-th composition in lexicographic order. */
    [[nodiscard]] std::span<const int> at(std::uint64_t index) const;

    /** Rank of a composition (inverse of at()). */
    [[nodiscard]] std::uint64_t rank(std::span<const int> composition) const;

    /** Units being split. */
    [[nodiscard]] int units() const { return units_; }

    /** Number of parts. */
    [[nodiscard]] int parts() const { return parts_; }

  private:
    int units_;
    int parts_;
    std::uint64_t size_;
    /** Every composition, index-major: size_ rows of parts_ units. */
    std::vector<int> rows_;
    /**
     * counts_[(k - 2) * (slack + 1) + a]: compositions of k + a units
     * into k parts (k = 2..parts_, a = 0..slack, slack = units_ -
     * parts_). Ranking reads two entries per part.
     */
    std::vector<std::uint64_t> counts_;
};

/**
 * The joint configuration space over all resources of a platform for
 * a fixed number of co-located jobs. Provides size, index<->config
 * bijection, uniform sampling, and neighborhood generation.
 */
class ConfigurationSpace
{
  public:
    ConfigurationSpace(const PlatformSpec& platform, std::size_t num_jobs);

    /** Total number of valid configurations (Sec. II formula). */
    [[nodiscard]] std::uint64_t size() const { return size_; }

    /** The @p index-th configuration (mixed-radix over resources). */
    [[nodiscard]] Configuration at(std::uint64_t index) const;

    /** Rank of a configuration (inverse of at()). */
    [[nodiscard]] std::uint64_t rank(const Configuration& config) const;

    /** A configuration and its rank(). */
    struct Ranked
    {
        Configuration config;
        std::uint64_t rank;
    };

    /**
     * A uniformly random configuration with its rank: one
     * rng.uniformInt per resource, in resource order, and the rank is
     * the mixed-radix number of those draws (each composition's
     * table index is its rank), so no re-ranking is needed.
     */
    [[nodiscard]] Ranked sampleRanked(Rng& rng) const;

    /** A uniformly random configuration: sampleRanked(rng).config. */
    [[nodiscard]] Configuration sample(Rng& rng) const;

    /**
     * All configurations reachable from @p config by moving exactly
     * one unit of one resource between two jobs (the local moves used
     * by BO candidate refinement and the gradient-descent baseline).
     */
    [[nodiscard]] std::vector<Configuration> neighbors(const Configuration& config) const;

    /** Number of co-located jobs. */
    [[nodiscard]] std::size_t numJobs() const { return num_jobs_; }

    /** The platform this space was built for. */
    [[nodiscard]] const PlatformSpec& platform() const { return platform_; }

    /**
     * Closed-form size of a space without building it, e.g. for the
     * search-space-growth table of Sec. II.
     */
    [[nodiscard]] static std::uint64_t sizeOf(const PlatformSpec& platform,
                                std::size_t num_jobs);

  private:
    PlatformSpec platform_;
    std::size_t num_jobs_;
    std::vector<CompositionSpace> per_resource_;
    std::uint64_t size_;
};

} // namespace satori

#endif // SATORI_CONFIG_ENUMERATION_HPP
