#include "satori/config/enumeration.hpp"

#include <algorithm>
#include <string>

#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"

namespace satori {

CompositionSpace::CompositionSpace(int units, int parts)
    : units_(units), parts_(parts)
{
    if (parts < 1)
        SATORI_FATAL("composition must have at least one part");
    if (units < parts)
        SATORI_FATAL("cannot give every job at least one unit: units < jobs");
    // C(units-1, parts-1) by binomial()'s partial products, each of
    // which is itself a binomial no larger than the result: stopping
    // at the first one past the bound also rules out overflow.
    const std::uint64_t limit =
        kMaxTableUnits / static_cast<std::uint64_t>(parts);
    const std::uint64_t n = static_cast<std::uint64_t>(units - 1);
    const std::uint64_t k = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(parts - 1),
        static_cast<std::uint64_t>(units - parts));
    size_ = 1;
    for (std::uint64_t i = 1; i <= k; ++i) {
        size_ = size_ * (n - k + i) / i;
        if (size_ > limit)
            SATORI_FATAL("splitting " + std::to_string(units) +
                         " units among " + std::to_string(parts) +
                         " jobs has over " + std::to_string(limit) +
                         " compositions; the precomputed table is "
                         "bounded at 2^20 units (compositions x jobs)");
    }

    // Every composition in lexicographic order, each the successor of
    // the one before: find the rightmost part whose suffix still has a
    // spare unit, raise it by one, and reset the suffix to its
    // smallest arrangement (all ones, remainder last).
    const std::size_t width = static_cast<std::size_t>(parts_);
    rows_.resize(static_cast<std::size_t>(size_) * width);
    std::fill(rows_.begin(), rows_.begin() + parts_, 1);
    rows_[width - 1] = units_ - parts_ + 1;
    for (std::size_t i = 1; i < size_; ++i) {
        int* cur = rows_.data() + i * width;
        std::copy(cur - width, cur, cur);
        int p = parts_ - 2;
        int suffix = cur[parts_ - 1];
        while (suffix == parts_ - 1 - p) {
            suffix += cur[p];
            --p;
        }
        cur[p] += 1;
        int rest = suffix - 1;
        for (int q = p + 1; q < parts_ - 1; ++q, --rest)
            cur[q] = 1;
        cur[parts_ - 1] = rest;
    }

    // counts_ by Pascal's rule: k parts take k + a units in C(k+a-1, a)
    // ways, and C(n, a) = C(n-1, a-1) + C(n-1, a).
    const std::size_t stride = static_cast<std::size_t>(units_ - parts_) + 1;
    counts_.resize(static_cast<std::size_t>(parts_ - 1) * stride);
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const std::size_t a = i % stride;
        const bool two_parts = i < stride;
        counts_[i] = a == 0 ? 1
                            : counts_[i - 1] +
                                  (two_parts ? 1 : counts_[i - stride]);
    }
}

std::span<const int>
CompositionSpace::at(std::uint64_t index) const
{
    SATORI_ASSERT(index < size_);
    const std::size_t width = static_cast<std::size_t>(parts_);
    return std::span<const int>(rows_).subspan(
        static_cast<std::size_t>(index) * width, width);
}

std::uint64_t
CompositionSpace::rank(std::span<const int> composition) const
{
    SATORI_ASSERT(composition.size() == static_cast<std::size_t>(parts_));
    // The compositions of U units into k parts whose first part is
    // below v number C(U-1, k-1) - C(U-v, k-1): all of them minus
    // those with first part >= v. Both terms are counts_ entries.
    const std::size_t stride = static_cast<std::size_t>(units_ - parts_) + 1;
    std::uint64_t index = 0;
    int remaining_units = units_;
    for (int p = 0; p < parts_ - 1; ++p) {
        const int parts_left = parts_ - p;
        const int value = composition[static_cast<std::size_t>(p)];
        const int slack = remaining_units - parts_left;
        SATORI_ASSERT(value >= 1 && value - 1 <= slack);
        const std::uint64_t* counts =
            counts_.data() + static_cast<std::size_t>(parts_left - 2) * stride;
        index += counts[slack] - counts[slack - (value - 1)];
        remaining_units -= value;
    }
    SATORI_ASSERT(composition.back() == remaining_units);
    return index;
}

ConfigurationSpace::ConfigurationSpace(const PlatformSpec& platform,
                                       std::size_t num_jobs)
    : platform_(platform), num_jobs_(num_jobs)
{
    SATORI_ASSERT(num_jobs >= 1);
    size_ = 1;
    for (std::size_t r = 0; r < platform.numResources(); ++r) {
        per_resource_.emplace_back(platform.units(r),
                                   static_cast<int>(num_jobs));
        size_ *= per_resource_.back().size();
    }
}

Configuration
ConfigurationSpace::at(std::uint64_t index) const
{
    SATORI_ASSERT(index < size_);
    std::vector<int> units(per_resource_.size() * num_jobs_);
    // Mixed-radix decomposition, least-significant resource last.
    for (std::size_t r = per_resource_.size(); r-- > 0;) {
        const std::uint64_t radix = per_resource_[r].size();
        const std::span<const int> row = per_resource_[r].at(index % radix);
        std::copy(row.begin(), row.end(), units.begin() + r * num_jobs_);
        index /= radix;
    }
    return Configuration(per_resource_.size(), num_jobs_, std::move(units));
}

std::uint64_t
ConfigurationSpace::rank(const Configuration& config) const
{
    SATORI_ASSERT(config.numResources() == per_resource_.size());
    std::uint64_t index = 0;
    for (std::size_t r = 0; r < per_resource_.size(); ++r) {
        index = index * per_resource_[r].size() +
                per_resource_[r].rank(config.resourceRow(r));
    }
    return index;
}

ConfigurationSpace::Ranked
ConfigurationSpace::sampleRanked(Rng& rng) const
{
    std::vector<int> units(per_resource_.size() * num_jobs_);
    std::uint64_t index = 0;
    for (std::size_t r = 0; r < per_resource_.size(); ++r) {
        // A composition's table index is its rank, so the draw is
        // kept; rank() combines the resources' ranks in this order.
        const std::uint64_t radix = per_resource_[r].size();
        const std::uint64_t draw = rng.uniformInt(radix);
        const std::span<const int> row = per_resource_[r].at(draw);
        std::copy(row.begin(), row.end(), units.begin() + r * num_jobs_);
        index = index * radix + draw;
    }
    return {Configuration(per_resource_.size(), num_jobs_, std::move(units)),
            index};
}

Configuration
ConfigurationSpace::sample(Rng& rng) const
{
    return sampleRanked(rng).config;
}

std::vector<Configuration>
ConfigurationSpace::neighbors(const Configuration& config) const
{
    std::vector<Configuration> out;
    for (std::size_t r = 0; r < per_resource_.size(); ++r) {
        for (JobIndex from = 0; from < num_jobs_; ++from) {
            if (config.units(r, from) <= 1)
                continue;
            for (JobIndex to = 0; to < num_jobs_; ++to) {
                if (to == from)
                    continue;
                Configuration next = config;
                next.transferUnit(r, from, to);
                out.push_back(std::move(next));
            }
        }
    }
    return out;
}

std::uint64_t
ConfigurationSpace::sizeOf(const PlatformSpec& platform,
                           std::size_t num_jobs)
{
    std::uint64_t size = 1;
    for (std::size_t r = 0; r < platform.numResources(); ++r) {
        size *= binomial(static_cast<std::uint64_t>(platform.units(r) - 1),
                         static_cast<std::uint64_t>(num_jobs - 1));
    }
    return size;
}

} // namespace satori
