#include "satori/policies/restricted_policy.hpp"

#include "satori/common/logging.hpp"

namespace satori {
namespace policies {

RestrictedPolicy::RestrictedPolicy(
    const PlatformSpec& full_platform, std::size_t num_jobs,
    const std::vector<ResourceKind>& managed, const InnerFactory& factory)
    : full_(full_platform),
      restricted_(full_platform.restrictedTo(managed)),
      num_jobs_(num_jobs)
{
    if (restricted_.numResources() == 0)
        SATORI_FATAL("restricted policy manages no resources");
    for (std::size_t r = 0; r < restricted_.numResources(); ++r) {
        const int idx = full_.indexOf(restricted_.resource(r).kind);
        SATORI_ASSERT(idx >= 0);
        managed_indices_.push_back(static_cast<std::size_t>(idx));
    }
    inner_ = factory(restricted_, num_jobs_);
    SATORI_ASSERT(inner_ != nullptr);
}

std::string
RestrictedPolicy::name() const
{
    std::string suffix;
    for (std::size_t r = 0; r < restricted_.numResources(); ++r) {
        suffix += r ? "+" : "[";
        suffix += resourceKindName(restricted_.resource(r).kind);
    }
    return inner_->name() + suffix + "]";
}

Configuration
RestrictedPolicy::project(const Configuration& full) const
{
    std::vector<std::vector<int>> alloc;
    for (std::size_t idx : managed_indices_) {
        const auto row = full.resourceRow(idx);
        alloc.emplace_back(row.begin(), row.end());
    }
    return Configuration(std::move(alloc));
}

Configuration
RestrictedPolicy::embed(const Configuration& restricted) const
{
    Configuration out = Configuration::equalPartition(full_, num_jobs_);
    for (std::size_t r = 0; r < managed_indices_.size(); ++r)
        for (JobIndex j = 0; j < num_jobs_; ++j)
            out.units(managed_indices_[r], j) = restricted.units(r, j);
    SATORI_ASSERT(out.isValidFor(full_, num_jobs_));
    return out;
}

Configuration
RestrictedPolicy::decide(const sim::IntervalObservation& obs)
{
    sim::IntervalObservation restricted_obs = obs;
    restricted_obs.config = project(obs.config);
    return embed(inner_->decide(restricted_obs));
}

void
RestrictedPolicy::reset()
{
    inner_->reset();
}

} // namespace policies
} // namespace satori
