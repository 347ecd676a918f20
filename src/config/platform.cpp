#include "satori/config/platform.hpp"

#include "satori/common/logging.hpp"

namespace satori {

std::string
resourceKindName(ResourceKind kind)
{
    switch (kind) {
      case ResourceKind::Cores:
        return "cores";
      case ResourceKind::LlcWays:
        return "llc_ways";
      case ResourceKind::MemBandwidth:
        return "mem_bw";
      case ResourceKind::PowerCap:
        return "power_cap";
    }
    SATORI_PANIC("unknown ResourceKind");
}

PlatformSpec::PlatformSpec(std::vector<ResourceSpec> resources)
    : resources_(std::move(resources))
{
    for (const auto& r : resources_)
        SATORI_ASSERT(r.units >= 1);
}

void
PlatformSpec::addResource(ResourceKind kind, int units)
{
    if (units < 1)
        SATORI_FATAL("resource must have at least one unit");
    if (indexOf(kind) >= 0)
        SATORI_FATAL("duplicate resource kind in platform");
    resources_.push_back({kind, units});
}

const ResourceSpec&
PlatformSpec::resource(ResourceIndex r) const
{
    SATORI_ASSERT(r < resources_.size());
    return resources_[r];
}

int
PlatformSpec::indexOf(ResourceKind kind) const
{
    for (std::size_t i = 0; i < resources_.size(); ++i)
        if (resources_[i].kind == kind)
            return static_cast<int>(i);
    return -1;
}

PlatformSpec
PlatformSpec::restrictedTo(const std::vector<ResourceKind>& kinds) const
{
    PlatformSpec out;
    for (const auto& r : resources_) {
        for (ResourceKind k : kinds) {
            if (r.kind == k) {
                out.addResource(r.kind, r.units);
                break;
            }
        }
    }
    return out;
}

PlatformSpec
PlatformSpec::paperTestbed()
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 10);
    p.addResource(ResourceKind::LlcWays, 11);
    p.addResource(ResourceKind::MemBandwidth, 10);
    return p;
}

PlatformSpec
PlatformSpec::extendedTestbed()
{
    PlatformSpec p = paperTestbed();
    p.addResource(ResourceKind::PowerCap, 8);
    return p;
}

} // namespace satori
