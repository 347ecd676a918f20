#include "satori/persist/state.hpp"

#include "satori/common/rng.hpp"
#include "satori/common/stats.hpp"
#include "satori/persist/codec.hpp"

namespace satori {
namespace persist {

void
putConfiguration(StateWriter& w, const Configuration& config)
{
    w.putU64(config.numResources());
    for (std::size_t r = 0; r < config.numResources(); ++r)
        w.putIntVec(config.resourceRow(r));
}

Configuration
getConfiguration(StateReader& r)
{
    const std::size_t num_resources = r.getSize();
    if (num_resources == 0)
        return Configuration{};
    std::vector<std::vector<int>> alloc;
    alloc.reserve(num_resources);
    for (std::size_t i = 0; i < num_resources; ++i)
        alloc.push_back(r.getIntVec());
    return Configuration(std::move(alloc));
}

} // namespace persist

// The common-layer value types (Rng, OnlineStats) declare
// saveState/restoreState against forward-declared codec types; the
// definitions live here so common never includes persist headers and
// the architecture DAG stays acyclic (persist -> common only).

void
Rng::saveState(persist::StateWriter& w) const
{
    for (const std::uint64_t word : state_)
        w.putU64(word);
    w.putBool(hasSpare_);
    w.putDouble(spare_);
}

void
Rng::restoreState(persist::StateReader& r)
{
    for (auto& word : state_)
        word = r.getU64();
    hasSpare_ = r.getBool();
    spare_ = r.getDouble();
}

void
OnlineStats::saveState(persist::StateWriter& w) const
{
    w.putSize(n_);
    w.putDouble(mean_);
    w.putDouble(m2_);
    // min_/max_ are uninitialized until the first add(); write zeros
    // so an empty accumulator still has a fixed encoding.
    w.putDouble(n_ > 0 ? min_ : 0.0);
    w.putDouble(n_ > 0 ? max_ : 0.0);
}

void
OnlineStats::restoreState(persist::StateReader& r)
{
    n_ = r.getSize();
    mean_ = r.getDouble();
    m2_ = r.getDouble();
    const double mn = r.getDouble();
    const double mx = r.getDouble();
    if (n_ > 0) {
        min_ = mn;
        max_ = mx;
    }
}

} // namespace satori
