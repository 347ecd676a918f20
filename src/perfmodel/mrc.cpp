#include "satori/perfmodel/mrc.hpp"

#include <algorithm>
#include <cmath>

#include "satori/common/logging.hpp"

namespace satori {
namespace perfmodel {

MissRatioCurve
MissRatioCurve::exponential(double mpki_one, double mpki_floor,
                            double decay_ways)
{
    SATORI_ASSERT(mpki_one >= mpki_floor && mpki_floor >= 0.0);
    SATORI_ASSERT(decay_ways > 0.0);
    MissRatioCurve c;
    c.mpki_one_ = mpki_one;
    c.mpki_floor_ = mpki_floor;
    c.decay_ways_ = decay_ways;
    return c;
}

MissRatioCurve
MissRatioCurve::table(std::vector<double> mpki_by_way)
{
    SATORI_ASSERT(!mpki_by_way.empty());
    for (std::size_t i = 0; i < mpki_by_way.size(); ++i) {
        SATORI_ASSERT(mpki_by_way[i] >= 0.0);
        if (i > 0)
            SATORI_ASSERT(mpki_by_way[i] <= mpki_by_way[i - 1]);
    }
    MissRatioCurve c;
    c.table_ = std::move(mpki_by_way);
    c.mpki_floor_ = c.table_.back();
    return c;
}

MissRatioCurve
MissRatioCurve::sCurve(double mpki_one, double mpki_floor,
                       double knee_ways, double width)
{
    SATORI_ASSERT(mpki_one >= mpki_floor && mpki_floor >= 0.0);
    SATORI_ASSERT(knee_ways >= 1.0 && width > 0.0);
    // Build a table over a generous way range; normalize so one way
    // yields mpki_one exactly.
    const int max_ways = static_cast<int>(knee_ways + 6.0 * width) + 4;
    auto logistic = [&](double w) {
        return 1.0 / (1.0 + std::exp(-(knee_ways - w) / width));
    };
    const double at_one = logistic(1.0);
    SATORI_ASSERT(at_one > 0.0);
    std::vector<double> t(static_cast<std::size_t>(max_ways));
    for (int w = 1; w <= max_ways; ++w) {
        const double frac =
            std::min(logistic(static_cast<double>(w)) / at_one, 1.0);
        t[static_cast<std::size_t>(w - 1)] =
            mpki_floor + (mpki_one - mpki_floor) * frac;
    }
    for (std::size_t i = 1; i < t.size(); ++i)
        t[i] = std::min(t[i], t[i - 1]);
    return table(std::move(t));
}

double
MissRatioCurve::mpki(int ways) const
{
    return mpkiAt(static_cast<double>(ways));
}

double
MissRatioCurve::mpkiAt(double ways) const
{
    SATORI_ASSERT(ways >= 1.0);
    if (!table_.empty()) {
        const double pos =
            std::min(ways - 1.0,
                     static_cast<double>(table_.size()) - 1.0);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, table_.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return table_[lo] + frac * (table_[hi] - table_[lo]);
    }
    return mpki_floor_ +
           (mpki_one_ - mpki_floor_) *
               std::exp(-(ways - 1.0) / decay_ways_);
}

double
MissRatioCurve::floorMpki() const
{
    return mpki_floor_;
}

} // namespace perfmodel
} // namespace satori
