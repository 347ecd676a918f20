/**
 * @file
 * Miss-ratio curves: LLC misses-per-kilo-instruction as a function of
 * allocated cache ways.
 *
 * Real workloads' MRCs are convex and monotonically non-increasing in
 * allocated ways; we support a parametric exponential form (fit to
 * published PARSEC/CloudSuite characterizations) and an arbitrary
 * tabulated form (e.g. a Mattson stack-distance histogram reduced to
 * way counts).
 */

#ifndef SATORI_PERFMODEL_MRC_HPP
#define SATORI_PERFMODEL_MRC_HPP

#include <vector>

namespace satori {
namespace perfmodel {

/**
 * A miss-ratio curve, queried by integer way count (>= 1).
 *
 * Value semantics; cheap to copy (a handful of doubles or a short
 * table).
 */
class MissRatioCurve
{
  public:
    /** A flat curve (cache-insensitive workload). */
    MissRatioCurve() = default;

    /**
     * Exponential-decay curve:
     * mpki(w) = mpki_floor + (mpki_one - mpki_floor) * exp(-(w-1)/decay).
     *
     * @param mpki_one  MPKI with a single way.
     * @param mpki_floor MPKI with unbounded cache (compulsory misses).
     * @param decay_ways Decay constant in ways; small = cache-friendly,
     *        large = needs many ways before misses drop.
     */
    [[nodiscard]] static MissRatioCurve exponential(double mpki_one, double mpki_floor,
                                      double decay_ways);

    /**
     * Tabulated curve: @p mpki_by_way[i] is the MPKI with (i+1) ways.
     * Queries beyond the table clamp to the last entry.
     * @pre non-empty, non-negative, non-increasing.
     */
    [[nodiscard]] static MissRatioCurve table(std::vector<double> mpki_by_way);

    /**
     * Working-set-cliff curve: MPKI stays near mpki_one until the
     * allocation approaches the working set (@p knee_ways), then
     * falls steeply to mpki_floor over ~@p width ways (a logistic in
     * the way count). Real MRCs commonly show such knees; they are
     * what makes one-way-at-a-time reallocation blind to the benefit
     * of crossing the cliff.
     */
    [[nodiscard]] static MissRatioCurve sCurve(double mpki_one, double mpki_floor,
                                 double knee_ways, double width);

    /** MPKI with @p ways allocated ways. @pre ways >= 1. */
    [[nodiscard]] double mpki(int ways) const;

    /**
     * MPKI at a continuous effective way count (>= 1), used for the
     * core-count/cache-pressure coupling; tables are linearly
     * interpolated, the exponential form is evaluated directly.
     */
    [[nodiscard]] double mpkiAt(double ways) const;

    /** MPKI floor (compulsory misses) of this curve. */
    [[nodiscard]] double floorMpki() const;

  private:
    // Exponential parameters (used when table_ is empty).
    double mpki_one_ = 0.0;
    double mpki_floor_ = 0.0;
    double decay_ways_ = 1.0;
    std::vector<double> table_;
};

} // namespace perfmodel
} // namespace satori

#endif // SATORI_PERFMODEL_MRC_HPP
