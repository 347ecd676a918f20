/**
 * @file
 * Small numerical helpers: normal pdf/cdf, clamping, safe means.
 */

#ifndef SATORI_COMMON_MATH_HPP
#define SATORI_COMMON_MATH_HPP

#include <cstdint>
#include <vector>

namespace satori {

/** Standard normal probability density function. */
[[nodiscard]] double normalPdf(double z);

/** Standard normal cumulative distribution function. */
[[nodiscard]] double normalCdf(double z);

/** Clamp @p v to the closed interval [lo, hi]. */
[[nodiscard]] double clamp(double v, double lo, double hi);

/** Arithmetic mean; returns 0 for an empty vector. */
[[nodiscard]] double mean(const std::vector<double>& v);

/** Population standard deviation; returns 0 for size < 2. */
[[nodiscard]] double stddev(const std::vector<double>& v);

/** Geometric mean; @pre all elements > 0. Returns 0 for empty input. */
[[nodiscard]] double geomean(const std::vector<double>& v);

/** Harmonic mean; @pre all elements > 0. Returns 0 for empty input. */
[[nodiscard]] double harmonicMean(const std::vector<double>& v);

/** Coefficient of variation (stddev / mean); 0 if mean is 0. */
[[nodiscard]] double coefficientOfVariation(const std::vector<double>& v);

/** Binomial coefficient C(n, k) computed in unsigned 64-bit arithmetic. */
[[nodiscard]] std::uint64_t binomial(std::uint64_t n, std::uint64_t k);

} // namespace satori

#endif // SATORI_COMMON_MATH_HPP
