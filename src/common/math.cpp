#include "satori/common/math.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "satori/common/logging.hpp"

namespace satori {

double
normalPdf(double z)
{
    static const double inv_sqrt_2pi = 0.3989422804014327;
    return inv_sqrt_2pi * std::exp(-0.5 * z * z);
}

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z * M_SQRT1_2);
}

double
clamp(double v, double lo, double hi)
{
    return std::min(std::max(v, lo), hi);
}

double
mean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

double
stddev(const std::vector<double>& v)
{
    if (v.size() < 2)
        return 0.0;
    const double m = mean(v);
    double ss = 0.0;
    for (double x : v)
        ss += (x - m) * (x - m);
    return std::sqrt(ss / static_cast<double>(v.size()));
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v) {
        SATORI_ASSERT(x > 0.0);
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
harmonicMean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double inv_sum = 0.0;
    for (double x : v) {
        SATORI_ASSERT(x > 0.0);
        inv_sum += 1.0 / x;
    }
    return static_cast<double>(v.size()) / inv_sum;
}

double
coefficientOfVariation(const std::vector<double>& v)
{
    const double m = mean(v);
    if (std::abs(m) == 0.0)
        return 0.0;
    return stddev(v) / m;
}

std::uint64_t
binomial(std::uint64_t n, std::uint64_t k)
{
    if (k > n)
        return 0;
    k = std::min(k, n - k);
    std::uint64_t result = 1;
    for (std::uint64_t i = 1; i <= k; ++i) {
        // Multiply before dividing; (result * (n - k + i)) is divisible
        // by i because result holds C(n-k+i-1, i-1).
        result = result * (n - k + i) / i;
    }
    return result;
}

} // namespace satori
