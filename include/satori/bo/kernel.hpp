/**
 * @file
 * The Matern 5/2 covariance kernel of the Gaussian-process proxy
 * model (Sec. III-A), plus the packed point layout its batched
 * cross-covariance streams.
 */

#ifndef SATORI_BO_KERNEL_HPP
#define SATORI_BO_KERNEL_HPP

#include <vector>

#include "satori/common/types.hpp"
#include "satori/config/configuration.hpp"

namespace satori {
namespace bo {

/**
 * Structure-of-arrays point set: one contiguous array per coordinate,
 * so a kernel can stream a whole candidate block per dimension (the
 * cache-blocked layout the SIMD distance kernel wants) instead of
 * gathering scattered RealVecs point by point.
 */
class SoaPoints
{
  public:
    SoaPoints() = default;

    /** Pack equal-length vectors. */
    explicit SoaPoints(const std::vector<RealVec>& pts);

    /**
     * Pack the configurations' share-normalized vectors, written
     * straight into the block (Configuration::normalizedInto).
     * @pre equal shapes.
     */
    explicit SoaPoints(const std::vector<Configuration>& configs);

    /** Number of packed points. */
    [[nodiscard]] std::size_t count() const { return count_; }

    /** Dimensionality of each point (0 when empty). */
    [[nodiscard]] std::size_t dims() const { return dims_; }

    /** Coordinate @p d of every packed point, contiguously. */
    [[nodiscard]] const double* dim(std::size_t d) const
    {
        return data_.data() + d * count_;
    }

  private:
    std::vector<double> data_; ///< dims_ blocks of count_ doubles.
    std::size_t count_ = 0;
    std::size_t dims_ = 0;
};

/**
 * Matern 5/2 kernel:
 * k(r) = s^2 (1 + sqrt(5) r / l + 5 r^2 / (3 l^2)) exp(-sqrt(5) r / l).
 *
 * Twice-differentiable sample paths: smooth enough for efficient
 * optimization yet not unrealistically smooth for systems data - the
 * standard practical-BO choice (Snoek et al.), and SATORI's.
 */
class Matern52Kernel
{
  public:
    /** @pre length_scale > 0, signal_variance > 0. */
    explicit Matern52Kernel(double length_scale = 0.3,
                            double signal_variance = 1.0);

    /** Covariance between the @p dims-long points @p a and @p b. */
    [[nodiscard]] double covariance(const double* a, const double* b,
                                    std::size_t dims) const;

    /**
     * One covariance row against a row-major block: out[i] = k(x,
     * pts[i]) for the first @p count rows of @p pts, each @p dims
     * long (so @p x is too). The distance accumulation runs
     * dimensions in ascending order per point, so every element is
     * bit-identical to covariance() on that pair.
     * @pre out has room for @p count values.
     */
    void covarianceRow(const double* x, const double* pts,
                       std::size_t count, std::size_t dims,
                       double* out) const;

    /**
     * Cross-covariance against the packed points [begin, end):
     * out[c - begin] = k(q, pts[c]). Every element is bit-identical to
     * covariance(q, pts[c]) - the SoA layout only changes which loop
     * is innermost (the distance accumulation still runs dimensions
     * in ascending order per point). @pre out has room for
     * end - begin values; @p q has pts.dims() coordinates.
     */
    void covarianceCross(const SoaPoints& pts, std::size_t begin,
                         std::size_t end, const double* q,
                         double* out) const;

    /** k(x, x): the signal variance. */
    [[nodiscard]] double variance() const { return signal_variance_; }

    /** The current length scale. */
    [[nodiscard]] double lengthScale() const { return length_scale_; }

  private:
    double length_scale_;
    double signal_variance_;
};

} // namespace bo
} // namespace satori

#endif // SATORI_BO_KERNEL_HPP
