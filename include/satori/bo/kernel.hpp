/**
 * @file
 * The Matern 5/2 covariance kernel of the Gaussian-process proxy
 * model (Sec. III-A), plus the packed point layout its batched
 * cross-covariance streams.
 */

#ifndef SATORI_BO_KERNEL_HPP
#define SATORI_BO_KERNEL_HPP

#include <cstdint>
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

class Matern52Kernel;

/**
 * Fixed-size, direct-mapped memo of one Matern52Kernel's radial
 * function, keyed by the bit pattern of the squared distance d^2.
 * Candidates and training inputs are unit shares of integer
 * partitions, so a prediction sweep meets the same d^2 many times;
 * the memo computes each value once and hands back exactly what the
 * kernel computes from those bits, so every cached entry is
 * bit-identical to an uncached one.
 *
 * kSlots {key, value} slots, one probe per lookup: the slot is the top
 * bits of a Fibonacci hash of the key, and a miss computes the value
 * and overwrites the slot (no probe chains, no fill count, no "full"
 * state). Empty slots hold the bit pattern of -1.0, which no sum of
 * squares produces. The slots are allocated on the first lookup, not
 * at construction, and are refilled empty whenever the bits of the
 * kernel's (length scale, signal variance) differ from the ones the
 * memo last served. Holds no state worth persisting: a fresh memo
 * computes the same values.
 */
class RadialMemo
{
  public:
    /** log2 of the slot count. */
    static constexpr int kSlotBits = 13;

    /** Number of slots: 2^13 {key, value} pairs, 128 KB. */
    static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;

    /** The slot @p d2 maps to. */
    [[nodiscard]] static std::size_t slotOf(double d2);

  private:
    friend class Matern52Kernel;

    struct Slot
    {
        std::uint64_t key;
        double value;
    };

    /** The slots, emptied first if @p kernel's parameters changed. */
    [[nodiscard]] Slot* slotsFor(const Matern52Kernel& kernel);

    std::vector<Slot> slots_; ///< Empty until the first lookup.
    std::uint64_t length_bits_ = 0;
    std::uint64_t variance_bits_ = 0;
};

/**
 * Matern 5/2 kernel:
 * k(r) = s^2 (1 + sqrt(5) r / l + 5 r^2 / (3 l^2)) exp(-sqrt(5) r / l).
 *
 * Twice-differentiable sample paths: smooth enough for efficient
 * optimization yet not unrealistically smooth for systems data - the
 * standard practical-BO choice (Snoek et al.), and SATORI's.
 *
 * One private radial(d^2) evaluates the formula for every entry point;
 * covarianceCross() (the prediction sweep) goes through a RadialMemo,
 * covarianceRow() (fits and the per-point predict) does not.
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
     * out[c - begin] = k(q, pts[c]), each radial value looked up in
     * (or added to) @p memo. Every element is bit-identical to
     * covariance(q, pts[c]) - the SoA layout only changes which loop
     * is innermost (the distance accumulation still runs dimensions
     * in ascending order per point), and the memo returns what
     * radial() computes from the same d^2 bits. @pre out has room for
     * end - begin values; @p q has pts.dims() coordinates.
     */
    void covarianceCross(const SoaPoints& pts, std::size_t begin,
                         std::size_t end, const double* q,
                         RadialMemo& memo, double* out) const;

    /** k(x, x): the signal variance. */
    [[nodiscard]] double variance() const { return signal_variance_; }

    /** The current length scale. */
    [[nodiscard]] double lengthScale() const { return length_scale_; }

  private:
    /** k as a function of the squared distance @p d2. */
    [[nodiscard]] double radial(double d2) const;

    double length_scale_;
    double signal_variance_;
};

} // namespace bo
} // namespace satori

#endif // SATORI_BO_KERNEL_HPP
