#include "satori/bo/kernel.hpp"

#include <bit>
#include <cmath>

#include "satori/common/logging.hpp"
#include "satori/linalg/simd.hpp"

namespace satori {
namespace bo {

namespace {

/**
 * Squared distances from @p q to the packed points [begin, begin +
 * count), through the fused simd::sqDistInto kernel. The
 * dimension-pointer table lives on the stack for any realistic
 * dimensionality; beyond it, fall back to the bit-identical
 * one-dimension-at-a-time accumulation.
 */
void
sqDistBlock(const SoaPoints& pts, std::size_t begin, std::size_t count,
            const double* q, double* out)
{
    const std::size_t dims = pts.dims();
    constexpr std::size_t kMaxStackDims = 64;
    if (dims <= kMaxStackDims) {
        const double* ptrs[kMaxStackDims];
        for (std::size_t d = 0; d < dims; ++d)
            ptrs[d] = pts.dim(d) + begin;
        linalg::simd::sqDistInto(out, ptrs, q, dims, count);
        return;
    }
    for (std::size_t c = 0; c < count; ++c)
        out[c] = 0.0;
    for (std::size_t d = 0; d < dims; ++d)
        linalg::simd::accumSqDiff(out, pts.dim(d) + begin, q[d], count);
}

/** The key of an empty slot: -1.0 is no sum of squares. */
constexpr std::uint64_t kEmptyKey = std::bit_cast<std::uint64_t>(-1.0);

} // namespace

std::size_t
RadialMemo::slotOf(double d2)
{
    return static_cast<std::size_t>(
        (std::bit_cast<std::uint64_t>(d2) * 0x9E3779B97F4A7C15ULL) >>
        (64 - kSlotBits));
}

RadialMemo::Slot*
RadialMemo::slotsFor(const Matern52Kernel& kernel)
{
    // Bits, not doubles: a memo serves exactly one parameter pair.
    const auto length_bits =
        std::bit_cast<std::uint64_t>(kernel.lengthScale());
    const auto variance_bits =
        std::bit_cast<std::uint64_t>(kernel.variance());
    if (slots_.empty() || length_bits != length_bits_ ||
        variance_bits != variance_bits_) {
        slots_.assign(kSlots, Slot{kEmptyKey, 0.0});
        length_bits_ = length_bits;
        variance_bits_ = variance_bits;
    }
    return slots_.data();
}

SoaPoints::SoaPoints(const std::vector<RealVec>& pts)
    : count_(pts.size()), dims_(pts.empty() ? 0 : pts.front().size())
{
    data_.resize(count_ * dims_);
    for (std::size_t c = 0; c < count_; ++c) {
        const RealVec& p = pts[c];
        SATORI_ASSERT(p.size() == dims_);
        for (std::size_t d = 0; d < dims_; ++d)
            data_[d * count_ + c] = p[d];
    }
}

SoaPoints::SoaPoints(const std::vector<Configuration>& configs)
    : count_(configs.size()),
      dims_(configs.empty() ? 0
                            : configs.front().numResources() *
                                  configs.front().numJobs())
{
    data_.resize(count_ * dims_);
    for (std::size_t c = 0; c < count_; ++c) {
        SATORI_ASSERT(configs[c].unitBuffer().size() == dims_);
        configs[c].normalizedInto(data_.data() + c, count_);
    }
}

Matern52Kernel::Matern52Kernel(double length_scale, double signal_variance)
    : length_scale_(length_scale), signal_variance_(signal_variance)
{
    SATORI_ASSERT(length_scale_ > 0.0 && signal_variance_ > 0.0);
}

double
Matern52Kernel::radial(double d2) const
{
    const double r = std::sqrt(d2);
    const double z = std::sqrt(5.0) * r / length_scale_;
    return signal_variance_ * (1.0 + z + z * z / 3.0) * std::exp(-z);
}

double
Matern52Kernel::covariance(const double* a, const double* b,
                           std::size_t dims) const
{
    double k = 0.0;
    covarianceRow(a, b, 1, dims, &k);
    return k;
}

void
Matern52Kernel::covarianceRow(const double* x, const double* pts,
                              std::size_t count, std::size_t dims,
                              double* out) const
{
    for (std::size_t p = 0; p < count; ++p) {
        const double* b = pts + p * dims;
        double d2 = 0.0;
        for (std::size_t i = 0; i < dims; ++i) {
            const double d = x[i] - b[i];
            d2 += d * d;
        }
        out[p] = radial(d2);
    }
}

void
Matern52Kernel::covarianceCross(const SoaPoints& pts, std::size_t begin,
                                std::size_t end, const double* q,
                                RadialMemo& memo, double* out) const
{
    // Squared distances accumulate per dimension in ascending order -
    // the same per-element operation sequence covariance() runs, just
    // streamed across the whole block, all coordinates fused in one
    // pass (out holds the d^2 block). Bit-identical by construction;
    // simd_test pins the lane/scalar equivalence of sqDistInto.
    SATORI_ASSERT(begin <= end && end <= pts.count());
    const std::size_t count = end - begin;
    sqDistBlock(pts, begin, count, q, out);
    // One probe per entry: a hit returns the value radial() computed
    // earlier from the same d^2 bits, a miss computes it and takes the
    // slot.
    RadialMemo::Slot* slots = memo.slotsFor(*this);
    for (std::size_t c = 0; c < count; ++c) {
        const double d2 = out[c];
        const auto key = std::bit_cast<std::uint64_t>(d2);
        RadialMemo::Slot& slot = slots[RadialMemo::slotOf(d2)];
        if (slot.key != key) {
            slot.key = key;
            slot.value = radial(d2);
        }
        out[c] = slot.value;
    }
}

} // namespace bo
} // namespace satori
