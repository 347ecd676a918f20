#include "satori/bo/gp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "satori/analysis/invariants.hpp"
#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"
#include "satori/linalg/matrix.hpp"
#include "satori/linalg/simd.hpp"
#include "satori/obs/obs.hpp"

namespace satori {
namespace bo {

namespace {

/** Candidate block size for the batched prediction paths: bounds the
 * kstar/v scratch at n x 256 doubles so a 10k-candidate sweep stays
 * cache-resident instead of materializing a 10k-row matrix. */
constexpr std::size_t kPredictBlock = 256;

} // namespace

double
GpPrediction::stddev() const
{
    return std::sqrt(std::max(variance, 0.0));
}

GaussianProcess::GaussianProcess(Matern52Kernel kernel,
                                 double noise_variance)
    : kernel_(kernel), noise_variance_(noise_variance)
{
    SATORI_ASSERT(noise_variance_ >= 0.0);
}

void
GaussianProcess::fit(linalg::Matrix inputs,
                     const std::vector<double>& targets)
{
    SATORI_ASSERT(inputs.rows() == targets.size());
    SATORI_ASSERT(inputs.rows() > 0);
    inputs_ = std::move(inputs);
    y_raw_ = targets;
    buildKernelCache();
    refitFromCache();
}

void
GaussianProcess::buildKernelCache()
{
    const std::size_t n = inputs_.rows();
    k_cache_.reshape(n, n);
    // Row i computes its upper part j >= i through the batched kernel
    // and copies j < i from the rows above: a - b == -(b - a) exactly
    // in IEEE arithmetic, so k(x_j, x_i) is bitwise k(x_i, x_j) and
    // the mirror is what recomputing would give, at half the work.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j)
            k_cache_(i, j) = k_cache_(j, i);
        kernel_.covarianceRow(inputs_.rowPtr(i), inputs_.rowPtr(i), n - i,
                              inputs_.cols(), &k_cache_(i, i));
        k_cache_(i, i) += noise_variance_;
    }
}

void
GaussianProcess::refitFromCache()
{
    SATORI_OBS_SPAN("gp.fit");
    // Only the obs/audit hooks consume n; OBS=OFF + AUDIT=OFF builds
    // compile both away.
    [[maybe_unused]] const std::size_t n = inputs_.rows();
    SATORI_OBS_METRIC(gp_fits.inc());
    SATORI_OBS_METRIC(
        gp_training_size.observe(static_cast<double>(n)));
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkKernelMatrix(
        k_cache_, __FILE__, __LINE__));
    chol_ = std::make_unique<linalg::Cholesky>(k_cache_);
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkCholesky(
        chol_->jitter(), chol_->conditionEstimate(), n, __FILE__,
        __LINE__));
    standardizeAndSolve();
}

void
GaussianProcess::standardizeAndSolve()
{
    const std::size_t n = inputs_.rows();
    y_mean_ = mean(y_raw_);
    y_scale_ = stddev(y_raw_);
    if (y_scale_ < 1e-12)
        y_scale_ = 1.0; // constant targets: keep scale neutral
    y_std_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        y_std_[i] = (y_raw_[i] - y_mean_) / y_scale_;
    alpha_ = chol_->solve(y_std_);

    // log p(y|X) = -0.5 y^T alpha - 0.5 log|K| - n/2 log(2 pi)
    log_marginal_ = -0.5 * linalg::dot(y_std_, alpha_) -
                    0.5 * chol_->logDet() -
                    0.5 * static_cast<double>(n) * std::log(2.0 * M_PI);
    fitted_ = true;
}

bool
GaussianProcess::tryExtendFactor()
{
    const std::size_t n = inputs_.rows() - 1;
    const std::size_t dims = inputs_.cols();
    const double* x = inputs_.rowPtr(n);
    // The new row, computed exactly as a fresh kernel build would:
    // upper-triangle order is k(existing_i, new), diagonal gets the
    // kernel self-covariance first, then the noise added on top.
    std::vector<double> cross(n);
    kernel_.covarianceRow(x, inputs_.rowPtr(0), n, dims, cross.data());
    double diag = kernel_.covariance(x, x, dims);
    diag += noise_variance_;

    k_cache_.growSquare();
    for (std::size_t i = 0; i < n; ++i) {
        k_cache_(i, n) = cross[i];
        k_cache_(n, i) = cross[i];
    }
    k_cache_(n, n) = diag;
    return chol_->update(cross, diag);
}

bool
GaussianProcess::samePrefix(const linalg::Matrix& other) const
{
    // Bitwise comparison on purpose: equality must mean "the cached
    // factorization is exactly the one a refit would build"; a
    // spurious mismatch only costs a full refit. Row-major blocks of
    // equal width share their leading rows' layout, so the prefix is
    // one contiguous run.
    return other.cols() == inputs_.cols() &&
           other.rows() >= inputs_.rows() &&
           std::memcmp(other.rowPtr(0), inputs_.rowPtr(0),
                       inputs_.rows() * inputs_.cols() *
                           sizeof(double)) == 0;
}

void
GaussianProcess::fitIncremental(linalg::Matrix inputs,
                                const std::vector<double>& targets)
{
    SATORI_ASSERT(inputs.rows() == targets.size());
    SATORI_ASSERT(inputs.rows() > 0);
    if (!fitted_ || inputs.rows() != inputs_.rows() + 1 ||
        !samePrefix(inputs)) {
        fit(std::move(inputs), targets);
        return;
    }
    inputs_ = std::move(inputs);
    const bool extended = tryExtendFactor();
    y_raw_ = targets;
    if (!extended) {
        // SPD failure at the current jitter (e.g. a duplicated input
        // at jitter 0): refactorize the cached matrix from scratch so
        // the jitter-escalation ladder replays exactly as a fresh
        // fit's would.
        refitFromCache();
        return;
    }
    SATORI_OBS_SPAN("gp.fit.incremental");
    SATORI_OBS_METRIC(gp_incremental_updates.inc());
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkCholesky(
        chol_->jitter(), chol_->conditionEstimate(), inputs_.rows(),
        __FILE__, __LINE__));
    standardizeAndSolve();
}

GpPrediction
GaussianProcess::predict(const RealVec& x) const
{
    SATORI_ASSERT(fitted_);
    SATORI_ASSERT(x.size() == inputs_.cols());
    const std::size_t n = inputs_.rows();
    std::vector<double> kstar(n);
    kernel_.covarianceRow(x.data(), inputs_.rowPtr(0), n, inputs_.cols(),
                          kstar.data());

    GpPrediction pred;
    pred.mean = y_mean_ + y_scale_ * linalg::dot(kstar, alpha_);

    const std::vector<double> v = chol_->solveLower(kstar);
    const double var_std =
        kernel_.variance() - linalg::dot(v, v);
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkPosteriorVariance(
        var_std, kernel_.variance(), __FILE__, __LINE__));
    pred.variance = std::max(var_std, 0.0) * y_scale_ * y_scale_;
    return pred;
}

void
GaussianProcess::predictBlocked(const SoaPoints& xs, GpPrediction* preds,
                                double* means) const
{
    SATORI_ASSERT(fitted_);
    SATORI_ASSERT(xs.count() == 0 || xs.dims() == inputs_.cols());
    const std::size_t n = inputs_.rows();
    const std::size_t row_bytes = inputs_.cols() * sizeof(double);
    for (std::size_t b0 = 0; b0 < xs.count(); b0 += kPredictBlock) {
        const std::size_t b1 = std::min(xs.count(), b0 + kPredictBlock);
        const std::size_t bsz = b1 - b0;
        scratch_.kstar_t.reshape(n, bsz);
        // Cross-covariance block, training-sample-major: row i holds
        // k(training row i, candidate c) for the whole block. Every
        // element is bit-identical to the candidate-major row the
        // per-point path computes (see Matern52Kernel::covarianceCross),
        // the layout just turns the downstream GEMV and multi-solve
        // into contiguous lane-parallel row sweeps. A training row
        // bitwise equal to the one before it (a settled configuration
        // recorded again) copies that row's result: covarianceCross
        // reads nothing but the row's bits, the block and the kernel,
        // so the copy is exactly what the call would write.
        for (std::size_t i = 0; i < n; ++i) {
            double* row = scratch_.kstar_t.rowPtr(i);
            if (i > 0 && std::memcmp(inputs_.rowPtr(i),
                                     inputs_.rowPtr(i - 1),
                                     row_bytes) == 0)
                std::memcpy(row, scratch_.kstar_t.rowPtr(i - 1),
                            bsz * sizeof(double));
            else
                kernel_.covarianceCross(xs, b0, b1, inputs_.rowPtr(i),
                                        scratch_.memo, row);
        }
        // mean_std[c] accumulates alpha_[i] * k* in ascending i - the
        // exact linalg::dot order predict() uses, one lane per
        // candidate.
        scratch_.means.assign(bsz, 0.0);
        for (std::size_t i = 0; i < n; ++i)
            linalg::simd::fmaAccum(scratch_.means.data(),
                                   scratch_.kstar_t.rowPtr(i), alpha_[i],
                                   bsz);
        if (preds == nullptr) {
            for (std::size_t c = 0; c < bsz; ++c)
                means[b0 + c] = y_mean_ + y_scale_ * scratch_.means[c];
            continue;
        }
        chol_->solveLowerMultiTransposedInto(scratch_.kstar_t,
                                             scratch_.v);
        // ||v||^2 row by row: contiguous inner loop, each candidate
        // still sums in ascending i.
        scratch_.vv.assign(bsz, 0.0);
        for (std::size_t i = 0; i < n; ++i)
            linalg::simd::accumSquare(scratch_.vv.data(),
                                      scratch_.v.rowPtr(i), bsz);
        GpPrediction* o = preds + b0;
        for (std::size_t c = 0; c < bsz; ++c) {
            o[c].mean = y_mean_ + y_scale_ * scratch_.means[c];
            const double var_std = kernel_.variance() - scratch_.vv[c];
            SATORI_AUDIT_HOOK(
                analysis::globalAuditor().checkPosteriorVariance(
                    var_std, kernel_.variance(), __FILE__, __LINE__));
            o[c].variance =
                std::max(var_std, 0.0) * y_scale_ * y_scale_;
        }
    }
}

void
GaussianProcess::predictBatchInto(const SoaPoints& xs,
                                  std::vector<GpPrediction>& out) const
{
    out.resize(xs.count());
    predictBlocked(xs, out.data(), nullptr);
}

void
GaussianProcess::predictMeansInto(const SoaPoints& xs,
                                  std::vector<double>& out) const
{
    out.resize(xs.count());
    predictBlocked(xs, nullptr, out.data());
}

double
GaussianProcess::logMarginalLikelihood() const
{
    SATORI_ASSERT(fitted_);
    return log_marginal_;
}

void
GaussianProcess::fitWithLengthScaleGrid(linalg::Matrix inputs,
                                        const std::vector<double>& targets,
                                        const std::vector<double>& grid)
{
    SATORI_ASSERT(!grid.empty());
    SATORI_ASSERT(inputs.rows() == targets.size());
    SATORI_ASSERT(inputs.rows() > 0);
    // The block is kept once; each length scale rebuilds the kernel
    // cache and factor from it. The standardized targets do not
    // depend on the length scale, so only the kernel, factor, alpha,
    // cache and LML of the best candidate so far are kept aside, and
    // the winner is restored without an extra O(n^3) refit.
    inputs_ = std::move(inputs);
    y_raw_ = targets;
    double best_lml = -std::numeric_limits<double>::infinity();
    Matern52Kernel best_kernel = kernel_;
    std::unique_ptr<linalg::Cholesky> best_chol;
    std::vector<double> best_alpha;
    linalg::Matrix best_cache;
    for (double ls : grid) {
        kernel_ = Matern52Kernel(ls, kernel_.variance());
        buildKernelCache();
        refitFromCache();
        if (log_marginal_ > best_lml) {
            best_lml = log_marginal_;
            best_kernel = kernel_;
            // Each refit builds a fresh factor and alpha and rewrites
            // every cache entry, so the best's storage can be taken.
            best_chol = std::move(chol_);
            std::swap(best_alpha, alpha_);
            std::swap(best_cache, k_cache_);
        }
    }
    kernel_ = best_kernel;
    chol_ = std::move(best_chol);
    alpha_ = std::move(best_alpha);
    k_cache_ = std::move(best_cache);
    log_marginal_ = best_lml;
}

} // namespace bo
} // namespace satori
