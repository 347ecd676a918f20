/**
 * @file
 * Gaussian-process regression: the stochastic proxy model at the
 * heart of SATORI's BO engine (Sec. III-A). Predicts a mean and an
 * uncertainty for unsampled configurations.
 */

#ifndef SATORI_BO_GP_HPP
#define SATORI_BO_GP_HPP

#include <memory>
#include <vector>

#include "satori/bo/kernel.hpp"
#include "satori/common/types.hpp"
#include "satori/linalg/cholesky.hpp"
#include "satori/linalg/matrix.hpp"

namespace satori {
namespace bo {

/** GP posterior at one query point. */
struct GpPrediction
{
    double mean = 0.0;
    double variance = 0.0;

    /** Standard deviation (sqrt of variance, floored at 0). */
    [[nodiscard]] double stddev() const;
};

/**
 * Gaussian-process regression with the Matern 5/2 kernel and Gaussian
 * observation noise. The training inputs are one row-major n x D
 * block, one row per sample; every fit takes the block by value and
 * keeps it, so a caller that moves its block in (the engine passes
 * the one GoalRecorder::inputs() packs) costs no copy. The caller's
 * records stay the source of truth. fit() is a full refit (O(n^3));
 * fitIncremental() recognizes a block that extends the fitted one by
 * a single appended row, reuses the cached kernel matrix and extends
 * the Cholesky factor in place, dropping that update to O(n^2) while
 * producing results bit-identical to the full refit (the appended
 * factor row is computed with exactly the refit's arithmetic).
 * Predictions are O(n) mean / O(n^2) variance.
 *
 * Targets are internally standardized (zero mean, unit variance) so
 * kernel signal variance ~1 remains well-matched as the objective
 * scale changes with the dynamic weights. Every update re-standardizes
 * exactly; the factor never depends on the targets.
 *
 * The batched prediction paths look every radial kernel value up in
 * a RadialMemo kept in the prediction scratch, so a sweep computes
 * each distinct candidate-to-training d^2 once; the fits and predict()
 * evaluate the kernel directly. Either way the values are
 * bit-identical. The sweep also computes a training row's
 * cross-covariance row once per run of bitwise-equal consecutive rows
 * (a settled configuration is recorded every interval) and copies it
 * down the run: the row is a pure function of the input bits, so the
 * copy is exact. The test is a memcmp of neighbouring rows on every
 * call; no index of duplicates is kept beside the block.
 *
 * Thread-safety: const prediction methods reuse internal scratch
 * buffers (the memo included) and are therefore NOT safe to call
 * concurrently on the same instance; distinct instances are fully
 * independent.
 */
class GaussianProcess
{
  public:
    /** @param noise_variance observation-noise variance (>= 0). */
    explicit GaussianProcess(Matern52Kernel kernel,
                             double noise_variance = 1e-4);

    /**
     * Fit to @p inputs (n rows of D) and @p targets (length n).
     * Replaces any previous fit. @pre n >= 1.
     */
    void fit(linalg::Matrix inputs, const std::vector<double>& targets);

    /**
     * Like fit(), but when @p inputs is the fitted block with one row
     * appended, only the new cross-covariance row is
     * computed and the Cholesky factor is extended in place (O(n^2)).
     * An SPD failure of that append (e.g. a duplicated input at zero
     * jitter) refactorizes the cached kernel matrix from scratch, so
     * the jitter ladder replays exactly as fit()'s would. Any other
     * training set (new targets on the same inputs, a shifted or
     * trimmed window) takes fit(). Equality is bitwise, so a false
     * negative merely costs a full refit; results are bit-identical
     * to fit() on every path.
     */
    void fitIncremental(linalg::Matrix inputs,
                        const std::vector<double>& targets);

    /** True once fit() succeeded with at least one sample. */
    [[nodiscard]] bool isFitted() const { return fitted_; }

    /**
     * Posterior mean/variance at @p x (in the original target scale):
     * the per-point reference the batched paths are pinned against.
     * @pre x has D coordinates.
     */
    [[nodiscard]] GpPrediction predict(const RealVec& x) const;

    /**
     * Posterior at every query point, batched: one cross-covariance
     * matrix K* for all points and one blocked triangular solve,
     * bit-identical to calling predict() per point but without the
     * per-point allocations. Scratch is reused across calls (see the
     * class comment on thread-safety).
     */
    void predictBatchInto(const SoaPoints& xs,
                          std::vector<GpPrediction>& out) const;

    /**
     * Posterior means only, for all of @p xs: the predictBatchInto
     * sweep without the per-point O(n^2) triangular solve. Means are
     * bit-identical to predictBatchInto's.
     */
    void predictMeansInto(const SoaPoints& xs,
                          std::vector<double>& out) const;

    /** Log marginal likelihood of the current fit (standardized y). */
    [[nodiscard]] double logMarginalLikelihood() const;

    /**
     * Refit trying each length scale in @p grid and keeping the one
     * with the highest log marginal likelihood. Cheap-and-cheerful
     * hyperparameter adaptation suitable for online use.
     */
    void fitWithLengthScaleGrid(linalg::Matrix inputs,
                                const std::vector<double>& targets,
                                const std::vector<double>& grid);

    /** Number of training samples in the current fit. */
    [[nodiscard]] std::size_t numSamples() const { return inputs_.rows(); }

    /** The fitted training targets (original scale), in fit order. */
    [[nodiscard]] const std::vector<double>& targets() const { return y_raw_; }

    /** The kernel in use. */
    [[nodiscard]] const Matern52Kernel& kernel() const { return kernel_; }

  private:
    /** Working storage for predictBlocked, reused (and grown) across
     * calls. The memo fills on the first prediction and starts over
     * whenever the kernel's parameters change; it is never persisted. */
    struct BatchScratch
    {
        RadialMemo memo;        ///< Radial values of the sweep's d^2.
        linalg::Matrix kstar_t; ///< n x B cross-covariance block.
        linalg::Matrix v;       ///< n x B triangular-solve solutions.
        std::vector<double> means;
        std::vector<double> vv;
    };

    /**
     * The blocked K* sweep behind both batch paths. Writes full
     * predictions for every point to @p preds or, when @p preds is
     * null, only the posterior means to @p means. A training row
     * bitwise equal to its predecessor copies the predecessor's K*
     * row. Every result is independent of the block boundaries.
     */
    void predictBlocked(const SoaPoints& xs, GpPrediction* preds,
                        double* means) const;

    /** Fill k_cache_ from kernel_/inputs_ (noise on the diagonal). */
    void buildKernelCache();

    /** Factorize k_cache_ from scratch and finish the fit. */
    void refitFromCache();

    /** Re-standardize y_raw_ and re-solve alpha with the current factor. */
    void standardizeAndSolve();

    /**
     * Grow k_cache_ by the last row of inputs_ (the cache covers the
     * rows before it) and try the O(n^2) factor append; false means
     * the factor needs a fresh jitter-escalated refactorization
     * (refitFromCache) - the cache is extended either way.
     */
    [[nodiscard]] bool tryExtendFactor();

    /** inputs_ bitwise-equal to the leading rows of @p other? */
    [[nodiscard]] bool samePrefix(const linalg::Matrix& other) const;

    Matern52Kernel kernel_;
    double noise_variance_;
    bool fitted_ = false;

    linalg::Matrix inputs_;       // n x D training block, one row per sample
    std::vector<double> y_raw_;
    std::vector<double> y_std_;   // standardized targets
    double y_mean_ = 0.0;
    double y_scale_ = 1.0;
    std::unique_ptr<linalg::Cholesky> chol_;
    std::vector<double> alpha_;   // K^-1 y_std
    double log_marginal_ = 0.0;

    /** Kernel matrix + noise diagonal (no jitter) for the current
     * inputs_: lets incremental updates and SPD-failure fallbacks
     * skip the O(n^2) kernel re-evaluation. */
    linalg::Matrix k_cache_;

    // Prediction scratch (see the thread-safety note above).
    mutable BatchScratch scratch_;
};

} // namespace bo
} // namespace satori

#endif // SATORI_BO_GP_HPP
