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
 * observation noise. The GP owns its training set. fit() is a full
 * refit (O(n^3)); fitIncremental() recognizes a training set that
 * extends the fitted one by a single appended sample, reuses the
 * cached kernel matrix and extends the Cholesky factor in place,
 * dropping that update to O(n^2) while producing results
 * bit-identical to the full refit (the appended factor row is
 * computed with exactly the refit's arithmetic). Predictions are
 * O(n) mean / O(n^2) variance.
 *
 * Targets are internally standardized (zero mean, unit variance) so
 * kernel signal variance ~1 remains well-matched as the objective
 * scale changes with the dynamic weights. Every update re-standardizes
 * exactly; the factor never depends on the targets.
 *
 * Thread-safety: const prediction methods reuse internal scratch
 * buffers and are therefore NOT safe to call concurrently on the
 * same instance; distinct instances are fully independent.
 */
class GaussianProcess
{
  public:
    /** @param noise_variance observation-noise variance (>= 0). */
    explicit GaussianProcess(Matern52Kernel kernel,
                             double noise_variance = 1e-4);

    /**
     * Fit to @p inputs (n vectors, equal length) and @p targets
     * (length n). Replaces any previous fit. @pre n >= 1.
     */
    void fit(const std::vector<RealVec>& inputs,
             const std::vector<double>& targets);

    /**
     * Like fit(), but when @p inputs is the fitted training set with
     * one input appended, only the new cross-covariance row is
     * computed and the Cholesky factor is extended in place (O(n^2)).
     * An SPD failure of that append (e.g. a duplicated input at zero
     * jitter) refactorizes the cached kernel matrix from scratch, so
     * the jitter ladder replays exactly as fit()'s would. Any other
     * training set (new targets on the same inputs, a shifted or
     * trimmed window) takes fit(). Equality is bitwise, so a false
     * negative merely costs a full refit; results are bit-identical
     * to fit() on every path.
     */
    void fitIncremental(const std::vector<RealVec>& inputs,
                        const std::vector<double>& targets);

    /** True once fit() succeeded with at least one sample. */
    [[nodiscard]] bool isFitted() const { return fitted_; }

    /** Posterior mean/variance at @p x (in the original target scale). */
    [[nodiscard]] GpPrediction predict(const RealVec& x) const;

    /**
     * Posterior at every query point, batched: one cross-covariance
     * matrix K* for all points and one blocked triangular solve,
     * bit-identical to calling predict() per point but without the
     * per-point allocations. Scratch is reused across calls (see the
     * class comment on thread-safety).
     */
    void predictBatchInto(const std::vector<RealVec>& xs,
                          std::vector<GpPrediction>& out) const;

    /**
     * Posterior means only, for all of @p xs: the predictBatchInto
     * sweep without the per-point O(n^2) triangular solve. Means are
     * bit-identical to predictBatchInto's.
     */
    void predictMeansInto(const std::vector<RealVec>& xs,
                          std::vector<double>& out) const;

    /** Log marginal likelihood of the current fit (standardized y). */
    [[nodiscard]] double logMarginalLikelihood() const;

    /**
     * Refit trying each length scale in @p grid and keeping the one
     * with the highest log marginal likelihood. Cheap-and-cheerful
     * hyperparameter adaptation suitable for online use.
     */
    void fitWithLengthScaleGrid(const std::vector<RealVec>& inputs,
                                const std::vector<double>& targets,
                                const std::vector<double>& grid);

    /** Number of training samples in the current fit. */
    [[nodiscard]] std::size_t numSamples() const { return inputs_.size(); }

    /** The fitted training inputs, in fit order. */
    [[nodiscard]] const std::vector<RealVec>& inputs() const { return inputs_; }

    /** The fitted training targets (original scale), in fit order. */
    [[nodiscard]] const std::vector<double>& targets() const { return y_raw_; }

    /** The kernel in use. */
    [[nodiscard]] const Matern52Kernel& kernel() const { return kernel_; }

  private:
    /** Working storage for predictBlocked, reused (and grown) across
     * calls. */
    struct BatchScratch
    {
        SoaPoints pts;
        linalg::Matrix kstar_t; ///< n x B cross-covariance block.
        linalg::Matrix v;       ///< n x B triangular-solve solutions.
        std::vector<double> means;
        std::vector<double> vv;
    };

    /**
     * The blocked K* sweep behind both batch paths. Writes full
     * predictions for every point to @p preds or, when @p preds is
     * null, only the posterior means to @p means. Every result is
     * independent of the block boundaries.
     */
    void predictBlocked(const std::vector<RealVec>& xs,
                        GpPrediction* preds, double* means) const;

    /** Fill k_cache_ from kernel_/inputs_ (noise on the diagonal). */
    void buildKernelCache();

    /** Factorize k_cache_ from scratch and finish the fit. */
    void refitFromCache();

    /** Re-standardize y_raw_ and re-solve alpha with the current factor. */
    void standardizeAndSolve();

    /**
     * Grow k_cache_/inputs_ by @p x and try the O(n^2) factor append;
     * false means the factor needs a fresh jitter-escalated
     * refactorization (refitFromCache) - the cache and inputs are
     * extended either way.
     */
    [[nodiscard]] bool tryExtendFactor(const RealVec& x);

    /** inputs_ bitwise-equal to the first inputs_.size() of @p other? */
    [[nodiscard]] bool samePrefix(const std::vector<RealVec>& other) const;

    Matern52Kernel kernel_;
    double noise_variance_;
    bool fitted_ = false;

    std::vector<RealVec> inputs_;
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
