/**
 * @file
 * The BO engine: proxy model + acquisition maximization over a
 * candidate set. SATORI reconstructs the proxy model from its
 * goal-specific records every iteration (setSamples), which is what
 * makes dynamically re-weighted objectives tractable (Sec. III-B).
 */

#ifndef SATORI_BO_ENGINE_HPP
#define SATORI_BO_ENGINE_HPP

#include <vector>

#include "satori/bo/acquisition.hpp"
#include "satori/bo/gp.hpp"
#include "satori/common/types.hpp"

namespace satori {

namespace persist {
class StateWriter;
class StateReader;
} // namespace persist

namespace bo {

/**
 * Engine configuration knobs. The GP noise variance, the initial
 * length scale and the EI exploration bonus are fixed constants of
 * engine.cpp and acquisition.cpp.
 */
struct EngineOptions
{
    /**
     * Defined in engine.cpp: an inline default constructor lets GCC 12
     * flag the grid vector of every defaulted SatoriOptions temporary
     * as maybe-uninitialized (a false positive) at each call site.
     */
    EngineOptions();

    /**
     * Length scales to try during periodic marginal-likelihood grid
     * refits; empty disables adaptation.
     */
    std::vector<double> length_scale_grid = {0.2, 0.35, 0.5, 0.75, 1.0};

    /** Run the grid refit every this many fits (0 = never). */
    std::size_t grid_refit_period = 20;

    /**
     * Use the O(n^2) incremental GP path (a rank-1 factor append when
     * setSamples extends the fitted set by one sample). Results are
     * bit-identical to the full-refit path; false restores the
     * O(n^3)-per-update behavior and exists so tests can pin that
     * equivalence.
     */
    bool incremental = true;
};

/**
 * A Bayesian-optimization engine over real-vector inputs.
 *
 * Inputs are share-normalized configuration vectors; targets are the
 * (possibly re-weighted) objective values. The engine is agnostic to
 * how targets were constructed - SATORI rebuilds them every iteration
 * from its per-goal records.
 */
class BoEngine
{
  public:
    explicit BoEngine(EngineOptions options = {});

    /**
     * Replace the full training set and refit the proxy model
     * (SATORI's reconstruction path). Every grid_refit_period-th call
     * refits over the length-scale grid; otherwise the GP's
     * incremental fit takes the rank-1 append when the set grew by
     * one sample. @pre equal non-zero sizes.
     */
    void setSamples(const std::vector<RealVec>& inputs,
                    const std::vector<double>& targets);

    /** True once at least one sample is fitted. */
    [[nodiscard]] bool ready() const { return gp_.isFitted(); }

    /** Best (largest) target value in the fitted training set. */
    [[nodiscard]] double bestObserved() const;

    /**
     * Score all candidates with the acquisition function and return
     * the index of the best one. @pre ready() and non-empty.
     */
    [[nodiscard]] std::size_t suggestIndex(const std::vector<RealVec>& candidates) const;

    /** Posterior prediction at @p x (for diagnostics and figures). */
    [[nodiscard]] GpPrediction predict(const RealVec& x) const;

    /**
     * Posterior means at a fixed probe set; Fig. 17(b) tracks the mean
     * absolute change of these estimates between iterations.
     */
    [[nodiscard]] std::vector<double> probeMeans(
        const std::vector<RealVec>& probes) const;

    /** Number of training samples currently fitted. */
    [[nodiscard]] std::size_t numSamples() const { return gp_.numSamples(); }

    /** The options in force. */
    [[nodiscard]] const EngineOptions& options() const { return options_; }

    /**
     * Serialize a deterministic refit recipe: the training set, the
     * fitted kernel length scale, and the grid-refit phase. The GP
     * factorization itself is not saved - refitting from the training
     * set is pinned bit-identical to the incremental path.
     */
    void saveState(persist::StateWriter& w) const;

    /** Restore an engine saved by saveState (same options required). */
    void restoreState(persist::StateReader& r);

  private:
    EngineOptions options_;
    GaussianProcess gp_;
    std::size_t fits_since_grid_ = 0;

    /** Acquisition scratch, reused across suggest/probe calls. Makes
     * const scoring methods unsafe to call concurrently on the same
     * engine; distinct engines stay independent. */
    mutable std::vector<GpPrediction> preds_scratch_;
};

} // namespace bo
} // namespace satori

#endif // SATORI_BO_ENGINE_HPP
