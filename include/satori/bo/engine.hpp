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
    BoEngine();

    /**
     * Replace the full training set and refit the proxy model
     * (SATORI's reconstruction path). Every 20th call refits over a
     * fixed length-scale grid (once 8 samples exist); otherwise the
     * GP's incremental fit takes the rank-1 append when the set grew
     * by one sample. @pre equal non-zero sizes.
     */
    void setSamples(const std::vector<RealVec>& inputs,
                    const std::vector<double>& targets);

    /** True once at least one sample is fitted. */
    [[nodiscard]] bool ready() const { return gp_.isFitted(); }

    /** Best (largest) target value in the fitted training set. */
    [[nodiscard]] double bestObserved() const;

    /**
     * Score all candidates with the acquisition function and return
     * the index of the best one. Candidate configurations go in as
     * SoaPoints(candidates), packed straight from their units.
     * @pre ready() and non-empty.
     */
    [[nodiscard]] std::size_t suggestIndex(const SoaPoints& candidates) const;

    /** Posterior prediction at @p x (for diagnostics and figures). */
    [[nodiscard]] GpPrediction predict(const RealVec& x) const;

    /**
     * Posterior means at a fixed probe set; Fig. 17(b) tracks the mean
     * absolute change of these estimates between iterations.
     */
    [[nodiscard]] std::vector<double> probeMeans(
        const SoaPoints& probes) const;

    /** Number of training samples currently fitted. */
    [[nodiscard]] std::size_t numSamples() const { return gp_.numSamples(); }

    /**
     * Serialize the engine as its recipe: the fitted kernel length
     * scale and the grid-refit phase. The training set is the
     * caller's (its goal records) and is not saved.
     */
    void saveState(persist::StateWriter& w) const;

    /**
     * Restore an engine saved by saveState. The GP is left unfitted
     * (ready() is false) until the next setSamples, whose full fit
     * is bit-identical to the live engine's incremental update.
     */
    void restoreState(persist::StateReader& r);

  private:
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
