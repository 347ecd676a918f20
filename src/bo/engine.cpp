#include "satori/bo/engine.hpp"

#include <algorithm>
#include <limits>

#include "satori/analysis/invariants.hpp"
#include "satori/common/logging.hpp"
#include "satori/obs/obs.hpp"
#include "satori/persist/codec.hpp"

namespace satori {
namespace bo {

namespace {

/** GP observation-noise variance on the normalized objective. */
constexpr double kNoiseVariance = 0.05;

/** Initial Matern 5/2 length scale on share-normalized inputs. */
constexpr double kLengthScale = 0.5;

} // namespace

EngineOptions::EngineOptions() = default;

BoEngine::BoEngine(EngineOptions options)
    : options_(std::move(options)),
      gp_(Matern52Kernel(kLengthScale), kNoiseVariance)
{
}

void
BoEngine::setSamples(const std::vector<RealVec>& inputs,
                     const std::vector<double>& targets)
{
    SATORI_ASSERT(inputs.size() == targets.size());
    SATORI_ASSERT(!inputs.empty());
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkTrainingSet(
        inputs, targets, __FILE__, __LINE__));
    SATORI_OBS_SPAN("bo.fit");
    SATORI_OBS_METRIC(bo_fits.inc());
    ++fits_since_grid_;
    const bool use_grid = !options_.length_scale_grid.empty() &&
                          options_.grid_refit_period > 0 &&
                          fits_since_grid_ >= options_.grid_refit_period &&
                          inputs.size() >= 8;
    if (use_grid) {
        SATORI_OBS_METRIC(bo_grid_refits.inc());
        gp_.fitWithLengthScaleGrid(inputs, targets,
                                   options_.length_scale_grid);
        fits_since_grid_ = 0;
    } else if (!options_.incremental) {
        gp_.fit(inputs, targets);
    } else {
        gp_.fitIncremental(inputs, targets);
    }
}

double
BoEngine::bestObserved() const
{
    const std::vector<double>& targets = gp_.targets();
    SATORI_ASSERT(!targets.empty());
    return *std::max_element(targets.begin(), targets.end());
}

std::size_t
BoEngine::suggestIndex(const std::vector<RealVec>& candidates) const
{
    SATORI_OBS_SPAN("bo.acquisition");
    SATORI_OBS_METRIC(bo_suggests.inc());
    SATORI_OBS_METRIC(bo_candidates.observe(
        static_cast<double>(candidates.size())));
    SATORI_ASSERT(ready());
    SATORI_ASSERT(!candidates.empty());
    const double best = bestObserved();
    gp_.predictBatchInto(candidates, preds_scratch_);
    std::size_t best_idx = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double score = expectedImprovement(preds_scratch_[i], best);
        if (score > best_score) {
            best_score = score;
            best_idx = i;
        }
    }
    return best_idx;
}

GpPrediction
BoEngine::predict(const RealVec& x) const
{
    SATORI_ASSERT(ready());
    return gp_.predict(x);
}

std::vector<double>
BoEngine::probeMeans(const std::vector<RealVec>& probes) const
{
    SATORI_OBS_SPAN("bo.probe");
    SATORI_ASSERT(ready());
    std::vector<double> means;
    // Means-only pass: bit-identical means, no per-probe O(n^2)
    // variance solve.
    gp_.predictMeansInto(probes, means);
    return means;
}

void
BoEngine::saveState(persist::StateWriter& w) const
{
    w.putDouble(gp_.kernel().lengthScale());
    w.putBool(ready());
    w.putSize(fits_since_grid_);
    w.putSize(gp_.inputs().size());
    for (const RealVec& x : gp_.inputs())
        w.putDoubleVec(x);
    w.putDoubleVec(gp_.targets());
}

void
BoEngine::restoreState(persist::StateReader& r)
{
    const double length_scale = r.getDouble();
    const bool fitted = r.getBool();
    fits_since_grid_ = r.getSize();
    const std::size_t n = r.getSize();
    std::vector<RealVec> inputs;
    inputs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        inputs.push_back(r.getDoubleVec());
    const std::vector<double> targets = r.getDoubleVec();
    if (targets.size() != inputs.size())
        SATORI_FATAL("BO engine state has " +
                     std::to_string(inputs.size()) + " inputs but " +
                     std::to_string(targets.size()) + " targets");
    // Rebuild the GP at the saved length scale and refit the full
    // training set. A full fit is bit-identical to the incremental
    // update path (pinned by the GP tests), so the resumed posterior
    // matches the uninterrupted run exactly. A plain refit does not
    // advance fits_since_grid_, preserving the grid-refit timing.
    gp_ = GaussianProcess(Matern52Kernel(length_scale), kNoiseVariance);
    if (fitted && !inputs.empty())
        gp_.fit(inputs, targets);
}

} // namespace bo
} // namespace satori
