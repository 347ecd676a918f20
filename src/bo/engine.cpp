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

/** Length scales tried by the periodic marginal-likelihood refit. */
const std::vector<double> kLengthScaleGrid = {0.2, 0.35, 0.5, 0.75, 1.0};

/** Every this many fits is a grid refit. */
constexpr std::size_t kGridRefitPeriod = 20;

/** Samples needed before a grid refit is attempted. */
constexpr std::size_t kGridMinSamples = 8;

} // namespace

BoEngine::BoEngine() : gp_(Matern52Kernel(kLengthScale), kNoiseVariance)
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
    if (fits_since_grid_ >= kGridRefitPeriod &&
        inputs.size() >= kGridMinSamples) {
        SATORI_OBS_METRIC(bo_grid_refits.inc());
        gp_.fitWithLengthScaleGrid(inputs, targets, kLengthScaleGrid);
        fits_since_grid_ = 0;
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
BoEngine::suggestIndex(const SoaPoints& candidates) const
{
    SATORI_OBS_SPAN("bo.acquisition");
    SATORI_OBS_METRIC(bo_suggests.inc());
    SATORI_OBS_METRIC(bo_candidates.observe(
        static_cast<double>(candidates.count())));
    SATORI_ASSERT(ready());
    SATORI_ASSERT(candidates.count() > 0);
    const double best = bestObserved();
    gp_.predictBatchInto(candidates, preds_scratch_);
    std::size_t best_idx = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < candidates.count(); ++i) {
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
BoEngine::probeMeans(const SoaPoints& probes) const
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
    w.putSize(fits_since_grid_);
}

void
BoEngine::restoreState(persist::StateReader& r)
{
    // The caller's next setSamples refits the unfitted GP from its
    // own records; a full fit is bit-identical to the live engine's
    // incremental update (pinned by the GP tests).
    const double length_scale = r.getDouble();
    fits_since_grid_ = r.getSize();
    gp_ = GaussianProcess(Matern52Kernel(length_scale), kNoiseVariance);
}

} // namespace bo
} // namespace satori
