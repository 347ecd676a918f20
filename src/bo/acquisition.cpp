#include "satori/bo/acquisition.hpp"

#include <cmath>

#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"

namespace satori {
namespace bo {

double
expectedImprovement(const GpPrediction& pred, double best_observed,
                    double xi)
{
    const double sigma = pred.stddev();
    const double improvement = pred.mean - best_observed - xi;
    if (sigma < 1e-12)
        return std::max(improvement, 0.0);
    const double z = improvement / sigma;
    return improvement * normalCdf(z) + sigma * normalPdf(z);
}

double
upperConfidenceBound(const GpPrediction& pred, double beta)
{
    return pred.mean + beta * pred.stddev();
}

double
probabilityOfImprovement(const GpPrediction& pred, double best_observed,
                         double xi)
{
    const double sigma = pred.stddev();
    const double improvement = pred.mean - best_observed - xi;
    if (sigma < 1e-12)
        return improvement > 0.0 ? 1.0 : 0.0;
    return normalCdf(improvement / sigma);
}

double
acquisition(AcquisitionKind kind, const GpPrediction& pred,
            double best_observed, double xi, double beta)
{
    switch (kind) {
      case AcquisitionKind::ExpectedImprovement:
        return expectedImprovement(pred, best_observed, xi);
      case AcquisitionKind::Ucb:
        return upperConfidenceBound(pred, beta);
      case AcquisitionKind::ProbabilityOfImprovement:
        return probabilityOfImprovement(pred, best_observed, xi);
    }
    SATORI_PANIC("unknown AcquisitionKind");
}

} // namespace bo
} // namespace satori
