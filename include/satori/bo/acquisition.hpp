/**
 * @file
 * The acquisition function that steers Bayesian optimization toward
 * the most promising configurations (Sec. III-A): Expected
 * Improvement, SATORI's only acquisition function.
 */

#ifndef SATORI_BO_ACQUISITION_HPP
#define SATORI_BO_ACQUISITION_HPP

#include "satori/bo/gp.hpp"

namespace satori {
namespace bo {

/**
 * Expected Improvement for maximization:
 * EI(x) = (mu - best - xi) Phi(z) + sigma phi(z),
 * z = (mu - best - xi) / sigma; 0 when sigma is ~0. The exploration
 * bonus xi is fixed at 0.01 in acquisition.cpp.
 *
 * @param pred GP posterior at the candidate.
 * @param best_observed Best objective value evaluated so far.
 */
[[nodiscard]] double expectedImprovement(const GpPrediction& pred,
                                         double best_observed);

} // namespace bo
} // namespace satori

#endif // SATORI_BO_ACQUISITION_HPP
