/**
 * @file
 * Runtime invariant auditing: mechanical checks of the numerical and
 * structural invariants the paper's machinery silently assumes —
 * feasible integer allocations, normalized objectives, SPD kernel
 * matrices, consistent monitor observations.
 *
 * Checks are grouped into per-layer packs (allocation, objective, BO
 * numerical health, monitor) and accumulate violations into a
 * structured report instead of panicking on first hit, so one audit
 * run over a whole scenario yields a complete picture. Hot-path hooks
 * compile to nothing unless the library is built with the
 * SATORI_AUDIT CMake option (see SATORI_AUDIT_HOOK in
 * common/logging.hpp).
 */

#ifndef SATORI_ANALYSIS_INVARIANTS_HPP
#define SATORI_ANALYSIS_INVARIANTS_HPP

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "satori/common/thread_annotations.hpp"
#include "satori/common/types.hpp"
#include "satori/config/configuration.hpp"
#include "satori/config/platform.hpp"
#include "satori/linalg/matrix.hpp"

namespace satori {
namespace analysis {

/** Every invariant the auditor knows how to check. */
enum class CheckId
{
    // Allocation feasibility pack.
    AllocationShape,     ///< Wrong resource/job dimensions.
    AllocationSum,       ///< Per-resource sum != platform capacity.
    AllocationMinUnit,   ///< Some job received < 1 unit of a resource.

    // Objective sanity pack.
    ObjectiveFinite,     ///< Non-finite goal, weight, or IPS value.
    ObjectiveGoalRange,  ///< Normalized goal outside [0, 1] (Jain: (0, 1]).
    ObjectiveWeightNorm, ///< Weights not in [0, 1] or not summing to 1.

    // BO numerical-health pack.
    BoPosteriorVariance, ///< Posterior variance below -epsilon.
    BoCholeskyJitter,    ///< Factorization needed large diagonal jitter.
    BoKernelNotSpd,      ///< Kernel matrix asymmetric or not SPD.
    BoTrainingSet,       ///< Row/target count mismatch or non-finite targets.

    // Monitor/trace consistency pack.
    MonitorSizeMismatch,    ///< Observation vector sizes disagree.
    MonitorIpsSane,         ///< Measured IPS non-finite or <= 0.
    MonitorBaselinePositive,///< Isolation baseline not strictly positive.
    MonitorTimeOrder,       ///< Simulated time failed to advance.
};

/** Number of distinct check ids (for iteration). */
inline constexpr std::size_t kNumCheckIds = 14;

/** Stable kebab-case name of a check (used in reports and tests). */
[[nodiscard]] const char* checkIdName(CheckId id);

/** Aggregated violations of one check id. */
struct ViolationStats
{
    std::size_t count = 0;

    /** Call site (file:line) and detail of the first violation. */
    std::string first_site;
    std::string first_detail;

    /**
     * The violation with the largest |magnitude| seen so far, where
     * magnitude is a check-specific severity (units over-committed,
     * jitter added, distance below zero, ...).
     */
    double worst_magnitude = 0.0;
    std::string worst_site;
    std::string worst_detail;
};

/**
 * Accumulates invariant violations across a run.
 *
 * All check packs are safe to call concurrently; a single mutex
 * serializes mutation (auditing is a diagnostics mode, not a hot
 * path). Use globalAuditor() for the library's built-in hooks or a
 * local instance for targeted tests.
 */
class Auditor
{
  public:
    Auditor() = default;

    // ---- Allocation feasibility pack -------------------------------

    /**
     * @p config must be exactly feasible for @p platform with
     * @p num_jobs jobs: right shape, per-resource unit sums equal to
     * capacity, every job >= 1 unit of every resource.
     */
    void checkAllocation(const PlatformSpec& platform,
                         std::size_t num_jobs, const Configuration& config,
                         const char* file, int line);

    // ---- Objective sanity pack -------------------------------------

    /**
     * @p goals are the normalized per-goal values of one interval and
     * @p weights the matching weight vector: everything finite, goals
     * within [0, 1], weights within [0, 1] and summing to ~1. When
     * @p jain_fairness is set, goal index 1 must additionally be
     * strictly positive (Jain's index lives in (0, 1]).
     */
    void checkObjective(const std::vector<double>& goals,
                        const std::vector<double>& weights,
                        bool jain_fairness, const char* file, int line);

    // ---- BO numerical-health pack ----------------------------------

    /**
     * @p variance is an (unclamped) GP posterior variance in units
     * where the prior variance is @p scale; slightly negative values
     * are numerical noise, anything below -1e-6 * max(scale, 1) is a
     * broken solve.
     */
    void checkPosteriorVariance(double variance, double scale,
                                const char* file, int line);

    /**
     * Post-factorization health: @p jitter is the diagonal jitter the
     * Cholesky needed and @p condition its diagonal-based condition
     * estimate for an @p n x @p n kernel matrix. Jitter above 1e-6
     * means the matrix was effectively singular.
     */
    void checkCholesky(double jitter, double condition, std::size_t n,
                       const char* file, int line);

    /**
     * @p k must be a symmetric positive-definite kernel matrix;
     * failures are reported with condition-number diagnostics
     * (Gershgorin eigenvalue bounds, diagonal range).
     */
    void checkKernelMatrix(const linalg::Matrix& k, const char* file,
                           int line);

    /**
     * GP training set: one @p inputs row per target, and every
     * @p targets value finite.
     */
    void checkTrainingSet(const linalg::Matrix& inputs,
                          const std::vector<double>& targets,
                          const char* file, int line);

    // ---- Monitor/trace consistency pack ----------------------------

    /** Measured per-job IPS must be finite and strictly positive. */
    void checkMeasuredIps(const std::vector<Ips>& ips, const char* file,
                          int line);

    /**
     * One interval observation: @p ips and @p isolation_ips must both
     * have @p expected_jobs entries, the baseline must be strictly
     * positive, and time must have advanced (@p time > @p prev_time).
     */
    void checkObservation(const std::vector<Ips>& ips,
                          const std::vector<Ips>& isolation_ips,
                          std::size_t expected_jobs, Seconds time,
                          Seconds prev_time, const char* file, int line);

    // ---- Reporting --------------------------------------------------

    /** Record a violation directly (check packs funnel through here). */
    void recordViolation(CheckId id, const char* file, int line,
                         double magnitude, const std::string& detail);

    /** Total check-pack invocations so far. */
    [[nodiscard]] std::size_t checksRun() const;

    /** Total violations recorded so far (across all check ids). */
    [[nodiscard]] std::size_t violationCount() const;

    /** Violations of one check id (count 0 if never violated). */
    [[nodiscard]] ViolationStats violations(CheckId id) const;

    /**
     * Human-readable structured report: one header line with totals,
     * then per violated check id its count, first offender (file:line
     * and detail) and worst offender by |magnitude|.
     */
    [[nodiscard]] std::string renderReport() const;

    /** Drop all recorded state (for per-test isolation). */
    void clear();

  private:
    mutable common::Mutex mutex_;
    std::size_t checks_run_ SATORI_GUARDED_BY(mutex_) = 0;
    std::size_t violation_count_ SATORI_GUARDED_BY(mutex_) = 0;
    std::array<ViolationStats, kNumCheckIds> stats_
        SATORI_GUARDED_BY(mutex_){};
};

/**
 * The process-wide auditor the library's SATORI_AUDIT_HOOK call sites
 * feed. When the library is built with SATORI_AUDIT, a summary of
 * this auditor is printed to stderr at process exit.
 */
Auditor& globalAuditor();

} // namespace analysis
} // namespace satori

#endif // SATORI_ANALYSIS_INVARIANTS_HPP
