#include "satori/analysis/invariants.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "satori/common/logging.hpp"
#include "satori/linalg/cholesky.hpp"

namespace satori {
namespace analysis {

const char*
checkIdName(CheckId id)
{
    switch (id) {
      case CheckId::AllocationShape:
        return "allocation-shape";
      case CheckId::AllocationSum:
        return "allocation-sum";
      case CheckId::AllocationMinUnit:
        return "allocation-min-unit";
      case CheckId::ObjectiveFinite:
        return "objective-finite";
      case CheckId::ObjectiveGoalRange:
        return "objective-goal-range";
      case CheckId::ObjectiveWeightNorm:
        return "objective-weight-norm";
      case CheckId::BoPosteriorVariance:
        return "bo-posterior-variance";
      case CheckId::BoCholeskyJitter:
        return "bo-cholesky-jitter";
      case CheckId::BoKernelNotSpd:
        return "bo-kernel-not-spd";
      case CheckId::BoTrainingSet:
        return "bo-training-set";
      case CheckId::MonitorSizeMismatch:
        return "monitor-size-mismatch";
      case CheckId::MonitorIpsSane:
        return "monitor-ips-sane";
      case CheckId::MonitorBaselinePositive:
        return "monitor-baseline-positive";
      case CheckId::MonitorTimeOrder:
        return "monitor-time-order";
    }
    SATORI_PANIC("unknown CheckId");
}

namespace {

std::string
site(const char* file, int line)
{
    return std::string(file) + ":" + std::to_string(line);
}

std::string
num(double v)
{
    std::ostringstream out;
    out << v;
    return out.str();
}

} // namespace

void
Auditor::recordViolation(CheckId id, const char* file, int line,
                         double magnitude, const std::string& detail)
{
    common::MutexLock guard(mutex_);
    ViolationStats& s = stats_[static_cast<std::size_t>(id)];
    ++violation_count_;
    if (s.count == 0) {
        s.first_site = site(file, line);
        s.first_detail = detail;
    }
    if (s.count == 0 || std::abs(magnitude) > std::abs(s.worst_magnitude)) {
        s.worst_magnitude = magnitude;
        s.worst_site = site(file, line);
        s.worst_detail = detail;
    }
    ++s.count;
}

void
Auditor::checkAllocation(const PlatformSpec& platform, std::size_t num_jobs,
                         const Configuration& config, const char* file,
                         int line)
{
    {
        common::MutexLock guard(mutex_);
        ++checks_run_;
    }
    if (config.numResources() != platform.numResources() ||
        config.numJobs() != num_jobs) {
        recordViolation(
            CheckId::AllocationShape, file, line,
            static_cast<double>(config.numResources()),
            "configuration is " + std::to_string(config.numResources()) +
                "x" + std::to_string(config.numJobs()) + ", platform wants " +
                std::to_string(platform.numResources()) + "x" +
                std::to_string(num_jobs));
        return; // unit checks would index out of bounds
    }
    for (std::size_t r = 0; r < platform.numResources(); ++r) {
        const int capacity = platform.units(r);
        const int assigned = config.totalUnits(r);
        if (assigned != capacity) {
            recordViolation(
                CheckId::AllocationSum, file, line,
                static_cast<double>(assigned - capacity),
                resourceKindName(platform.resource(r).kind) + ": assigned " +
                    std::to_string(assigned) + " of " +
                    std::to_string(capacity) + " units in " +
                    config.toString());
        }
        for (std::size_t j = 0; j < num_jobs; ++j) {
            const int units = config.units(r, j);
            if (units < 1) {
                recordViolation(
                    CheckId::AllocationMinUnit, file, line,
                    static_cast<double>(1 - units),
                    "job " + std::to_string(j) + " holds " +
                        std::to_string(units) + " units of " +
                        resourceKindName(platform.resource(r).kind));
            }
        }
    }
}

void
Auditor::checkObjective(const std::vector<double>& goals,
                        const std::vector<double>& weights,
                        bool jain_fairness, const char* file, int line)
{
    {
        common::MutexLock guard(mutex_);
        ++checks_run_;
    }
    constexpr double kEps = 1e-9;
    if (goals.size() != weights.size()) {
        recordViolation(CheckId::ObjectiveWeightNorm, file, line,
                        static_cast<double>(goals.size()) -
                            static_cast<double>(weights.size()),
                        std::to_string(goals.size()) + " goals vs " +
                            std::to_string(weights.size()) + " weights");
        return;
    }
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < goals.size(); ++i) {
        const double g = goals[i];
        const double w = weights[i];
        if (!std::isfinite(g) || !std::isfinite(w)) {
            recordViolation(CheckId::ObjectiveFinite, file, line, 0.0,
                            "goal " + std::to_string(i) + ": value " +
                                num(g) + ", weight " + num(w));
            continue;
        }
        if (g < -kEps || g > 1.0 + kEps) {
            recordViolation(CheckId::ObjectiveGoalRange, file, line,
                            g < 0.0 ? g : g - 1.0,
                            "goal " + std::to_string(i) + " = " + num(g) +
                                " outside [0, 1]");
        } else if (jain_fairness && i == 1 && g <= 0.0) {
            recordViolation(CheckId::ObjectiveGoalRange, file, line, g,
                            "Jain fairness index = " + num(g) +
                                " outside (0, 1]");
        }
        if (w < -kEps || w > 1.0 + kEps) {
            recordViolation(CheckId::ObjectiveWeightNorm, file, line,
                            w < 0.0 ? w : w - 1.0,
                            "weight " + std::to_string(i) + " = " + num(w) +
                                " outside [0, 1]");
        }
        weight_sum += w;
    }
    if (std::isfinite(weight_sum) && std::abs(weight_sum - 1.0) > 1e-6) {
        recordViolation(CheckId::ObjectiveWeightNorm, file, line,
                        weight_sum - 1.0,
                        "weights sum to " + num(weight_sum) + ", not 1");
    }
}

void
Auditor::checkPosteriorVariance(double variance, double scale,
                                const char* file, int line)
{
    {
        common::MutexLock guard(mutex_);
        ++checks_run_;
    }
    const double eps = 1e-6 * std::max(std::abs(scale), 1.0);
    if (!std::isfinite(variance) || variance < -eps) {
        recordViolation(CheckId::BoPosteriorVariance, file, line, variance,
                        "posterior variance " + num(variance) +
                            " below -" + num(eps) +
                            " (prior scale " + num(scale) + ")");
    }
}

void
Auditor::checkCholesky(double jitter, double condition, std::size_t n,
                       const char* file, int line)
{
    {
        common::MutexLock guard(mutex_);
        ++checks_run_;
    }
    constexpr double kJitterTolerance = 1e-6;
    if (jitter > kJitterTolerance) {
        recordViolation(CheckId::BoCholeskyJitter, file, line, jitter,
                        "factorizing a " + std::to_string(n) + "x" +
                            std::to_string(n) + " kernel matrix needed " +
                            num(jitter) + " diagonal jitter (condition ~" +
                            num(condition) + ")");
    }
}

void
Auditor::checkKernelMatrix(const linalg::Matrix& k, const char* file,
                           int line)
{
    {
        common::MutexLock guard(mutex_);
        ++checks_run_;
    }
    const std::size_t n = k.rows();
    if (n != k.cols()) {
        recordViolation(CheckId::BoKernelNotSpd, file, line,
                        static_cast<double>(n),
                        "kernel matrix is " + std::to_string(n) + "x" +
                            std::to_string(k.cols()) + ", not square");
        return;
    }
    // Symmetry, with diagonal range and Gershgorin eigenvalue bounds
    // as the condition diagnostics reported on failure.
    double max_asym = 0.0;
    double min_diag = std::numeric_limits<double>::infinity();
    double max_diag = -std::numeric_limits<double>::infinity();
    double gershgorin_lo = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
        min_diag = std::min(min_diag, k(i, i));
        max_diag = std::max(max_diag, k(i, i));
        double off = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            if (j != i)
                off += std::abs(k(i, j));
            max_asym = std::max(max_asym, std::abs(k(i, j) - k(j, i)));
        }
        gershgorin_lo = std::min(gershgorin_lo, k(i, i) - off);
    }
    const double scale = std::max(std::abs(max_diag), 1.0);
    if (max_asym > 1e-9 * scale) {
        recordViolation(CheckId::BoKernelNotSpd, file, line, max_asym,
                        "kernel matrix asymmetric: max |K_ij - K_ji| = " +
                            num(max_asym));
        return;
    }
    try {
        const linalg::Cholesky chol(k);
        if (chol.jitter() > 1e-6) {
            recordViolation(
                CheckId::BoCholeskyJitter, file, line, chol.jitter(),
                "kernel matrix nearly singular: factorization took " +
                    num(chol.jitter()) + " jitter (diag in [" +
                    num(min_diag) + ", " + num(max_diag) +
                    "], Gershgorin lower bound " + num(gershgorin_lo) + ")");
        }
    } catch (const PanicError&) {
        recordViolation(
            CheckId::BoKernelNotSpd, file, line, gershgorin_lo,
            "kernel matrix not SPD: factorization failed under maximum "
            "jitter (diag in [" +
                num(min_diag) + ", " + num(max_diag) +
                "], Gershgorin lower eigenvalue bound " +
                num(gershgorin_lo) + ", condition unbounded)");
    }
}

void
Auditor::checkTrainingSet(const linalg::Matrix& inputs,
                          const std::vector<double>& targets,
                          const char* file, int line)
{
    {
        common::MutexLock guard(mutex_);
        ++checks_run_;
    }
    if (inputs.rows() != targets.size()) {
        recordViolation(CheckId::BoTrainingSet, file, line,
                        static_cast<double>(inputs.rows()) -
                            static_cast<double>(targets.size()),
                        std::to_string(inputs.rows()) + " inputs vs " +
                            std::to_string(targets.size()) + " targets");
        return;
    }
    for (std::size_t i = 0; i < targets.size(); ++i) {
        if (!std::isfinite(targets[i])) {
            recordViolation(CheckId::BoTrainingSet, file, line, 0.0,
                            "target " + std::to_string(i) +
                                " is non-finite (" + num(targets[i]) + ")");
        }
    }
}

void
Auditor::checkMeasuredIps(const std::vector<Ips>& ips, const char* file,
                          int line)
{
    {
        common::MutexLock guard(mutex_);
        ++checks_run_;
    }
    for (std::size_t j = 0; j < ips.size(); ++j) {
        if (!std::isfinite(ips[j]) || ips[j] <= 0.0) {
            recordViolation(CheckId::MonitorIpsSane, file, line, ips[j],
                            "job " + std::to_string(j) + " measured IPS " +
                                num(ips[j]));
        }
    }
}

void
Auditor::checkObservation(const std::vector<Ips>& ips,
                          const std::vector<Ips>& isolation_ips,
                          std::size_t expected_jobs, Seconds time,
                          Seconds prev_time, const char* file, int line)
{
    {
        common::MutexLock guard(mutex_);
        ++checks_run_;
    }
    if (ips.size() != expected_jobs || isolation_ips.size() != expected_jobs) {
        recordViolation(CheckId::MonitorSizeMismatch, file, line,
                        static_cast<double>(ips.size()) -
                            static_cast<double>(expected_jobs),
                        std::to_string(ips.size()) + " IPS / " +
                            std::to_string(isolation_ips.size()) +
                            " baseline entries for " +
                            std::to_string(expected_jobs) + " jobs");
        return;
    }
    for (std::size_t j = 0; j < expected_jobs; ++j) {
        if (!std::isfinite(isolation_ips[j]) || isolation_ips[j] <= 0.0) {
            recordViolation(CheckId::MonitorBaselinePositive, file, line,
                            isolation_ips[j],
                            "job " + std::to_string(j) +
                                " isolation baseline " +
                                num(isolation_ips[j]));
        }
    }
    if (!(time > prev_time)) {
        recordViolation(CheckId::MonitorTimeOrder, file, line,
                        time - prev_time,
                        "observation time " + num(time) +
                            " did not advance past " + num(prev_time));
    }
}

std::size_t
Auditor::checksRun() const
{
    common::MutexLock guard(mutex_);
    return checks_run_;
}

std::size_t
Auditor::violationCount() const
{
    common::MutexLock guard(mutex_);
    return violation_count_;
}

ViolationStats
Auditor::violations(CheckId id) const
{
    common::MutexLock guard(mutex_);
    return stats_[static_cast<std::size_t>(id)];
}

std::string
Auditor::renderReport() const
{
    common::MutexLock guard(mutex_);
    std::ostringstream out;
    std::size_t violated_ids = 0;
    for (const auto& s : stats_)
        if (s.count > 0)
            ++violated_ids;
    out << "satori-audit: " << checks_run_ << " checks, " << violated_ids
        << " violated check ids, " << violation_count_
        << " total violations\n";
    for (std::size_t i = 0; i < stats_.size(); ++i) {
        const ViolationStats& s = stats_[i];
        if (s.count == 0)
            continue;
        out << "  [" << checkIdName(static_cast<CheckId>(i))
            << "] count=" << s.count << "\n"
            << "      first: " << s.first_site << " " << s.first_detail
            << "\n"
            << "      worst: |magnitude|=" << std::abs(s.worst_magnitude)
            << " at " << s.worst_site << " " << s.worst_detail << "\n";
    }
    return out.str();
}

void
Auditor::clear()
{
    common::MutexLock guard(mutex_);
    checks_run_ = 0;
    violation_count_ = 0;
    stats_ = {};
}

namespace {

#if defined(SATORI_AUDIT_ENABLED) && SATORI_AUDIT_ENABLED
void
printGlobalSummary()
{
    const std::string report = globalAuditor().renderReport();
    std::fputs(report.c_str(), stderr);
}
#endif

} // namespace

Auditor&
globalAuditor()
{
    // Meyers singleton; the Auditor serializes access internally.
    // satori-analyzer: allow(conc-global-mutable)
    static Auditor auditor;
#if defined(SATORI_AUDIT_ENABLED) && SATORI_AUDIT_ENABLED
    // Registered after the static's construction, so the handler runs
    // before its destruction; prints the end-of-run audit summary.
    static const bool registered = [] {
        std::atexit(printGlobalSummary);
        return true;
    }();
    (void)registered;
#endif
    return auditor;
}

} // namespace analysis
} // namespace satori
