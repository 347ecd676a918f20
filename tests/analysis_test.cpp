// Tests for satori::analysis: each seeded violation must trip exactly
// its check pack with the right check id, and clean inputs must pass.

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "satori/analysis/invariants.hpp"
#include "satori/core/controller.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/linalg/matrix.hpp"
#include "satori/workloads/mixes.hpp"

using namespace satori;
using analysis::Auditor;
using analysis::CheckId;

namespace {

PlatformSpec
smallPlatform()
{
    PlatformSpec platform;
    platform.addResource(ResourceKind::Cores, 4);
    platform.addResource(ResourceKind::LlcWays, 5);
    return platform;
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

} // namespace

TEST(AnalysisAuditor, CleanAllocationPasses)
{
    Auditor auditor;
    const PlatformSpec platform = smallPlatform();
    const Configuration config =
        Configuration::equalPartition(platform, 2);
    auditor.checkAllocation(platform, 2, config, __FILE__, __LINE__);
    EXPECT_EQ(auditor.checksRun(), 1u);
    EXPECT_EQ(auditor.violationCount(), 0u);
}

TEST(AnalysisAuditor, OverCommittedAllocationTripsSum)
{
    Auditor auditor;
    // Cores row sums to 5 > capacity 4; ways row is exact.
    const Configuration config({{3, 2}, {3, 2}});
    auditor.checkAllocation(smallPlatform(), 2, config, __FILE__,
                            __LINE__);
    const auto stats = auditor.violations(CheckId::AllocationSum);
    ASSERT_EQ(stats.count, 1u);
    EXPECT_DOUBLE_EQ(stats.worst_magnitude, 1.0); // one unit over
    EXPECT_NE(stats.first_detail.find("cores"), std::string::npos);
    EXPECT_EQ(auditor.violations(CheckId::AllocationMinUnit).count, 0u);
}

TEST(AnalysisAuditor, StarvedJobTripsMinUnit)
{
    Auditor auditor;
    // Job 1 gets zero cores; sums still match capacity.
    const Configuration config({{4, 0}, {3, 2}});
    auditor.checkAllocation(smallPlatform(), 2, config, __FILE__,
                            __LINE__);
    EXPECT_EQ(auditor.violations(CheckId::AllocationMinUnit).count, 1u);
    EXPECT_EQ(auditor.violations(CheckId::AllocationSum).count, 0u);
}

TEST(AnalysisAuditor, WrongShapeTripsShape)
{
    Auditor auditor;
    const Configuration config({{2, 2}}); // one resource, platform has 2
    auditor.checkAllocation(smallPlatform(), 2, config, __FILE__,
                            __LINE__);
    EXPECT_EQ(auditor.violations(CheckId::AllocationShape).count, 1u);
}

TEST(AnalysisAuditor, ObjectiveCleanPasses)
{
    Auditor auditor;
    auditor.checkObjective({0.8, 0.9}, {0.5, 0.5}, true, __FILE__,
                           __LINE__);
    EXPECT_EQ(auditor.violationCount(), 0u);
}

TEST(AnalysisAuditor, NanGoalTripsFinite)
{
    Auditor auditor;
    auditor.checkObjective({kNan, 0.9}, {0.5, 0.5}, true, __FILE__,
                           __LINE__);
    EXPECT_EQ(auditor.violations(CheckId::ObjectiveFinite).count, 1u);
}

TEST(AnalysisAuditor, ZeroJainTripsGoalRange)
{
    Auditor auditor;
    auditor.checkObjective({0.5, 0.0}, {0.5, 0.5}, true, __FILE__,
                           __LINE__);
    EXPECT_EQ(auditor.violations(CheckId::ObjectiveGoalRange).count, 1u);
    // The same value is legal for a non-Jain fairness metric.
    Auditor lenient;
    lenient.checkObjective({0.5, 0.0}, {0.5, 0.5}, false, __FILE__,
                           __LINE__);
    EXPECT_EQ(lenient.violationCount(), 0u);
}

TEST(AnalysisAuditor, UnnormalizedWeightsTripWeightNorm)
{
    Auditor auditor;
    auditor.checkObjective({0.5, 0.5}, {0.7, 0.6}, true, __FILE__,
                           __LINE__);
    const auto stats = auditor.violations(CheckId::ObjectiveWeightNorm);
    ASSERT_EQ(stats.count, 1u);
    EXPECT_NEAR(stats.worst_magnitude, 0.3, 1e-9); // sum 1.3 vs 1
}

TEST(AnalysisAuditor, NegativePosteriorVarianceTrips)
{
    Auditor auditor;
    auditor.checkPosteriorVariance(-1e-3, 1.0, __FILE__, __LINE__);
    EXPECT_EQ(auditor.violations(CheckId::BoPosteriorVariance).count, 1u);
    // Numerical dust below zero is tolerated.
    Auditor tolerant;
    tolerant.checkPosteriorVariance(-1e-9, 1.0, __FILE__, __LINE__);
    EXPECT_EQ(tolerant.violationCount(), 0u);
}

TEST(AnalysisAuditor, NonSpdKernelMatrixTrips)
{
    Auditor auditor;
    // Eigenvalues 21 and -19: indefinite beyond any jitter escalation.
    linalg::Matrix k(2, 2);
    k(0, 0) = 1.0;
    k(0, 1) = 20.0;
    k(1, 0) = 20.0;
    k(1, 1) = 1.0;
    auditor.checkKernelMatrix(k, __FILE__, __LINE__);
    const auto stats = auditor.violations(CheckId::BoKernelNotSpd);
    ASSERT_EQ(stats.count, 1u);
    EXPECT_NE(stats.first_detail.find("Gershgorin"), std::string::npos);
}

TEST(AnalysisAuditor, AsymmetricKernelMatrixTrips)
{
    Auditor auditor;
    linalg::Matrix k(2, 2);
    k(0, 0) = 1.0;
    k(0, 1) = 0.5;
    k(1, 0) = 0.2;
    k(1, 1) = 1.0;
    auditor.checkKernelMatrix(k, __FILE__, __LINE__);
    EXPECT_EQ(auditor.violations(CheckId::BoKernelNotSpd).count, 1u);
}

TEST(AnalysisAuditor, NearSingularKernelMatrixTripsJitter)
{
    Auditor auditor;
    // Mildly indefinite (eigenvalues 2.001 and -0.001): factorizable
    // only after the jitter escalates far beyond the 1e-6 tolerance.
    linalg::Matrix k(2, 2);
    k(0, 0) = 1.0;
    k(0, 1) = 1.001;
    k(1, 0) = 1.001;
    k(1, 1) = 1.0;
    auditor.checkKernelMatrix(k, __FILE__, __LINE__);
    EXPECT_EQ(auditor.violations(CheckId::BoCholeskyJitter).count, 1u);
    EXPECT_EQ(auditor.violations(CheckId::BoKernelNotSpd).count, 0u);
}

TEST(AnalysisAuditor, SpdKernelMatrixPasses)
{
    Auditor auditor;
    linalg::Matrix k = linalg::Matrix::identity(3);
    auditor.checkKernelMatrix(k, __FILE__, __LINE__);
    EXPECT_EQ(auditor.violationCount(), 0u);
}

TEST(AnalysisAuditor, NanTargetTripsTrainingSet)
{
    Auditor auditor;
    auditor.checkTrainingSet(linalg::Matrix(2, 2, 0.5), {0.9, kNan},
                             __FILE__, __LINE__);
    EXPECT_EQ(auditor.violations(CheckId::BoTrainingSet).count, 1u);
}

TEST(AnalysisAuditor, NanIpsTripsMonitorSanity)
{
    Auditor auditor;
    auditor.checkMeasuredIps({1e9, kNan}, __FILE__, __LINE__);
    EXPECT_EQ(auditor.violations(CheckId::MonitorIpsSane).count, 1u);
    auditor.checkMeasuredIps({-1.0, 1e9}, __FILE__, __LINE__);
    EXPECT_EQ(auditor.violations(CheckId::MonitorIpsSane).count, 2u);
}

TEST(AnalysisAuditor, ObservationChecksSizesBaselineAndTime)
{
    Auditor auditor;
    // Clean observation.
    auditor.checkObservation({1e9, 2e9}, {2e9, 3e9}, 2, 0.2, 0.1,
                             __FILE__, __LINE__);
    EXPECT_EQ(auditor.violationCount(), 0u);
    // Size mismatch.
    auditor.checkObservation({1e9}, {2e9, 3e9}, 2, 0.3, 0.2, __FILE__,
                             __LINE__);
    EXPECT_EQ(auditor.violations(CheckId::MonitorSizeMismatch).count, 1u);
    // Zero baseline.
    auditor.checkObservation({1e9, 2e9}, {0.0, 3e9}, 2, 0.4, 0.3,
                             __FILE__, __LINE__);
    EXPECT_EQ(
        auditor.violations(CheckId::MonitorBaselinePositive).count, 1u);
    // Time did not advance.
    auditor.checkObservation({1e9, 2e9}, {2e9, 3e9}, 2, 0.4, 0.4,
                             __FILE__, __LINE__);
    EXPECT_EQ(auditor.violations(CheckId::MonitorTimeOrder).count, 1u);
}

TEST(AnalysisAuditor, ReportAggregatesFirstAndWorst)
{
    Auditor auditor;
    const PlatformSpec platform = smallPlatform();
    auditor.checkAllocation(platform, 2, Configuration({{3, 2}, {3, 2}}),
                            __FILE__, __LINE__);
    auditor.checkAllocation(platform, 2, Configuration({{4, 3}, {3, 2}}),
                            __FILE__, __LINE__);
    const auto stats = auditor.violations(CheckId::AllocationSum);
    ASSERT_EQ(stats.count, 2u);
    // First was +1 over, worst is +3 over.
    EXPECT_NE(stats.first_detail.find("assigned 5"), std::string::npos);
    EXPECT_DOUBLE_EQ(stats.worst_magnitude, 3.0);
    EXPECT_NE(stats.first_site.find("analysis_test.cpp"),
              std::string::npos);

    const std::string report = auditor.renderReport();
    EXPECT_NE(report.find("allocation-sum"), std::string::npos);
    EXPECT_NE(report.find("count=2"), std::string::npos);
    EXPECT_NE(report.find("first:"), std::string::npos);
    EXPECT_NE(report.find("worst:"), std::string::npos);

    auditor.clear();
    EXPECT_EQ(auditor.checksRun(), 0u);
    EXPECT_EQ(auditor.violationCount(), 0u);
    EXPECT_EQ(auditor.violations(CheckId::AllocationSum).count, 0u);
}

TEST(AnalysisAuditor, CheckIdNamesAreUniqueKebab)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < analysis::kNumCheckIds; ++i) {
        const std::string name =
            analysis::checkIdName(static_cast<CheckId>(i));
        EXPECT_FALSE(name.empty());
        for (char c : name)
            EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '-');
        EXPECT_TRUE(names.insert(name).second) << name << " duplicated";
    }
}

// With the audit hooks compiled in, a healthy end-to-end SATORI run
// must stream through every pack without a single violation.
TEST(AnalysisAuditorIntegration, CleanRunReportsZeroViolations)
{
#if defined(SATORI_AUDIT_ENABLED) && SATORI_AUDIT_ENABLED
    analysis::globalAuditor().clear();
    // A small 8/8/8 platform keeps the audited run short.
    PlatformSpec platform;
    platform.addResource(ResourceKind::Cores, 8);
    platform.addResource(ResourceKind::LlcWays, 8);
    platform.addResource(ResourceKind::MemBandwidth, 8);
    auto mix = workloads::mixOf({"canneal", "streamcluster", "vips"});
    auto server = harness::makeServer(platform, mix);
    core::SatoriController controller(platform, server.numJobs());
    harness::ExperimentOptions options;
    options.duration = 8.0;
    harness::ExperimentRunner runner(options);
    const harness::ExperimentResult result =
        runner.run(server, controller, mix.label);
    EXPECT_EQ(result.mix_label, mix.label);
    EXPECT_GT(analysis::globalAuditor().checksRun(), 0u);
    EXPECT_EQ(analysis::globalAuditor().violationCount(), 0u)
        << analysis::globalAuditor().renderReport();
#else
    GTEST_SKIP() << "library built without SATORI_AUDIT";
#endif
}
