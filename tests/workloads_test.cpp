/**
 * @file
 * Tests for the workload suites and job-mix generation, including the
 * paper's qualitative workload facts that the analytic profiles must
 * encode.
 */

#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"
#include "satori/workloads/mixes.hpp"
#include "satori/workloads/suites.hpp"

namespace satori {
namespace workloads {
namespace {

TEST(SuitesTest, SuiteSizesMatchPaper)
{
    EXPECT_EQ(parsecSuite().size(), 7u);     // Table I + vips
    EXPECT_EQ(cloudSuite().size(), 5u);      // Table II
    EXPECT_EQ(ecpSuite().size(), 5u);        // Table III
}

TEST(SuitesTest, EveryProfileIsWellFormed)
{
    for (const auto* name : {"parsec", "cloudsuite", "ecp"}) {
        for (const auto& w : suiteByName(name)) {
            EXPECT_FALSE(w.name.empty());
            EXPECT_EQ(w.suite, name);
            EXPECT_FALSE(w.phases.empty()) << w.name;
            EXPECT_GT(w.fixed_work, 0.0) << w.name;
            for (const auto& p : w.phases) {
                EXPECT_GT(p.length, 0.0) << w.name;
                EXPECT_GT(p.base_ipc, 0.0) << w.name;
                EXPECT_GE(p.parallel_fraction, 0.0) << w.name;
                EXPECT_LE(p.parallel_fraction, 1.0) << w.name;
            }
            EXPECT_DOUBLE_EQ(
                w.cycleLength(),
                [&] {
                    Instructions t = 0;
                    for (const auto& p : w.phases)
                        t += p.length;
                    return t;
                }());
        }
    }
}

TEST(SuitesTest, LookupByName)
{
    EXPECT_EQ(workloadByName("canneal").suite, "parsec");
    EXPECT_EQ(workloadByName("web_search").suite, "cloudsuite");
    EXPECT_EQ(workloadByName("minife").suite, "ecp");
    EXPECT_THROW(workloadByName("not_a_workload"), FatalError);
    EXPECT_THROW(suiteByName("spec2017"), FatalError);
}

TEST(SuitesTest, FluidanimateIsTheMostCoreSensitiveParsec)
{
    // Sec. V attributes mix-0's low gain to fluidanimate's core
    // sensitivity; our profile must make it the most parallel.
    double fluid = 0.0, best_other = 0.0;
    for (const auto& w : parsecSuite()) {
        double p = 0.0;
        for (const auto& ph : w.phases)
            p = std::max(p, ph.parallel_fraction);
        if (w.name == "fluidanimate")
            fluid = p;
        else if (w.name != "swaptions") // swaptions is compute-bound too
            best_other = std::max(best_other, p);
    }
    EXPECT_GT(fluid, best_other);
}

TEST(SuitesTest, BlackscholesIsBandwidthBound)
{
    // High MPKI floor: cache ways cannot remove its memory traffic.
    const auto w = workloadByName("blackscholes");
    for (const auto& p : w.phases)
        EXPECT_GE(p.mrc.floorMpki(), 5.0);
}

TEST(SuitesTest, AmgAndHypreAreNearTwins)
{
    // The paper's easiest ECP mix pairs AMG and Hypre because their
    // resource requirements are similar.
    const auto amg = workloadByName("amg");
    const auto hypre = workloadByName("hypre");
    ASSERT_EQ(amg.phases.size(), hypre.phases.size());
    for (std::size_t i = 0; i < amg.phases.size(); ++i) {
        EXPECT_NEAR(amg.phases[i].base_ipc, hypre.phases[i].base_ipc,
                    0.2);
        EXPECT_NEAR(amg.phases[i].parallel_fraction,
                    hypre.phases[i].parallel_fraction, 0.05);
    }
}

TEST(MixesTest, CombinationCountsMatchPaper)
{
    EXPECT_EQ(allMixes(parsecSuite(), 5).size(), 21u); // C(7,5)
    EXPECT_EQ(allMixes(cloudSuite(), 3).size(), 10u);  // C(5,3)
    EXPECT_EQ(allMixes(ecpSuite(), 2).size(), 10u);    // C(5,2)
}

TEST(MixesTest, LabelsAndJobCounts)
{
    const auto mixes = allMixes(ecpSuite(), 2);
    for (const auto& m : mixes) {
        EXPECT_EQ(m.jobs.size(), 2u);
        EXPECT_NE(m.label.find('+'), std::string::npos);
    }
    // Lexicographic: first mix pairs the first two suite entries.
    EXPECT_EQ(mixes.front().jobs[0].name, "minife");
    EXPECT_EQ(mixes.front().jobs[1].name, "xsbench");
}

TEST(MixesTest, MixOfNamesCrossSuite)
{
    const JobMix m = mixOf({"canneal", "web_search", "amg"});
    ASSERT_EQ(m.jobs.size(), 3u);
    EXPECT_EQ(m.label, "canneal+web_search+amg");
    EXPECT_THROW(mixOf({"bogus"}), FatalError);
}

/** Property: combinations() enumerates exactly C(n,k) sorted subsets. */
class CombinationsProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(CombinationsProperty, CountAndOrder)
{
    const auto [n, k] = GetParam();
    const auto combos = combinations(n, k);
    EXPECT_EQ(combos.size(), binomial(n, k));
    for (std::size_t i = 0; i < combos.size(); ++i) {
        ASSERT_EQ(combos[i].size(), k);
        for (std::size_t j = 1; j < k; ++j)
            EXPECT_LT(combos[i][j - 1], combos[i][j]);
        if (i > 0) {
            EXPECT_LT(combos[i - 1], combos[i]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CombinationsProperty,
    ::testing::Values(std::make_pair(5, 2), std::make_pair(7, 5),
                      std::make_pair(6, 6), std::make_pair(8, 1),
                      std::make_pair(10, 4)));

} // namespace
} // namespace workloads
} // namespace satori
