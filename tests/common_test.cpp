/**
 * @file
 * Unit tests for the common module: RNG, math helpers, streaming
 * statistics, and table/CSV output.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "satori/common/math.hpp"
#include "satori/common/rng.hpp"
#include "satori/common/stats.hpp"
#include "satori/common/table.hpp"

namespace satori {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntCoversRangeWithoutBias)
{
    Rng rng(11);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 50000; ++i)
        counts[rng.uniformInt(10)]++;
    for (int c : counts) {
        EXPECT_GT(c, 4500);
        EXPECT_LT(c, 5500);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(21);
    Rng child = a.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == child.next());
    EXPECT_LT(same, 3);
}

TEST(MathHelpers, Clamp)
{
    EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
    EXPECT_DOUBLE_EQ(clamp(-1.0, 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(clamp(2.0, 0.0, 1.0), 1.0);
}

TEST(MathHelpers, MeanAndStddev)
{
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.5);
    EXPECT_NEAR(stddev(v), std::sqrt(1.25), 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(MathHelpers, GeomeanAndHarmonic)
{
    const std::vector<double> v{1.0, 4.0};
    EXPECT_NEAR(geomean(v), 2.0, 1e-12);
    EXPECT_NEAR(harmonicMean(v), 1.6, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(MathHelpers, CoefficientOfVariation)
{
    EXPECT_DOUBLE_EQ(coefficientOfVariation({2.0, 2.0, 2.0}), 0.0);
    const std::vector<double> v{1.0, 3.0};
    EXPECT_NEAR(coefficientOfVariation(v), 0.5, 1e-12);
}

TEST(MathHelpers, Distances)
{
    const std::vector<double> a{0.0, 0.0}, b{3.0, 4.0};
    EXPECT_DOUBLE_EQ(squaredDistance(a, b), 25.0);
    EXPECT_DOUBLE_EQ(euclideanDistance(a, b), 5.0);
}

TEST(MathHelpers, BinomialKnownValues)
{
    EXPECT_EQ(binomial(0, 0), 1u);
    EXPECT_EQ(binomial(10, 3), 120u);
    EXPECT_EQ(binomial(9, 2), 36u);
    EXPECT_EQ(binomial(5, 7), 0u);
    EXPECT_EQ(binomial(52, 5), 2598960u);
}

/** Property sweep: binomial symmetry and Pascal's rule. */
class BinomialProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(BinomialProperty, SymmetryAndPascal)
{
    const auto n = static_cast<std::uint64_t>(GetParam());
    for (std::uint64_t k = 0; k <= n; ++k) {
        EXPECT_EQ(binomial(n, k), binomial(n, n - k));
        if (k >= 1 && n >= 1) {
            EXPECT_EQ(binomial(n, k),
                      binomial(n - 1, k - 1) + binomial(n - 1, k));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SmallN, BinomialProperty,
                         ::testing::Values(1, 2, 5, 10, 20, 30));

TEST(MathHelpers, NormalCdfPdf)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.96), 0.975, 1e-3);
    EXPECT_NEAR(normalCdf(-1.96), 0.025, 1e-3);
    EXPECT_NEAR(normalPdf(0.0), 0.3989422804, 1e-9);
    EXPECT_GT(normalPdf(0.0), normalPdf(1.0));
}

TEST(OnlineStats, MatchesDirectComputation)
{
    OnlineStats s;
    const std::vector<double> v{1.0, 5.0, 2.0, 8.0, 4.0};
    for (double x : v)
        s.add(x);
    EXPECT_EQ(s.count(), v.size());
    EXPECT_NEAR(s.mean(), mean(v), 1e-12);
    EXPECT_NEAR(s.stddev(), stddev(v), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 8.0);
}

TEST(OnlineStats, EmptyIsSafe)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(TimeSeriesTest, SizeAndMean)
{
    TimeSeries ts;
    for (int i = 0; i < 10; ++i)
        ts.add(static_cast<double>(i), static_cast<double>(i * 2));
    EXPECT_EQ(ts.size(), 10u);
    EXPECT_NEAR(ts.mean(), 9.0, 1e-12);
}

TEST(Percentile, LinearInterpolation)
{
    const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
    EXPECT_NEAR(percentile(v, 0.0), 10.0, 1e-12);
    EXPECT_NEAR(percentile(v, 100.0), 40.0, 1e-12);
    EXPECT_NEAR(percentile(v, 50.0), 25.0, 1e-12);
}

TEST(TablePrinterTest, RendersAlignedRows)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
    EXPECT_EQ(TablePrinter::pct(0.921, 1), "92.1%");
}

TEST(CsvWriterTest, WritesHeaderAndRows)
{
    const std::string path = "/tmp/satori_csv_test.csv";
    {
        CsvWriter w(path, {"a", "b"});
        ASSERT_TRUE(w.ok());
        w.addRow({"1", "2"});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
    std::remove(path.c_str());
}

} // namespace
} // namespace satori
