/**
 * @file
 * Unit and property tests for platforms, configurations, and the
 * configuration-space combinatorics (including the paper's Sec. II
 * search-space-size examples).
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"
#include "satori/common/rng.hpp"
#include "satori/config/enumeration.hpp"
#include "satori/config/platform.hpp"

namespace satori {
namespace {

TEST(PlatformTest, PaperTestbedShape)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ASSERT_EQ(p.numResources(), 3u);
    EXPECT_EQ(p.units(0), 10); // cores
    EXPECT_EQ(p.units(1), 11); // LLC ways
    EXPECT_EQ(p.units(2), 10); // MBA steps
    EXPECT_EQ(p.indexOf(ResourceKind::Cores), 0);
    EXPECT_EQ(p.indexOf(ResourceKind::PowerCap), -1);
}

TEST(PlatformTest, DuplicateKindRejected)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    EXPECT_THROW(p.addResource(ResourceKind::Cores, 8), FatalError);
}

TEST(PlatformTest, ZeroUnitsRejected)
{
    PlatformSpec p;
    EXPECT_THROW(p.addResource(ResourceKind::Cores, 0), FatalError);
}

TEST(PlatformTest, RestrictedToSubset)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    const PlatformSpec llc_only =
        p.restrictedTo({ResourceKind::LlcWays});
    ASSERT_EQ(llc_only.numResources(), 1u);
    EXPECT_EQ(llc_only.units(0), 11);
    const PlatformSpec two = p.restrictedTo(
        {ResourceKind::LlcWays, ResourceKind::MemBandwidth});
    EXPECT_EQ(two.numResources(), 2u);
}

TEST(ConfigurationTest, EqualPartitionDistributesRemainders)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    const Configuration c = Configuration::equalPartition(p, 4);
    // 10 cores / 4 jobs: 3,3,2,2
    EXPECT_EQ(c.units(0, 0), 3);
    EXPECT_EQ(c.units(0, 1), 3);
    EXPECT_EQ(c.units(0, 2), 2);
    EXPECT_EQ(c.units(0, 3), 2);
    EXPECT_TRUE(c.isValidFor(p, 4));
}

TEST(ConfigurationTest, EqualPartitionRejectsTooManyJobs)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 3);
    EXPECT_THROW(Configuration::equalPartition(p, 4), FatalError);
}

TEST(ConfigurationTest, ValidityChecks)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    Configuration c = Configuration::equalPartition(p, 5);
    EXPECT_TRUE(c.isValidFor(p, 5));
    EXPECT_FALSE(c.isValidFor(p, 4)); // wrong job count
    c.units(0, 0) += 1;               // breaks the total
    EXPECT_FALSE(c.isValidFor(p, 5));
}

TEST(ConfigurationTest, NormalizedVectorSharesSumToOne)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    const Configuration c = Configuration::equalPartition(p, 5);
    const RealVec v = c.normalizedVector();
    ASSERT_EQ(v.size(), 15u);
    for (std::size_t r = 0; r < 3; ++r) {
        double sum = 0.0;
        for (std::size_t j = 0; j < 5; ++j)
            sum += v[r * 5 + j];
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

TEST(ConfigurationTest, TransferUnitRespectsMinimum)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    Configuration c = Configuration::equalPartition(p, 5);
    EXPECT_TRUE(c.transferUnit(0, 0, 1));
    EXPECT_EQ(c.units(0, 0), 1);
    EXPECT_EQ(c.units(0, 1), 3);
    // Job 0 is now at 1 core: further donation must be refused.
    EXPECT_FALSE(c.transferUnit(0, 0, 1));
    EXPECT_EQ(c.units(0, 0), 1);
    // Self-transfer refused.
    EXPECT_FALSE(c.transferUnit(0, 2, 2));
}

TEST(ConfigurationTest, Distances)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    const Configuration a = Configuration::equalPartition(p, 5);
    Configuration b = a;
    b.transferUnit(0, 0, 1);
    EXPECT_NEAR(Configuration::distance(a, b), std::sqrt(2.0), 1e-12);
    EXPECT_EQ(Configuration::l1Distance(a, b), 2);
    EXPECT_EQ(Configuration::l1Distance(a, a), 0);
}

TEST(ConfigurationTest, ToStringFormat)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    p.addResource(ResourceKind::LlcWays, 4);
    const Configuration c = Configuration::equalPartition(p, 2);
    EXPECT_EQ(c.toString(), "[2,2|2,2]");
}

TEST(CompositionSpaceTest, CountMatchesClosedForm)
{
    CompositionSpace s(10, 3);
    EXPECT_EQ(s.size(), binomial(9, 2));
}

TEST(CompositionSpaceTest, InvalidArgumentsRejected)
{
    EXPECT_THROW(CompositionSpace(2, 3), FatalError);
    EXPECT_THROW(CompositionSpace(3, 0), FatalError);
    // Past the 2^20-unit table bound (compositions x parts), including
    // shapes whose composition count overflows 64 bits.
    EXPECT_THROW(CompositionSpace(60, 5), FatalError);
    EXPECT_THROW(CompositionSpace(1 << 20, 2), FatalError);
    EXPECT_THROW(CompositionSpace(200000, 100000), FatalError);
}

TEST(CompositionSpaceTest, EnumerationIsLexicographicAndComplete)
{
    CompositionSpace s(5, 3); // C(4,2) = 6 compositions
    ASSERT_EQ(s.size(), 6u);
    std::vector<std::vector<int>> all;
    for (std::uint64_t i = 0; i < s.size(); ++i) {
        const auto comp = s.at(i);
        all.emplace_back(comp.begin(), comp.end());
    }
    // Lexicographic order and all sums correct.
    for (std::size_t i = 0; i < all.size(); ++i) {
        int sum = 0;
        for (int v : all[i]) {
            EXPECT_GE(v, 1);
            sum += v;
        }
        EXPECT_EQ(sum, 5);
        if (i > 0) {
            EXPECT_LT(all[i - 1], all[i]);
        }
    }
    EXPECT_EQ(all.front(), (std::vector<int>{1, 1, 3}));
    EXPECT_EQ(all.back(), (std::vector<int>{3, 1, 1}));
}

/** Property sweep: rank/unrank are inverse bijections. */
class CompositionRoundTrip
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(CompositionRoundTrip, AtThenRankIsIdentity)
{
    const auto [units, parts] = GetParam();
    CompositionSpace s(units, parts);
    std::set<std::vector<int>> seen;
    for (std::uint64_t i = 0; i < s.size(); ++i) {
        const auto comp = s.at(i);
        EXPECT_EQ(s.rank(comp), i);
        EXPECT_TRUE(seen.emplace(comp.begin(), comp.end()).second)
            << "duplicate composition";
    }
    EXPECT_EQ(seen.size(), s.size());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CompositionRoundTrip,
    ::testing::Values(std::make_pair(4, 2), std::make_pair(7, 3),
                      std::make_pair(10, 5), std::make_pair(11, 5),
                      std::make_pair(6, 6), std::make_pair(9, 1)));

TEST(CompositionSpaceTest, SamplesAreValid)
{
    CompositionSpace s(11, 5);
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        const auto comp = s.sample(rng);
        int sum = 0;
        for (int v : comp) {
            EXPECT_GE(v, 1);
            sum += v;
        }
        EXPECT_EQ(sum, 11);
    }
}

/** A small 8/8/8 platform; part of the pinned composition digest. */
PlatformSpec
smallTestbed()
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 8);
    p.addResource(ResourceKind::LlcWays, 8);
    p.addResource(ResourceKind::MemBandwidth, 8);
    return p;
}

/** Fold @p value into a running 64-bit FNV-1a hash, low byte first. */
void
fnvMix(std::uint64_t& hash, std::uint64_t value, int bytes)
{
    for (int b = 0; b < bytes; ++b) {
        hash ^= (value >> (8 * b)) & 0xffU;
        hash *= 0x100000001b3ULL;
    }
}

std::string
hex(std::uint64_t v)
{
    char printed[32];
    std::snprintf(printed, sizeof printed, "0x%016" PRIx64 "ULL", v);
    return printed;
}

TEST(CompositionSpaceTest, EveryPlatformResourceRoundTripsAndIsPinned)
{
    // Every resource of every PlatformSpec factory, split among 1-5
    // jobs: unranking then ranking is the identity, and the
    // compositions themselves, in index order, hash to a pinned
    // digest. A change of the rank/unrank machinery must leave both
    // untouched.
    constexpr std::uint64_t kPinned = 0x7111c12949125c85ULL;
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const PlatformSpec& p :
         {PlatformSpec::paperTestbed(), smallTestbed(),
          PlatformSpec::extendedTestbed()}) {
        for (std::size_t r = 0; r < p.numResources(); ++r) {
            for (int jobs = 1; jobs <= 5; ++jobs) {
                const CompositionSpace s(p.units(r), jobs);
                for (std::uint64_t i = 0; i < s.size(); ++i) {
                    const auto comp = s.at(i);
                    ASSERT_EQ(s.rank(comp), i);
                    for (const int v : comp)
                        fnvMix(hash, static_cast<std::uint32_t>(v), 4);
                }
            }
        }
    }
    EXPECT_EQ(hash, kPinned) << "composition digest is now " << hex(hash);
}

TEST(ConfigurationSpaceTest, SampledRanksArePinned)
{
    // 10 000 uniform draws on the parsec 5-job and power-cap 5-job
    // spaces, hashed by rank: pins both the draw order of the RNG and
    // the index<->configuration bijection behind sample().
    constexpr std::uint64_t kPinned = 0xb350c0c650639f2aULL;
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const PlatformSpec& p :
         {PlatformSpec::paperTestbed(), PlatformSpec::extendedTestbed()}) {
        const ConfigurationSpace space(p, 5);
        Rng rng(1);
        for (int i = 0; i < 10000; ++i)
            fnvMix(hash, space.rank(space.sample(rng)), 8);
    }
    EXPECT_EQ(hash, kPinned) << "sampled-rank digest is now " << hex(hash);
}

TEST(ConfigurationSpaceTest, PaperSearchSpaceSizes)
{
    // Sec. II: 3 jobs x 2 resources of 10 units -> 1,296.
    PlatformSpec two;
    two.addResource(ResourceKind::Cores, 10);
    two.addResource(ResourceKind::MemBandwidth, 10);
    EXPECT_EQ(ConfigurationSpace::sizeOf(two, 3), 1296u);
    // 4 jobs -> 7,056.
    EXPECT_EQ(ConfigurationSpace::sizeOf(two, 4), 7056u);
    // Adding a third 10-unit resource -> 592,704.
    PlatformSpec three = two;
    three.addResource(ResourceKind::LlcWays, 10);
    EXPECT_EQ(ConfigurationSpace::sizeOf(three, 4), 592704u);
}

TEST(ConfigurationSpaceTest, IndexBijection)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 5);
    ConfigurationSpace space(p, 3);
    ASSERT_EQ(space.size(), binomial(5, 2) * binomial(4, 2));
    for (std::uint64_t i = 0; i < space.size(); ++i) {
        const Configuration c = space.at(i);
        EXPECT_TRUE(c.isValidFor(p, 3));
        EXPECT_EQ(space.rank(c), i);
    }
}

TEST(ConfigurationSpaceTest, SampleUniformish)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 5);
    ConfigurationSpace space(p, 2); // 4 configurations
    Rng rng(5);
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 8000; ++i)
        counts[space.rank(space.sample(rng))]++;
    for (int c : counts) {
        EXPECT_GT(c, 1700);
        EXPECT_LT(c, 2300);
    }
}

TEST(ConfigurationSpaceTest, NeighborsAreValidOneUnitMoves)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ConfigurationSpace space(p, 5);
    const Configuration c = Configuration::equalPartition(p, 5);
    const auto neighbors = space.neighbors(c);
    EXPECT_FALSE(neighbors.empty());
    for (const auto& n : neighbors) {
        EXPECT_TRUE(n.isValidFor(p, 5));
        EXPECT_EQ(Configuration::l1Distance(c, n), 2); // one move
    }
}

TEST(ConfigurationSpaceTest, NeighborsRespectMinimumUnits)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 2);
    ConfigurationSpace space(p, 2);
    const Configuration c = Configuration::equalPartition(p, 2);
    // Both jobs hold exactly one core: no transfers possible.
    EXPECT_TRUE(space.neighbors(c).empty());
}

} // namespace
} // namespace satori
