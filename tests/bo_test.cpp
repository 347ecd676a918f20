/**
 * @file
 * Tests for the Bayesian-optimization stack: kernels, the Gaussian
 * process, acquisition functions, candidate generation, and the
 * engine's suggestion behaviour.
 */

#include <cmath>

#include <algorithm>
#include <set>
#include <string>
#include <gtest/gtest.h>

#include "satori/bo/acquisition.hpp"
#include "satori/bo/candidates.hpp"
#include "satori/bo/engine.hpp"
#include "satori/bo/gp.hpp"
#include "satori/bo/kernel.hpp"
#include "satori/common/rng.hpp"
#include "satori/config/enumeration.hpp"
#include "satori/persist/codec.hpp"

namespace satori {
namespace bo {
namespace {

TEST(KernelTest, SelfCovarianceIsSignalVariance)
{
    const Matern52Kernel m(0.5, 2.0);
    const RealVec x{0.1, 0.2};
    EXPECT_NEAR(m.covariance(x, x), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(m.variance(), 2.0);
}

TEST(KernelTest, SymmetricAndDecayingWithDistance)
{
    const Matern52Kernel k(0.4);
    const RealVec a{0.0, 0.0}, b{0.2, 0.1}, c{0.9, 0.9};
    EXPECT_DOUBLE_EQ(k.covariance(a, b), k.covariance(b, a));
    EXPECT_GT(k.covariance(a, b), k.covariance(a, c));
    EXPECT_GT(k.covariance(a, b), 0.0);
}

TEST(KernelTest, LengthScaleControlsReach)
{
    const RealVec a{0.0}, b{0.5};
    const Matern52Kernel narrow(0.1), wide(1.0);
    EXPECT_LT(narrow.covariance(a, b), wide.covariance(a, b));
}

TEST(GpTest, InterpolatesTrainingPointsWithLowNoise)
{
    GaussianProcess gp(Matern52Kernel(0.3), 1e-8);
    const std::vector<RealVec> xs{{0.0}, {0.5}, {1.0}};
    const std::vector<double> ys{1.0, 3.0, 2.0};
    gp.fit(xs, ys);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const auto p = gp.predict(xs[i]);
        EXPECT_NEAR(p.mean, ys[i], 1e-3);
        EXPECT_LT(p.stddev(), 0.05);
    }
}

TEST(GpTest, UncertaintyGrowsAwayFromData)
{
    GaussianProcess gp(Matern52Kernel(0.2), 1e-6);
    gp.fit({{0.0}, {0.1}}, {1.0, 1.1});
    const auto near = gp.predict({0.05});
    const auto far = gp.predict({0.9});
    EXPECT_LT(near.variance, far.variance);
}

TEST(GpTest, StandardizationHandlesLargeTargets)
{
    GaussianProcess gp(Matern52Kernel(0.3), 1e-6);
    gp.fit({{0.0}, {1.0}}, {1e9, 2e9});
    const auto p = gp.predict({0.0});
    EXPECT_NEAR(p.mean, 1e9, 1e7);
}

TEST(GpTest, ConstantTargetsAreSafe)
{
    GaussianProcess gp(Matern52Kernel(0.3), 1e-6);
    gp.fit({{0.0}, {0.5}, {1.0}}, {4.0, 4.0, 4.0});
    EXPECT_NEAR(gp.predict({0.3}).mean, 4.0, 1e-6);
}

TEST(GpTest, DuplicateInputsDoNotBreakFactorization)
{
    GaussianProcess gp(Matern52Kernel(0.3), 1e-6);
    // Same x with different noisy ys: jitter path must engage.
    gp.fit({{0.5}, {0.5}, {0.5}}, {1.0, 1.2, 0.8});
    const auto p = gp.predict({0.5});
    EXPECT_NEAR(p.mean, 1.0, 0.1);
}

TEST(GpTest, LengthScaleGridImprovesMarginalLikelihood)
{
    // Data drawn from a smooth function: a too-short length scale
    // should lose to a well-matched one under the LML criterion.
    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 10; ++i) {
        const double x = i / 10.0;
        xs.push_back({x});
        ys.push_back(std::sin(3.0 * x));
    }
    GaussianProcess gp(Matern52Kernel(0.01), 1e-4);
    gp.fit(xs, ys);
    const double lml_short = gp.logMarginalLikelihood();
    gp.fitWithLengthScaleGrid(xs, ys, {0.01, 0.1, 0.3, 1.0});
    EXPECT_GE(gp.logMarginalLikelihood(), lml_short);
    EXPECT_GT(gp.kernel().lengthScale(), 0.01);
}

/** Deterministic pseudo-random d-dim input. */
RealVec
randomPoint(Rng& rng, std::size_t dims)
{
    RealVec x(dims);
    for (double& v : x)
        v = rng.uniform();
    return x;
}

/**
 * Bitwise agreement of @p gp with a from-scratch fit of (xs, ys) at
 * the same kernel: log marginal likelihood plus the posterior at a
 * few random probes.
 */
void
expectMatchesFreshFit(const GaussianProcess& gp,
                      const std::vector<RealVec>& xs,
                      const std::vector<double>& ys, double noise,
                      Rng& rng, const std::string& what)
{
    GaussianProcess fresh(gp.kernel(), noise);
    fresh.fit(xs, ys);
    ASSERT_EQ(gp.numSamples(), fresh.numSamples()) << what;
    EXPECT_EQ(gp.logMarginalLikelihood(), fresh.logMarginalLikelihood())
        << what;
    for (int p = 0; p < 6; ++p) {
        const RealVec probe = randomPoint(rng, xs.front().size());
        const auto pi = gp.predict(probe);
        const auto pf = fresh.predict(probe);
        EXPECT_EQ(pi.mean, pf.mean) << what;
        EXPECT_EQ(pi.variance, pf.variance) << what;
    }
}

TEST(GpIncrementalTest, FitIncrementalAppendMatchesFullRefitBitwise)
{
    // Randomized appends, including a duplicated input (SPD-failure
    // fallback) and a 1e6 target-scale shift: the incremental GP must
    // match a from-scratch fit at every step - bitwise, because
    // decision-trace stability depends on it.
    Rng rng(31337);
    const std::size_t dims = 4;
    std::vector<RealVec> xs;
    std::vector<double> ys;

    GaussianProcess incremental(Matern52Kernel(0.5), 0.05);
    for (std::size_t step = 0; step < 40; ++step) {
        RealVec x;
        if (step == 15) {
            x = xs[3]; // exact duplicate
        } else {
            x = randomPoint(rng, dims);
        }
        double y = rng.gaussian();
        if (step >= 30)
            y *= 1e6; // violent target-scale shift
        xs.push_back(x);
        ys.push_back(y);
        incremental.fitIncremental(xs, ys);
        expectMatchesFreshFit(incremental, xs, ys, 0.05, rng,
                              "step " + std::to_string(step));
    }
}

TEST(GpIncrementalTest, NearSingularDuplicatesStillMatchFullRefit)
{
    // Vanishing noise + duplicated inputs: the rank-1 append either
    // succeeds with the same pivot arithmetic a fresh factorization
    // would run, or refuses and falls back to the jitter-escalated
    // refactorization. Both must equal the from-scratch fit bitwise.
    Rng rng(99);
    GaussianProcess incremental(Matern52Kernel(0.5), 1e-12);
    std::vector<RealVec> xs{randomPoint(rng, 2)};
    std::vector<double> ys{rng.gaussian()};
    incremental.fitIncremental(xs, ys);
    for (int step = 0; step < 10; ++step) {
        // Every other step repeats an existing input exactly.
        const RealVec x = (step % 2 == 0)
                              ? xs[static_cast<std::size_t>(step) / 2]
                              : randomPoint(rng, 2);
        xs.push_back(x);
        ys.push_back(rng.gaussian());
        incremental.fitIncremental(xs, ys);
        expectMatchesFreshFit(incremental, xs, ys, 1e-12, rng,
                              "step " + std::to_string(step));
    }
}

TEST(GpIncrementalTest, FitIncrementalRefreshesTargetsOnSameInputs)
{
    // The training-set shapes the controller feeds: re-weighted
    // targets on the same inputs, one appended sample, a full window
    // that drops its oldest sample as it takes a new one, and a
    // reactivation trim. Only the append takes the rank-1 path; every
    // shape must agree with a full fit exactly.
    Rng rng(4242);
    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (int i = 0; i < 40; ++i) {
        xs.push_back(randomPoint(rng, 3));
        ys.push_back(rng.gaussian());
    }
    GaussianProcess incremental(Matern52Kernel(0.5), 0.05);
    incremental.fitIncremental(xs, ys);

    for (int round = 0; round < 5; ++round) {
        for (double& y : ys)
            y = rng.gaussian(0.0, 1.0 + round);
        incremental.fitIncremental(xs, ys); // same inputs, new targets
        expectMatchesFreshFit(incremental, xs, ys, 0.05, rng,
                              "round " + std::to_string(round));
    }

    xs.push_back(randomPoint(rng, 3));
    ys.push_back(rng.gaussian());
    incremental.fitIncremental(xs, ys);
    expectMatchesFreshFit(incremental, xs, ys, 0.05, rng, "append");

    // Same-size window, front popped: what a full window feeds on
    // every exploring interval.
    for (int slide = 0; slide < 3; ++slide) {
        xs.erase(xs.begin());
        ys.erase(ys.begin());
        xs.push_back(randomPoint(rng, 3));
        ys.push_back(rng.gaussian());
        incremental.fitIncremental(xs, ys);
        expectMatchesFreshFit(incremental, xs, ys, 0.05, rng,
                              "slide " + std::to_string(slide));
    }

    // Reactivation keeps only the most recent 30 samples.
    const std::vector<RealVec> trimmed(xs.end() - 30, xs.end());
    const std::vector<double> trimmed_y(ys.end() - 30, ys.end());
    incremental.fitIncremental(trimmed, trimmed_y);
    expectMatchesFreshFit(incremental, trimmed, trimmed_y, 0.05, rng,
                          "trim");
}

TEST(GpIncrementalTest, PredictBatchMatchesLoopedPredict)
{
    Rng rng(555);
    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (int i = 0; i < 20; ++i) {
        xs.push_back(randomPoint(rng, 5));
        ys.push_back(rng.gaussian());
    }
    GaussianProcess gp(Matern52Kernel(0.5), 0.05);
    gp.fit(xs, ys);

    std::vector<RealVec> queries;
    for (int q = 0; q < 33; ++q)
        queries.push_back(randomPoint(rng, 5));

    // Two passes through the same scratch: no cross-talk between calls.
    std::vector<GpPrediction> out;
    gp.predictBatchInto(queries, out);
    gp.predictBatchInto(queries, out);
    ASSERT_EQ(out.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto single = gp.predict(queries[q]);
        EXPECT_EQ(out[q].mean, single.mean) << q;
        EXPECT_EQ(out[q].variance, single.variance) << q;
    }
}

TEST(GpIncrementalTest, GridFitCachingMatchesDirectBestFit)
{
    // fitWithLengthScaleGrid restores the best candidate's cached
    // state instead of re-fitting; the result must equal a direct fit
    // at the winning length scale exactly.
    Rng rng(808);
    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 12; ++i) {
        const double x = i / 12.0;
        xs.push_back({x});
        ys.push_back(std::sin(3.0 * x) + 0.01 * rng.gaussian());
    }
    GaussianProcess grid_gp(Matern52Kernel(0.05), 1e-4);
    grid_gp.fitWithLengthScaleGrid(xs, ys, {0.05, 0.2, 0.5, 1.0});
    EXPECT_GT(grid_gp.kernel().lengthScale(), 0.05);
    expectMatchesFreshFit(grid_gp, xs, ys, 1e-4, rng, "grid");

    // The grid GP remains incrementally updatable afterwards.
    xs.push_back({1.1});
    ys.push_back(0.5);
    grid_gp.fitIncremental(xs, ys);
    expectMatchesFreshFit(grid_gp, xs, ys, 1e-4, rng, "grid append");
}

TEST(EngineIncrementalTest, IncrementalToggleDoesNotChangeSuggestions)
{
    // The engine-level pin: the training-set shapes the controller
    // feeds (appends, a sliding full window, a reactivation trim) give
    // identical suggestions and predictions with the fast path on and
    // off.
    Rng rng(2718);
    bo::EngineOptions fast_opt;
    fast_opt.incremental = true;
    bo::EngineOptions slow_opt = fast_opt;
    slow_opt.incremental = false;
    BoEngine fast(fast_opt);
    BoEngine slow(slow_opt);

    std::vector<RealVec> candidates;
    for (int c = 0; c < 24; ++c)
        candidates.push_back(randomPoint(rng, 3));

    std::vector<RealVec> xs;
    std::vector<double> ys;
    const auto step = [&](const std::string& what) {
        fast.setSamples(xs, ys);
        slow.setSamples(xs, ys);
        EXPECT_EQ(fast.suggestIndex(candidates),
                  slow.suggestIndex(candidates))
            << what;
        const auto pf = fast.predict(candidates[0]);
        const auto ps = slow.predict(candidates[0]);
        EXPECT_EQ(pf.mean, ps.mean) << what;
        EXPECT_EQ(pf.variance, ps.variance) << what;
    };
    for (int i = 0; i < 30; ++i) {
        xs.push_back(randomPoint(rng, 3));
        ys.push_back(rng.gaussian());
        step("append " + std::to_string(i));
    }
    for (int i = 0; i < 5; ++i) {
        xs.erase(xs.begin());
        ys.erase(ys.begin());
        xs.push_back(randomPoint(rng, 3));
        ys.push_back(rng.gaussian());
        step("slide " + std::to_string(i));
    }
    xs.erase(xs.begin(), xs.end() - 10);
    ys.erase(ys.begin(), ys.end() - 10);
    step("trim");
    xs.push_back(randomPoint(rng, 3));
    ys.push_back(rng.gaussian());
    step("append after trim");
}

TEST(AcquisitionTest, EiZeroWhenNoImprovementPossible)
{
    GpPrediction p;
    p.mean = 0.0;
    p.variance = 0.0;
    EXPECT_DOUBLE_EQ(expectedImprovement(p, 1.0), 0.0);
}

TEST(AcquisitionTest, EiPositiveWithUncertainty)
{
    GpPrediction p;
    p.mean = 0.0;
    p.variance = 1.0;
    EXPECT_GT(expectedImprovement(p, 0.5), 0.0);
}

TEST(AcquisitionTest, EiPrefersHigherMeanAtEqualUncertainty)
{
    GpPrediction lo, hi;
    lo.mean = 0.2;
    hi.mean = 0.8;
    lo.variance = hi.variance = 0.04;
    EXPECT_GT(expectedImprovement(hi, 0.5),
              expectedImprovement(lo, 0.5));
}

TEST(EngineTest, SuggestsNearMaximumOfSimpleFunction)
{
    // f(x) = -(x - 0.7)^2: after a handful of samples the engine
    // should point near 0.7 rather than the far corner.
    BoEngine engine;
    Rng rng(11);
    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (int i = 0; i < 20; ++i) {
        const double x = rng.uniform();
        xs.push_back({x});
        ys.push_back(-(x - 0.7) * (x - 0.7));
        engine.setSamples(xs, ys);
    }
    std::vector<RealVec> candidates;
    for (int i = 0; i <= 50; ++i)
        candidates.push_back({i / 50.0});
    const std::size_t pick = engine.suggestIndex(candidates);
    EXPECT_NEAR(candidates[pick][0], 0.7, 0.25);
}

TEST(EngineTest, BestObservedTracksMaximum)
{
    BoEngine engine;
    engine.setSamples({{0.0}, {0.5}, {1.0}}, {1.0, 5.0, 3.0});
    EXPECT_DOUBLE_EQ(engine.bestObserved(), 5.0);
    EXPECT_EQ(engine.numSamples(), 3u);
}

TEST(EngineTest, SetSamplesReplacesHistory)
{
    BoEngine engine;
    engine.setSamples({{0.0}}, {1.0});
    engine.setSamples({{0.2}, {0.4}}, {2.0, 3.0});
    EXPECT_EQ(engine.numSamples(), 2u);
    EXPECT_DOUBLE_EQ(engine.bestObserved(), 3.0);
}

TEST(CandidatesTest, SeedsIncludeEqualPartitionAndAreValid)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ConfigurationSpace space(p, 5);
    CandidateGenerator gen(space);
    const auto seeds = gen.seedConfigurations();
    ASSERT_FALSE(seeds.empty());
    EXPECT_TRUE(seeds.front() ==
                Configuration::equalPartition(p, 5));
    for (const auto& s : seeds)
        EXPECT_TRUE(s.isValidFor(p, 5));
}

TEST(CandidatesTest, GenerateIsDeduplicatedAndValid)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ConfigurationSpace space(p, 5);
    CandidateGenerator gen(space);
    Rng rng(3);
    const Configuration incumbent = Configuration::equalPartition(p, 5);
    const auto cands = gen.generate(incumbent, rng);
    ASSERT_FALSE(cands.empty());
    std::set<std::uint64_t> ranks;
    for (const auto& c : cands) {
        EXPECT_TRUE(c.isValidFor(p, 5));
        EXPECT_TRUE(ranks.insert(space.rank(c)).second)
            << "duplicate candidate";
    }
}

TEST(CandidatesTest, GenerateReplaysExactlyAcrossInstances)
{
    // The emitted candidate order must depend only on (incumbent, rng
    // state), never on unordered_set bucket layout: two independent
    // generators with identically seeded Rngs produce identical lists.
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ConfigurationSpace space(p, 5);
    const Configuration incumbent = Configuration::equalPartition(p, 5);

    CandidateGenerator gen_a(space);
    CandidateGenerator gen_b(space);
    Rng rng_a(17);
    Rng rng_b(17);
    const auto cands_a = gen_a.generate(incumbent, rng_a);
    const auto cands_b = gen_b.generate(incumbent, rng_b);

    ASSERT_EQ(cands_a.size(), cands_b.size());
    for (std::size_t i = 0; i < cands_a.size(); ++i)
        EXPECT_TRUE(cands_a[i] == cands_b[i]) << "divergence at " << i;
}

// --- batched prediction and engine state ----------------------------

namespace {

/** n pseudo-random inputs in [0,1)^dims with a smooth target. */
void
makeDataset(std::size_t n, std::size_t dims, std::uint64_t seed,
            std::vector<RealVec>& xs, std::vector<double>& ys)
{
    Rng rng(seed);
    xs.clear();
    ys.clear();
    for (std::size_t i = 0; i < n; ++i) {
        RealVec x(dims);
        for (std::size_t d = 0; d < dims; ++d)
            x[d] = rng.uniform();
        double y = std::sin(3.0 * x[0]);
        for (std::size_t d = 1; d < dims; ++d)
            y += 0.3 * std::cos(4.0 * x[d]);
        xs.push_back(std::move(x));
        ys.push_back(y);
    }
}

} // namespace

TEST(GpBatchTest, MeansOnlyPassMatchesFullPredictionMeans)
{
    // probeMeans relies on this: the means-only sweep skips the
    // variance solve but produces bit-identical means, across several
    // candidate blocks.
    std::vector<RealVec> xs;
    std::vector<double> ys;
    makeDataset(40, 3, 41, xs, ys);
    GaussianProcess gp(Matern52Kernel(0.5), 0.05);
    gp.fit(xs, ys);

    std::vector<RealVec> queries;
    std::vector<double> qys;
    makeDataset(700, 3, 42, queries, qys);

    std::vector<GpPrediction> full;
    gp.predictBatchInto(queries, full);
    std::vector<double> means;
    gp.predictMeansInto(queries, means);
    ASSERT_EQ(means.size(), full.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(means[i], full[i].mean) << i;
}

TEST(EngineTest, StateRoundTripsThroughPersist)
{
    std::vector<RealVec> xs;
    std::vector<double> ys;
    makeDataset(30, 2, 96, xs, ys);
    std::vector<RealVec> candidates;
    std::vector<double> cys;
    makeDataset(60, 2, 97, candidates, cys);

    EngineOptions options;
    options.length_scale_grid.clear();
    BoEngine engine(options);
    for (std::size_t n = 20; n <= xs.size(); ++n)
        engine.setSamples({xs.begin(), xs.begin() + n},
                          {ys.begin(), ys.begin() + n});

    persist::StateWriter w;
    engine.saveState(w);
    persist::StateReader r(w.bytes(), "engine-roundtrip");
    BoEngine restored(options);
    restored.restoreState(r);
    EXPECT_EQ(restored.numSamples(), engine.numSamples());
    EXPECT_DOUBLE_EQ(restored.bestObserved(), engine.bestObserved());
    EXPECT_EQ(restored.suggestIndex(candidates),
              engine.suggestIndex(candidates));
}

TEST(CandidatesTest, ConcentratedConfigurationsCoverEveryJob)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ConfigurationSpace space(p, 5);
    CandidateGenerator gen(space);
    const auto conc = gen.concentratedConfigurations();
    ASSERT_FALSE(conc.empty());
    for (const auto& c : conc)
        EXPECT_TRUE(c.isValidFor(p, 5));
    // Some configuration hands one job a large share of the LLC.
    bool found_heavy = false;
    for (const auto& c : conc)
        for (std::size_t j = 0; j < 5; ++j)
            found_heavy |= (c.units(1, j) >= 7);
    EXPECT_TRUE(found_heavy);
}

} // namespace
} // namespace bo
} // namespace satori
