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
#include "satori/linalg/matrix.hpp"
#include "satori/persist/codec.hpp"

namespace satori {
namespace bo {
namespace {

/** Pack equal-length points into the GP's row-major training block. */
linalg::Matrix
block(const std::vector<RealVec>& xs)
{
    linalg::Matrix m(xs.size(), xs.front().size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        std::copy(xs[i].begin(), xs[i].end(), m.rowPtr(i));
    return m;
}

TEST(KernelTest, SelfCovarianceIsSignalVariance)
{
    const Matern52Kernel m(0.5, 2.0);
    const RealVec x{0.1, 0.2};
    EXPECT_NEAR(m.covariance(x.data(), x.data(), 2), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(m.variance(), 2.0);
}

TEST(KernelTest, SymmetricAndDecayingWithDistance)
{
    const Matern52Kernel k(0.4);
    const RealVec a{0.0, 0.0}, b{0.2, 0.1}, c{0.9, 0.9};
    const auto cov = [&](const RealVec& p, const RealVec& q) {
        return k.covariance(p.data(), q.data(), 2);
    };
    EXPECT_DOUBLE_EQ(cov(a, b), cov(b, a));
    EXPECT_GT(cov(a, b), cov(a, c));
    EXPECT_GT(cov(a, b), 0.0);
}

TEST(KernelTest, LengthScaleControlsReach)
{
    const RealVec a{0.0}, b{0.5};
    const Matern52Kernel narrow(0.1), wide(1.0);
    EXPECT_LT(narrow.covariance(a.data(), b.data(), 1),
              wide.covariance(a.data(), b.data(), 1));
}

TEST(KernelTest, MemoKeepsCollidingSquaredDistancesApart)
{
    // Two d^2 values that share a memo slot, queried alternately (one
    // point per call, then both in one block): each lookup must return
    // its own uncached value, never its neighbour's. The same memo
    // then serves a kernel with another signal variance.
    const double q[1] = {0.0};
    double a = 0.0;
    double b = 0.0;
    bool found = false;
    for (int k = 2; !found; ++k) {
        b = k / 64.0;
        for (int j = 1; j < k && !found; ++j) {
            a = j / 64.0;
            found = RadialMemo::slotOf(a * a) == RadialMemo::slotOf(b * b);
        }
    }
    const Matern52Kernel k(0.3);
    RadialMemo memo;
    double out[4] = {};
    for (int rep = 0; rep < 3; ++rep) {
        for (double x : {a, b}) {
            const SoaPoints one(std::vector<RealVec>{{x}});
            k.covarianceCross(one, 0, 1, q, memo, out);
            EXPECT_EQ(out[0], k.covariance(q, &x, 1)) << x;
        }
    }
    const SoaPoints both(std::vector<RealVec>{{a}, {b}, {a}, {b}});
    k.covarianceCross(both, 0, 4, q, memo, out);
    for (int c = 0; c < 4; ++c) {
        const double x = c % 2 == 0 ? a : b;
        EXPECT_EQ(out[c], k.covariance(q, &x, 1)) << c;
    }
    const Matern52Kernel k2(0.3, 2.0);
    k2.covarianceCross(both, 0, 4, q, memo, out);
    for (int c = 0; c < 4; ++c) {
        const double x = c % 2 == 0 ? a : b;
        EXPECT_EQ(out[c], k2.covariance(q, &x, 1)) << c;
    }
}

TEST(GpTest, InterpolatesTrainingPointsWithLowNoise)
{
    GaussianProcess gp(Matern52Kernel(0.3), 1e-8);
    const std::vector<RealVec> xs{{0.0}, {0.5}, {1.0}};
    const std::vector<double> ys{1.0, 3.0, 2.0};
    gp.fit(block(xs), ys);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const auto p = gp.predict(xs[i]);
        EXPECT_NEAR(p.mean, ys[i], 1e-3);
        EXPECT_LT(p.stddev(), 0.05);
    }
}

TEST(GpTest, UncertaintyGrowsAwayFromData)
{
    GaussianProcess gp(Matern52Kernel(0.2), 1e-6);
    gp.fit(block({{0.0}, {0.1}}), {1.0, 1.1});
    const auto near = gp.predict({0.05});
    const auto far = gp.predict({0.9});
    EXPECT_LT(near.variance, far.variance);
}

TEST(GpTest, StandardizationHandlesLargeTargets)
{
    GaussianProcess gp(Matern52Kernel(0.3), 1e-6);
    gp.fit(block({{0.0}, {1.0}}), {1e9, 2e9});
    const auto p = gp.predict({0.0});
    EXPECT_NEAR(p.mean, 1e9, 1e7);
}

TEST(GpTest, ConstantTargetsAreSafe)
{
    GaussianProcess gp(Matern52Kernel(0.3), 1e-6);
    gp.fit(block({{0.0}, {0.5}, {1.0}}), {4.0, 4.0, 4.0});
    EXPECT_NEAR(gp.predict({0.3}).mean, 4.0, 1e-6);
}

TEST(GpTest, DuplicateInputsDoNotBreakFactorization)
{
    GaussianProcess gp(Matern52Kernel(0.3), 1e-6);
    // Same x with different noisy ys: jitter path must engage.
    gp.fit(block({{0.5}, {0.5}, {0.5}}), {1.0, 1.2, 0.8});
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
    gp.fit(block(xs), ys);
    const double lml_short = gp.logMarginalLikelihood();
    gp.fitWithLengthScaleGrid(block(xs), ys, {0.01, 0.1, 0.3, 1.0});
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
    fresh.fit(block(xs), ys);
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
        incremental.fitIncremental(block(xs), ys);
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
    incremental.fitIncremental(block(xs), ys);
    for (int step = 0; step < 10; ++step) {
        // Every other step repeats an existing input exactly.
        const RealVec x = (step % 2 == 0)
                              ? xs[static_cast<std::size_t>(step) / 2]
                              : randomPoint(rng, 2);
        xs.push_back(x);
        ys.push_back(rng.gaussian());
        incremental.fitIncremental(block(xs), ys);
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
    incremental.fitIncremental(block(xs), ys);

    for (int round = 0; round < 5; ++round) {
        for (double& y : ys)
            y = rng.gaussian(0.0, 1.0 + round);
        // Same inputs, new targets.
        incremental.fitIncremental(block(xs), ys);
        expectMatchesFreshFit(incremental, xs, ys, 0.05, rng,
                              "round " + std::to_string(round));
    }

    xs.push_back(randomPoint(rng, 3));
    ys.push_back(rng.gaussian());
    incremental.fitIncremental(block(xs), ys);
    expectMatchesFreshFit(incremental, xs, ys, 0.05, rng, "append");

    // One row longer, but row 0 moved by one ulp: only the bitwise
    // prefix check tells this from an append of the fitted block.
    xs[0][0] = std::nextafter(xs[0][0], 2.0);
    xs.push_back(randomPoint(rng, 3));
    ys.push_back(rng.gaussian());
    incremental.fitIncremental(block(xs), ys);
    expectMatchesFreshFit(incremental, xs, ys, 0.05, rng,
                          "append, row 0 one ulp off");

    // Same-size window, front popped: what a full window feeds on
    // every exploring interval.
    for (int slide = 0; slide < 3; ++slide) {
        xs.erase(xs.begin());
        ys.erase(ys.begin());
        xs.push_back(randomPoint(rng, 3));
        ys.push_back(rng.gaussian());
        incremental.fitIncremental(block(xs), ys);
        expectMatchesFreshFit(incremental, xs, ys, 0.05, rng,
                              "slide " + std::to_string(slide));
    }

    // Reactivation keeps only the most recent 30 samples.
    const std::vector<RealVec> trimmed(xs.end() - 30, xs.end());
    const std::vector<double> trimmed_y(ys.end() - 30, ys.end());
    incremental.fitIncremental(block(trimmed), trimmed_y);
    expectMatchesFreshFit(incremental, trimmed, trimmed_y, 0.05, rng,
                          "trim");
}

/** A 5-dimension point on the 1/8 grid, like unit-share inputs: its
 * squared distances to other grid points repeat. */
RealVec
gridPoint(Rng& rng)
{
    RealVec x(5);
    for (double& v : x)
        v = static_cast<double>(rng.uniformInt(9)) / 8.0;
    return x;
}

/** Batch (twice) and means-only predictions equal looped predict(). */
void
expectBatchMatchesPredict(const GaussianProcess& gp,
                          const std::vector<RealVec>& queries,
                          const std::string& what)
{
    const SoaPoints packed(queries);
    std::vector<GpPrediction> out;
    std::vector<double> means;
    for (int pass = 0; pass < 2; ++pass) {
        gp.predictBatchInto(packed, out);
        ASSERT_EQ(out.size(), queries.size());
        for (std::size_t q = 0; q < queries.size(); ++q) {
            const auto single = gp.predict(queries[q]);
            EXPECT_EQ(out[q].mean, single.mean) << what << " " << q;
            EXPECT_EQ(out[q].variance, single.variance) << what << " " << q;
        }
    }
    gp.predictMeansInto(packed, means);
    ASSERT_EQ(means.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q)
        EXPECT_EQ(means[q], gp.predict(queries[q]).mean) << what << " " << q;
}

TEST(GpIncrementalTest, PredictBatchMatchesLoopedPredict)
{
    // Continuous random points never repeat a squared distance; points
    // on the 1/8 grid repeat them heavily, so there the batch paths
    // answer most kernel entries from the radial memo (across both
    // candidate blocks and across calls).
    Rng rng(555);
    for (const bool grid : {false, true}) {
        const auto point = [&] {
            return grid ? gridPoint(rng) : randomPoint(rng, 5);
        };
        std::vector<RealVec> xs;
        std::vector<double> ys;
        for (int i = 0; i < (grid ? 30 : 20); ++i) {
            xs.push_back(point());
            ys.push_back(rng.gaussian());
        }
        GaussianProcess gp(Matern52Kernel(0.5), 0.05);
        gp.fit(block(xs), ys);

        std::vector<RealVec> queries;
        for (int q = 0; q < (grid ? 300 : 33); ++q)
            queries.push_back(point());
        expectBatchMatchesPredict(gp, queries, grid ? "grid" : "random");
    }
}

TEST(GpRepeatTest, RepeatedTrainingRowsMatchLoopedPredict)
{
    // Repeats of the row before at row 0, in the middle and at the
    // last row (the batch paths copy those K* rows), plus a row one
    // ulp away from its predecessor in its last coordinate, which
    // must be computed. Two candidate blocks.
    Rng rng(2024);
    std::vector<RealVec> xs;
    const auto add = [&](const RealVec& x, int times) {
        for (int t = 0; t < times; ++t)
            xs.push_back(x);
    };
    add(randomPoint(rng, 5), 3);
    add(randomPoint(rng, 5), 1);
    add(randomPoint(rng, 5), 4);
    RealVec near = xs.back();
    near.back() = std::nextafter(near.back(), 2.0);
    add(near, 1);
    add(randomPoint(rng, 5), 1);
    add(randomPoint(rng, 5), 2);
    std::vector<double> ys;
    for (std::size_t i = 0; i < xs.size(); ++i)
        ys.push_back(rng.gaussian());
    GaussianProcess gp(Matern52Kernel(0.5), 0.05);
    gp.fit(block(xs), ys);

    std::vector<RealVec> queries;
    for (int q = 0; q < 300; ++q)
        queries.push_back(randomPoint(rng, 5));
    // The ulp row must be told apart: some query's covariance with it
    // differs from the one with its predecessor.
    const std::size_t ulp_row = 8;
    ASSERT_EQ(xs[ulp_row], near);
    const bool tells_apart =
        std::any_of(queries.begin(), queries.end(), [&](const RealVec& q) {
            return gp.kernel().covariance(q.data(), xs[ulp_row].data(), 5) !=
                   gp.kernel().covariance(q.data(),
                                          xs[ulp_row - 1].data(), 5);
        });
    ASSERT_TRUE(tells_apart);
    expectBatchMatchesPredict(gp, queries, "repeats");
}

TEST(GpMemoTest, BatchAfterGridRefitMatchesPredictAtNewLengthScale)
{
    // A warm memo from one length scale must not answer for another:
    // after a grid refit moves the length scale (the grid leaves out
    // the starting 0.5), the same queries meet the same d^2 bits, and
    // the batch must equal predict() at the new kernel.
    Rng rng(88);
    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (int i = 0; i < 30; ++i) {
        xs.push_back(gridPoint(rng));
        ys.push_back(std::sin(3.0 * xs.back()[0]) + xs.back()[1]);
    }
    std::vector<RealVec> queries;
    for (int q = 0; q < 100; ++q)
        queries.push_back(gridPoint(rng));
    GaussianProcess gp(Matern52Kernel(0.5), 0.05);
    gp.fit(block(xs), ys);
    expectBatchMatchesPredict(gp, queries, "before");
    gp.fitWithLengthScaleGrid(block(xs), ys, {0.15, 0.3, 1.0});
    expectBatchMatchesPredict(gp, queries, "after");
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
    grid_gp.fitWithLengthScaleGrid(block(xs), ys, {0.05, 0.2, 0.5, 1.0});
    EXPECT_GT(grid_gp.kernel().lengthScale(), 0.05);
    expectMatchesFreshFit(grid_gp, xs, ys, 1e-4, rng, "grid");

    // The grid GP remains incrementally updatable afterwards.
    xs.push_back({1.1});
    ys.push_back(0.5);
    grid_gp.fitIncremental(block(xs), ys);
    expectMatchesFreshFit(grid_gp, xs, ys, 1e-4, rng, "grid append");
}

TEST(EngineIncrementalTest, RestoredFullFitMatchesLiveSuggestions)
{
    // The engine-level pin of the snapshot recipe: over the
    // training-set shapes the controller feeds (appends, a sliding
    // full window, a reactivation trim, a grid refit every 20th fit),
    // an engine restored from the live engine's saved bytes and given
    // the live engine's next training set - one full fit on an
    // unfitted GP - suggests and predicts exactly as the live engine's
    // incremental update does.
    //
    // Inputs and candidates are unit-share configurations packed the
    // way the controller packs them, so the live engine scores from a
    // warm radial memo and the restored one from a cold memo: the two
    // must still agree exactly.
    Rng rng(2718);
    BoEngine live;
    const ConfigurationSpace space(PlatformSpec::paperTestbed(), 3);
    const auto shares = [](const Configuration& c) {
        RealVec x(c.unitBuffer().size());
        c.normalizedInto(x.data(), 1);
        return x;
    };

    std::vector<Configuration> configs;
    for (int c = 0; c < 24; ++c)
        configs.push_back(space.sample(rng));
    const SoaPoints packed(configs);
    std::vector<RealVec> candidates;
    for (const Configuration& c : configs)
        candidates.push_back(shares(c));

    std::vector<RealVec> xs;
    std::vector<double> ys;
    const auto step = [&](const std::string& what) {
        persist::StateWriter w;
        live.saveState(w);
        persist::StateReader r(w.bytes(), "engine-recipe");
        BoEngine restored;
        restored.restoreState(r);
        EXPECT_FALSE(restored.ready()) << what;
        live.setSamples(block(xs), ys);
        restored.setSamples(block(xs), ys);
        EXPECT_EQ(live.suggestIndex(packed), restored.suggestIndex(packed))
            << what;
        for (const RealVec& c : candidates) {
            const auto pl = live.predict(c);
            const auto pr = restored.predict(c);
            EXPECT_EQ(pl.mean, pr.mean) << what;
            EXPECT_EQ(pl.variance, pr.variance) << what;
        }
    };
    for (int i = 0; i < 30; ++i) {
        xs.push_back(shares(space.sample(rng)));
        ys.push_back(rng.gaussian());
        step("append " + std::to_string(i));
    }
    for (int i = 0; i < 5; ++i) {
        xs.erase(xs.begin());
        ys.erase(ys.begin());
        xs.push_back(shares(space.sample(rng)));
        ys.push_back(rng.gaussian());
        step("slide " + std::to_string(i));
    }
    xs.erase(xs.begin(), xs.end() - 10);
    ys.erase(ys.begin(), ys.end() - 10);
    step("trim");
    xs.push_back(shares(space.sample(rng)));
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
        engine.setSamples(block(xs), ys);
    }
    std::vector<RealVec> candidates;
    for (int i = 0; i <= 50; ++i)
        candidates.push_back({i / 50.0});
    const std::size_t pick = engine.suggestIndex(SoaPoints(candidates));
    EXPECT_NEAR(candidates[pick][0], 0.7, 0.25);
}

TEST(EngineTest, BestObservedTracksMaximum)
{
    BoEngine engine;
    engine.setSamples(block({{0.0}, {0.5}, {1.0}}), {1.0, 5.0, 3.0});
    EXPECT_DOUBLE_EQ(engine.bestObserved(), 5.0);
    EXPECT_EQ(engine.numSamples(), 3u);
}

TEST(EngineTest, SetSamplesReplacesHistory)
{
    BoEngine engine;
    engine.setSamples(block({{0.0}}), {1.0});
    engine.setSamples(block({{0.2}, {0.4}}), {2.0, 3.0});
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
    gp.fit(block(xs), ys);

    std::vector<RealVec> queries;
    std::vector<double> qys;
    makeDataset(700, 3, 42, queries, qys);

    std::vector<GpPrediction> full;
    const SoaPoints packed(queries);
    gp.predictBatchInto(packed, full);
    std::vector<double> means;
    gp.predictMeansInto(packed, means);
    ASSERT_EQ(means.size(), full.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(means[i], full[i].mean) << i;
}

TEST(EngineTest, StateRoundTripsThroughPersist)
{
    std::vector<RealVec> xs;
    std::vector<double> ys;
    makeDataset(31, 2, 96, xs, ys);
    std::vector<RealVec> candidates;
    std::vector<double> cys;
    makeDataset(60, 2, 97, candidates, cys);

    // The saved engine is its recipe, whatever the training-set size.
    BoEngine engine;
    std::size_t bytes_at_20 = 0;
    for (std::size_t n = 1; n <= 30; ++n) {
        engine.setSamples(block({xs.begin(), xs.begin() + n}),
                          {ys.begin(), ys.begin() + n});
        if (n == 20) {
            persist::StateWriter w20;
            engine.saveState(w20);
            bytes_at_20 = w20.bytes().size();
        }
    }
    persist::StateWriter w;
    engine.saveState(w);
    EXPECT_EQ(w.bytes().size(), bytes_at_20);

    persist::StateReader r(w.bytes(), "engine-roundtrip");
    BoEngine restored;
    restored.restoreState(r);
    EXPECT_FALSE(restored.ready());
    engine.setSamples(block(xs), ys);
    restored.setSamples(block(xs), ys);
    EXPECT_EQ(restored.numSamples(), engine.numSamples());
    EXPECT_EQ(restored.bestObserved(), engine.bestObserved());
    const SoaPoints packed(candidates);
    EXPECT_EQ(restored.suggestIndex(packed), engine.suggestIndex(packed));
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
