/**
 * @file
 * Tests for the analytic performance model: miss-ratio curves, phase
 * sequencing, and the CPI/Amdahl/bandwidth composition.
 */

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/perfmodel/mrc.hpp"
#include "satori/perfmodel/perf.hpp"
#include "satori/perfmodel/phase.hpp"

namespace satori {
namespace perfmodel {
namespace {

TEST(MrcTest, ExponentialEndpointsAndMonotonicity)
{
    const auto mrc = MissRatioCurve::exponential(30.0, 2.0, 4.0);
    EXPECT_NEAR(mrc.mpki(1), 30.0, 1e-9);
    EXPECT_NEAR(mrc.floorMpki(), 2.0, 1e-9);
    for (int w = 1; w < 20; ++w)
        EXPECT_GE(mrc.mpki(w), mrc.mpki(w + 1));
    EXPECT_NEAR(mrc.mpki(100), 2.0, 1e-6);
}

TEST(MrcTest, TableLookupAndClamp)
{
    const auto mrc = MissRatioCurve::table({10.0, 6.0, 3.0});
    EXPECT_DOUBLE_EQ(mrc.mpki(1), 10.0);
    EXPECT_DOUBLE_EQ(mrc.mpki(3), 3.0);
    EXPECT_DOUBLE_EQ(mrc.mpki(9), 3.0); // clamp to last entry
}

TEST(MrcTest, TableRejectsIncreasingValues)
{
    EXPECT_THROW(MissRatioCurve::table({1.0, 2.0}), PanicError);
}

TEST(MrcTest, ContinuousInterpolationBetweenWays)
{
    const auto mrc = MissRatioCurve::table({10.0, 6.0, 3.0});
    EXPECT_NEAR(mrc.mpkiAt(1.5), 8.0, 1e-12);
    EXPECT_NEAR(mrc.mpkiAt(2.5), 4.5, 1e-12);
}

TEST(MrcTest, SCurveHasCliffAtKnee)
{
    const auto mrc = MissRatioCurve::sCurve(25.0, 3.0, 6.0, 0.8);
    EXPECT_NEAR(mrc.mpki(1), 25.0, 1e-9);
    // Well below the knee the curve is nearly flat...
    const double drop_before = mrc.mpki(2) - mrc.mpki(3);
    // ...and falls steeply across the knee.
    const double drop_across = mrc.mpki(5) - mrc.mpki(7);
    EXPECT_GT(drop_across, 5.0 * std::max(drop_before, 1e-9));
    // Beyond the knee it approaches the floor.
    EXPECT_NEAR(mrc.mpki(12), 3.0, 0.5);
    for (int w = 1; w < 15; ++w)
        EXPECT_GE(mrc.mpki(w), mrc.mpki(w + 1));
}

TEST(PhaseSequenceTest, AdvanceWrapsCyclically)
{
    PhaseParams a, b;
    a.label = "a";
    a.length = 100;
    b.label = "b";
    b.length = 50;
    PhaseSequence seq({a, b});
    EXPECT_EQ(seq.current().label, "a");
    seq.advance(99);
    EXPECT_EQ(seq.current().label, "a");
    seq.advance(1);
    EXPECT_EQ(seq.current().label, "b");
    seq.advance(50); // wraps back to a
    EXPECT_EQ(seq.current().label, "a");
    EXPECT_EQ(seq.currentIndex(), 0u);
}

TEST(PhaseSequenceTest, LargeAdvanceCrossesMultipleBoundaries)
{
    PhaseParams a, b;
    a.length = 10;
    b.length = 10;
    PhaseSequence seq({a, b});
    seq.advance(35); // 3.5 cycles of a phase -> lands in phase b
    EXPECT_EQ(seq.currentIndex(), 1u);
    EXPECT_DOUBLE_EQ(seq.progressInPhase(), 5.0);
}

TEST(PhaseSequenceTest, EmptyOrInvalidRejected)
{
    EXPECT_THROW(PhaseSequence({}), FatalError);
    PhaseParams zero;
    zero.length = 0;
    EXPECT_THROW(PhaseSequence({zero}), FatalError);
}

TEST(AmdahlTest, KnownValues)
{
    EXPECT_DOUBLE_EQ(amdahlSpeedup(0.0, 8), 1.0);
    EXPECT_DOUBLE_EQ(amdahlSpeedup(1.0, 8), 8.0);
    EXPECT_NEAR(amdahlSpeedup(0.5, 2), 1.0 / 0.75, 1e-12);
}

PhaseParams
uncoupledPhase()
{
    PhaseParams p;
    p.base_ipc = 1.5;
    p.parallel_fraction = 0.9;
    p.mrc = MissRatioCurve::exponential(20.0, 4.0, 3.0);
    p.cache_pressure = 0.0; // disable coupling for monotonicity tests
    p.miss_penalty_cycles = 150.0;
    p.bytes_per_miss = 80.0;
    return p;
}

TEST(PerfModelTest, MoreCoresMoreIpsWithoutCoupling)
{
    const auto phase = uncoupledPhase();
    const MachineParams m = MachineParams::paperLike();
    double prev = 0.0;
    for (int c = 1; c <= 10; ++c) {
        AllocationView a{c, 11, 1.0, 1.0};
        const double ips = evaluatePhase(phase, m, a).ips;
        EXPECT_GT(ips, prev) << "cores=" << c;
        prev = ips;
    }
}

TEST(PerfModelTest, MoreWaysNeverHurt)
{
    const auto phase = uncoupledPhase();
    const MachineParams m = MachineParams::paperLike();
    double prev = 0.0;
    for (int w = 1; w <= 11; ++w) {
        AllocationView a{4, w, 1.0, 1.0};
        const double ips = evaluatePhase(phase, m, a).ips;
        EXPECT_GE(ips, prev) << "ways=" << w;
        prev = ips;
    }
}

TEST(PerfModelTest, BandwidthCapBindsStreamingPhase)
{
    PhaseParams phase = uncoupledPhase();
    phase.mrc = MissRatioCurve::exponential(25.0, 20.0, 2.0);
    phase.bytes_per_miss = 110.0;
    const MachineParams m = MachineParams::paperLike();
    const AllocationView starved{8, 4, 0.05, 1.0};
    const auto r = evaluatePhase(phase, m, starved);
    EXPECT_TRUE(r.bw_limited);
    EXPECT_NEAR(r.bw_used_gbps, 0.05 * m.peak_bw_gbps, 1e-9);
    // Doubling the bandwidth share ~doubles IPS while the cap binds.
    const AllocationView fed{8, 4, 0.1, 1.0};
    const auto r2 = evaluatePhase(phase, m, fed);
    ASSERT_TRUE(r2.bw_limited);
    EXPECT_NEAR(r2.ips / r.ips, 2.0, 0.01);
}

TEST(PerfModelTest, ComputePhaseIgnoresBandwidth)
{
    PhaseParams phase = uncoupledPhase();
    phase.mrc = MissRatioCurve::exponential(0.5, 0.2, 2.0);
    const MachineParams m = MachineParams::paperLike();
    const auto lo = evaluatePhase(phase, m, {4, 4, 0.1, 1.0});
    const auto hi = evaluatePhase(phase, m, {4, 4, 1.0, 1.0});
    EXPECT_FALSE(lo.bw_limited);
    EXPECT_NEAR(lo.ips, hi.ips, 1e-6);
}

TEST(PerfModelTest, CachePressureCouplesCoresAndWays)
{
    PhaseParams phase = uncoupledPhase();
    phase.cache_pressure = 0.4;
    const MachineParams m = MachineParams::paperLike();
    // With few ways, adding cores raises the miss rate.
    const auto few_cores = evaluatePhase(phase, m, {1, 3, 1.0, 1.0});
    const auto many_cores = evaluatePhase(phase, m, {8, 3, 1.0, 1.0});
    EXPECT_GT(many_cores.mpki, few_cores.mpki);
}

TEST(PerfModelTest, PowerCapScalesPerformance)
{
    const auto phase = uncoupledPhase();
    const MachineParams m = MachineParams::paperLike();
    const auto full = evaluatePhase(phase, m, {4, 8, 1.0, 1.0});
    AllocationView capped{4, 8, 1.0, 0.5};
    const auto half = evaluatePhase(phase, m, capped);
    EXPECT_LT(half.ips, full.ips);
    // Above the fair share there is no boost (min with 1).
    AllocationView over{4, 8, 1.0, 2.0};
    EXPECT_NEAR(evaluatePhase(phase, m, over).ips, full.ips, 1e-6);
}

/** Property: IPS is always finite and positive over the whole grid. */
class PerfGridProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(PerfGridProperty, IpsPositiveAndFinite)
{
    const auto [c, w, b] = GetParam();
    PhaseParams phase;
    phase.base_ipc = 1.0;
    phase.mrc = MissRatioCurve::sCurve(30.0, 3.0, 5.0, 1.0);
    phase.cache_pressure = 0.3;
    const MachineParams m = MachineParams::paperLike();
    AllocationView a{c, w, b / 10.0, 1.0};
    const auto r = evaluatePhase(phase, m, a);
    EXPECT_TRUE(std::isfinite(r.ips));
    EXPECT_GT(r.ips, 0.0);
    EXPECT_GE(r.bw_demand_gbps, r.bw_used_gbps - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PerfGridProperty,
    ::testing::Combine(::testing::Values(1, 3, 6, 10),
                       ::testing::Values(1, 4, 8, 11),
                       ::testing::Values(1, 5, 10)));

} // namespace
} // namespace perfmodel
} // namespace satori
