/**
 * @file
 * Calibration regression tests: pin down the substrate behaviours the
 * paper-reproduction benchmarks rely on, so future model edits that
 * would silently break an experiment's premise fail here instead.
 */

#include <gtest/gtest.h>

#include "satori/satori.hpp"

namespace satori {
namespace {

workloads::WorkloadProfile
byName(const char* name)
{
    return workloads::workloadByName(name);
}

TEST(CalibrationTest, CannealHasAWorkingSetCliff)
{
    // The Fig. 8 mix analysis and the ablation rely on canneal being
    // unable to profit from one extra way below its knee.
    const auto canneal = byName("canneal");
    const auto& phase = canneal.phases[0]; // anneal-hot
    const double drop_below = phase.mrc.mpki(2) - phase.mrc.mpki(3);
    const double drop_across = phase.mrc.mpki(5) - phase.mrc.mpki(8);
    EXPECT_GT(drop_across, 4.0 * std::max(drop_below, 1e-9));
}

TEST(CalibrationTest, BlackscholesPhasesDisagreeOnBandwidth)
{
    // Fig. 1's drift comes from blackscholes flipping between a
    // bandwidth-hungry sweep and a lighter repricing phase.
    const auto bs = byName("blackscholes");
    ASSERT_GE(bs.phases.size(), 2u);
    const double bw_sweep =
        bs.phases[0].mrc.floorMpki() * bs.phases[0].bytes_per_miss;
    const double bw_reprice =
        bs.phases[1].mrc.floorMpki() * bs.phases[1].bytes_per_miss;
    EXPECT_GT(bw_sweep, 1.5 * bw_reprice);
}

TEST(CalibrationTest, PhaseChangeMovesTheThroughputOptimum)
{
    // The premise of Fig. 1: the exhaustive throughput optimum is not
    // static across the canonical mix's phase signatures.
    const PlatformSpec platform = PlatformSpec::paperTestbed();
    auto server = harness::makeServer(
        platform,
        workloads::mixOf({"blackscholes", "canneal", "fluidanimate",
                          "freqmine", "streamcluster"}),
        42);
    harness::OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig_a{0, 0, 0, 0, 0};
    const std::vector<std::size_t> sig_b{1, 0, 0, 0, 0};
    const auto& opt_a = eval.bestFor(sig_a, 1.0, 0.0);
    const auto& opt_b = eval.bestFor(sig_b, 1.0, 0.0);
    EXPECT_GT(Configuration::l1Distance(opt_a.config, opt_b.config), 4);
}

TEST(CalibrationTest, ThroughputAndFairnessOptimaConflict)
{
    // The premise of Fig. 2 / Observation 2.
    const PlatformSpec platform = PlatformSpec::paperTestbed();
    auto server = harness::makeServer(
        platform,
        workloads::mixOf({"blackscholes", "canneal", "fluidanimate",
                          "freqmine", "streamcluster"}),
        42);
    harness::OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(5, 0);
    const auto& t_opt = eval.bestFor(sig, 1.0, 0.0);
    const auto& f_opt = eval.bestFor(sig, 0.0, 1.0);
    // Cross-goal degradation of at least ~10% each way.
    EXPECT_LT(t_opt.fairness, 0.92 * f_opt.fairness);
    EXPECT_LT(f_opt.throughput, 0.92 * t_opt.throughput);
}

TEST(CalibrationTest, EqualPartitionIsNotOptimal)
{
    // If the equal partition were optimal there would be nothing to
    // learn; every headline figure assumes a real optimization gap.
    const PlatformSpec platform = PlatformSpec::paperTestbed();
    auto server = harness::makeServer(
        platform, workloads::mixOf({"canneal", "swaptions", "vips",
                                    "streamcluster", "freqmine"}),
        42);
    harness::OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(5, 0);
    const auto& best = eval.bestFor(sig, 0.5, 0.5);
    const auto [t, f] = eval.metricsFor(
        Configuration::equalPartition(platform, 5), sig);
    EXPECT_GT(best.objective, (0.5 * t + 0.5 * f) + 0.02);
}

TEST(CalibrationTest, PhaseResidencySupportsSettling)
{
    // SATORI's settle/reactivate cycle assumes phases persist for
    // several seconds under co-location; verify the shortest phase of
    // every workload lasts >= 4 s at a plausible co-located IPS.
    for (const auto* suite : {"parsec", "cloudsuite", "ecp"}) {
        for (const auto& w : workloads::suiteByName(suite)) {
            for (const auto& p : w.phases) {
                const double colocated_ips = 6e9; // generous upper bound
                EXPECT_GE(p.length / colocated_ips, 4.0)
                    << w.name << "/" << p.label;
            }
        }
    }
}

TEST(CalibrationTest, NoiseLevelIsMeaningfulButBounded)
{
    // Baselines judge moves from epoch means of ~5-10 samples; the
    // default noise must neither vanish nor swamp typical move
    // effects (1-5% objective change).
    const sim::ServerOptions opt;
    EXPECT_GE(opt.noise_sigma, 0.01);
    EXPECT_LE(opt.noise_sigma, 0.10);
}

TEST(CalibrationTest, MiniFeAndSwfftBothWantTheCache)
{
    // The ECP analysis (Fig. 11) attributes the hardest mix to
    // miniFE and SWFFT's joint LLC appetite.
    const auto minife_w = byName("minife");
    const auto swfft_w = byName("swfft");
    const auto& minife = minife_w.phases[0];
    const auto& swfft = swfft_w.phases[0];
    // Both lose a lot of MPKI when given the full cache vs one way.
    EXPECT_GT(minife.mrc.mpki(1) - minife.mrc.mpki(11), 15.0);
    EXPECT_GT(swfft.mrc.mpki(1) - swfft.mrc.mpki(11), 15.0);
}

TEST(CalibrationTest, SwaptionsIsComputeBound)
{
    const auto swaptions = byName("swaptions");
    const auto& s = swaptions.phases[0];
    EXPECT_LT(s.mrc.mpki(1), 5.0);
    EXPECT_GT(s.base_ipc, 1.5);
}

} // namespace
} // namespace satori
