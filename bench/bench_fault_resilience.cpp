/**
 * @file
 * Fault resilience: hardened SATORI vs the paper's vanilla controller
 * under the default escalating fault plan (telemetry corruption, then
 * actuation failures, then churn - see faults::FaultPlan::escalating).
 *
 * Both controllers run the same mixes clean and faulted with identical
 * seeds; the scoreboard is the retained fraction of each controller's
 * OWN fault-free balanced objective 0.5 * (throughput + fairness), so
 * the capacity genuinely removed by real faults (core offlining,
 * crashes) penalizes both sides equally. The claim: the resilience
 * layer (telemetry guard + actuation retry + degraded fallback) keeps
 * >= 85% of the clean objective while vanilla measurably degrades.
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace satori;

namespace {

struct RunScore
{
    double throughput = 0.0;
    double fairness = 0.0;

    double balanced() const
    {
        return 0.5 * (throughput + fairness);
    }
};

RunScore
runOne(const PlatformSpec& platform, const workloads::JobMix& mix,
       const std::string& policy_name, Seconds duration,
       const faults::FaultPlan* plan, std::uint64_t fault_seed,
       faults::FaultStats* stats_out = nullptr)
{
    sim::SimulatedServer server = harness::makeServer(platform, mix);
    auto policy = harness::makePolicy(policy_name, server);

    harness::ExperimentOptions opt;
    opt.duration = duration;

    std::optional<faults::FaultInjector> injector;
    if (plan != nullptr) {
        injector.emplace(*plan, fault_seed);
        opt.faults = &*injector;
    }

    const harness::ExperimentRunner runner(opt);
    const auto result = runner.run(server, *policy, mix.label);
    if (injector && stats_out != nullptr)
        *stats_out = injector->stats();
    return RunScore{result.mean_throughput, result.mean_fairness};
}

} // namespace

int
main(int argc, char** argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner(
        "Fault resilience: hardened vs vanilla SATORI under faults",
        "Hardened SATORI retains >= 85% of its fault-free balanced "
        "objective under the escalating fault plan; the paper's "
        "vanilla controller measurably degrades.",
        opt);

    const PlatformSpec platform = PlatformSpec::paperTestbed();
    const Seconds duration = opt.full ? 60.0 : 30.0;
    const double dt = 0.1;
    const auto horizon =
        static_cast<std::size_t>(duration / dt);
    const std::uint64_t fault_seed = 0xFA17;

    std::vector<workloads::JobMix> mixes;
    mixes.push_back(workloads::mixOf(
        {"canneal", "streamcluster", "vips"}));
    mixes.push_back(bench::canonicalParsecMix());
    if (opt.full)
        mixes.push_back(workloads::mixOf(
            {"blackscholes", "fluidanimate", "web_search",
             "swaptions"}));

    TablePrinter table({"mix", "policy", "clean", "faulted",
                        "retained"});
    std::optional<CsvWriter> csv_file;
    if (opt.csv)
        csv_file.emplace(
            "bench_fault_resilience.csv",
            std::vector<std::string>{"mix", "policy", "clean_balanced",
                                     "faulted_balanced",
                                     "retained_pct"});

    double worst_hardened = 1.0;
    double sum_hardened = 0.0;
    double sum_vanilla = 0.0;

    struct Row
    {
        const char* label;
        const char* policy;
    };
    const Row rows[] = {{"SATORI (hardened)", "SATORI"},
                        {"SATORI (vanilla)", "SATORI-vanilla"},
                        {"Equal", "Equal"}};

    // Each mix's runs are independent: compute them on the worker
    // pool into per-mix slots, then fold and print in mix order so
    // the report matches the serial loop exactly.
    struct MixOutcome
    {
        RunScore clean[3];
        RunScore faulted[3];
        faults::FaultStats stats;
    };
    std::vector<MixOutcome> outcomes(mixes.size());
    common::parallelFor(mixes.size(), opt.threads, [&](std::size_t m) {
        const auto& mix = mixes[m];
        const auto plan =
            faults::FaultPlan::escalating(mix.jobs.size(), horizon);
        for (std::size_t r = 0; r < 3; ++r) {
            outcomes[m].clean[r] = runOne(platform, mix, rows[r].policy,
                                          duration, nullptr, fault_seed);
            outcomes[m].faulted[r] =
                runOne(platform, mix, rows[r].policy, duration, &plan,
                       fault_seed, &outcomes[m].stats);
        }
    });

    for (std::size_t m = 0; m < mixes.size(); ++m) {
        const auto& mix = mixes[m];
        for (std::size_t r = 0; r < 3; ++r) {
            const Row& row = rows[r];
            const RunScore& clean = outcomes[m].clean[r];
            const RunScore& faulted = outcomes[m].faulted[r];
            const double retained =
                faulted.balanced() / clean.balanced();
            table.addRow({mix.label, row.label,
                          TablePrinter::num(clean.balanced(), 4),
                          TablePrinter::num(faulted.balanced(), 4),
                          bench::pct(retained)});
            if (csv_file)
                csv_file->addRow(
                    {mix.label, row.label,
                     TablePrinter::num(clean.balanced(), 4),
                     TablePrinter::num(faulted.balanced(), 4),
                     TablePrinter::num(retained * 100.0, 2)});
            if (std::string(row.policy) == "SATORI") {
                worst_hardened = std::min(worst_hardened, retained);
                sum_hardened += retained;
            } else if (std::string(row.policy) == "SATORI-vanilla") {
                sum_vanilla += retained;
            }
        }
        std::printf("  %s faults: %s\n", mix.label.c_str(),
                    outcomes[m].stats.toString().c_str());
    }
    table.print();

    const auto n = static_cast<double>(mixes.size());
    std::printf("\nHardened retention: mean %s, worst %s "
                "(target >= 85%%)\n",
                bench::pct(sum_hardened / n).c_str(),
                bench::pct(worst_hardened).c_str());
    std::printf("Vanilla retention:  mean %s\n",
                bench::pct(sum_vanilla / n).c_str());
    std::printf("Hardening advantage: %+.1f points of retained "
                "balanced objective\n",
                100.0 * (sum_hardened - sum_vanilla) / n);

    const bool pass = worst_hardened >= 0.85 &&
                      sum_hardened > sum_vanilla;
    std::printf("\n%s\n", pass ? "PASS: hardened SATORI meets the "
                                 "85% retention target and beats "
                                 "vanilla under faults."
                               : "FAIL: resilience target missed.");
    return pass ? 0 : 1;
}
