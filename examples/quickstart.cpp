/**
 * @file
 * Quickstart: co-locate three PARSEC jobs on the paper's testbed,
 * let SATORI partition cores / LLC ways / memory bandwidth for 30
 * simulated seconds, and compare against static equal partitioning.
 */

#include <cstdio>

#include "satori/satori.hpp"

int
main()
{
    using namespace satori;

    // The paper's server: 10 cores, 11 LLC ways (Intel CAT), 10
    // memory-bandwidth units (Intel MBA).
    const PlatformSpec platform = PlatformSpec::paperTestbed();

    // Three jobs with conflicting appetites: cache-hungry canneal,
    // bandwidth-hungry streamcluster, balanced vips.
    const workloads::JobMix mix =
        workloads::mixOf({"canneal", "streamcluster", "vips"});

    harness::ExperimentOptions options;
    options.duration = 30.0;
    const harness::ExperimentRunner runner(options);

    // --- SATORI -----------------------------------------------------
    sim::SimulatedServer server = harness::makeServer(platform, mix);
    core::SatoriController satori(platform, server.numJobs());
    const auto satori_result = runner.run(server, satori, mix.label);

    // --- Static equal partitioning (unmanaged) ----------------------
    sim::SimulatedServer server2 = harness::makeServer(platform, mix);
    policies::EqualPartitionPolicy equal(platform, server2.numJobs());
    const auto equal_result = runner.run(server2, equal, mix.label);

    std::printf("Co-located mix: %s\n", mix.label.c_str());
    std::printf("Simulated %.0f s at %.1f ms controller intervals\n\n",
                options.duration, options.dt * 1e3);

    TablePrinter table({"policy", "throughput (norm)", "fairness (Jain)",
                        "worst-job speedup"});
    for (const auto* r : {&satori_result, &equal_result}) {
        table.addRow({r->policy_name, TablePrinter::num(r->mean_throughput, 3),
                      TablePrinter::num(r->mean_fairness, 3),
                      TablePrinter::num(r->worst_job_speedup, 3)});
    }
    table.print();

    const double dt = satori_result.mean_throughput -
                      equal_result.mean_throughput;
    const double df = satori_result.mean_fairness -
                      equal_result.mean_fairness;
    std::printf("\nSATORI vs Equal: %+.1f%% throughput, %+.1f%% "
                "fairness\n",
                dt * 100.0, df * 100.0);
    return 0;
}
