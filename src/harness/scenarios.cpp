#include "satori/harness/scenarios.hpp"

#include "satori/common/logging.hpp"
#include "satori/policies/clite_policy.hpp"
#include "satori/policies/copart_policy.hpp"
#include "satori/policies/dcat_policy.hpp"
#include "satori/policies/equal_policy.hpp"
#include "satori/policies/oracle_policy.hpp"
#include "satori/policies/parties_policy.hpp"
#include "satori/policies/random_policy.hpp"

namespace satori {
namespace harness {

sim::SimulatedServer
makeServer(const PlatformSpec& platform, const workloads::JobMix& mix,
           std::uint64_t seed, double noise_sigma)
{
    sim::ServerOptions options;
    options.seed = seed;
    options.noise_sigma = noise_sigma;
    return sim::SimulatedServer(platform,
                                perfmodel::MachineParams::paperLike(),
                                mix.jobs, options);
}

std::unique_ptr<policies::PartitioningPolicy>
makePolicy(const std::string& name, const sim::SimulatedServer& server,
           core::SatoriOptions satori_options)
{
    const PlatformSpec& platform = server.platform();
    const std::size_t jobs = server.numJobs();

    if (name == "Equal") {
        return std::make_unique<policies::EqualPartitionPolicy>(platform,
                                                                jobs);
    }
    if (name == "Random") {
        return std::make_unique<policies::RandomPolicy>(platform, jobs);
    }
    if (name == "dCAT") {
        return std::make_unique<policies::DCatPolicy>(platform, jobs);
    }
    if (name == "CoPart") {
        return std::make_unique<policies::CoPartPolicy>(platform, jobs);
    }
    if (name == "PARTIES") {
        return std::make_unique<policies::PartiesPolicy>(platform, jobs);
    }
    if (name == "CLITE") {
        return std::make_unique<policies::ClitePolicy>(platform, jobs);
    }
    if (name == "SATORI" || name == "SATORI-vanilla" ||
        name == "SATORI-static" || name == "Throughput-SATORI" ||
        name == "Fairness-SATORI") {
        if (name == "SATORI") {
            satori_options.mode = core::GoalMode::Balanced;
        } else if (name == "SATORI-vanilla") {
            // The paper's controller without the resilience layer:
            // the baseline bench_fault_resilience degrades.
            satori_options.mode = core::GoalMode::Balanced;
            satori_options.hardened = false;
        } else if (name == "SATORI-static")
            satori_options.mode = core::GoalMode::StaticEqual;
        else if (name == "Throughput-SATORI")
            satori_options.mode = core::GoalMode::ThroughputOnly;
        else
            satori_options.mode = core::GoalMode::FairnessOnly;
        return std::make_unique<core::SatoriController>(platform, jobs,
                                                        satori_options);
    }
    if (name == "Balanced-Oracle") {
        return std::make_unique<policies::OraclePolicy>(
            server, policies::OracleKind::Balanced);
    }
    if (name == "Throughput-Oracle") {
        return std::make_unique<policies::OraclePolicy>(
            server, policies::OracleKind::Throughput);
    }
    if (name == "Fairness-Oracle") {
        return std::make_unique<policies::OraclePolicy>(
            server, policies::OracleKind::Fairness);
    }
    SATORI_FATAL("unknown policy name: " + name);
}

std::vector<std::string>
comparisonPolicyNames()
{
    return {"Random", "dCAT", "CoPart", "PARTIES", "SATORI"};
}

} // namespace harness
} // namespace satori
