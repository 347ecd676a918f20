#include "satori/workloads/profile.hpp"

namespace satori {
namespace workloads {

perfmodel::PhaseParams
makePhase(std::string label, double base_ipc, double parallel_fraction,
          double mpki_one, double mpki_floor, double mrc_decay_ways,
          double miss_penalty_cycles, double bytes_per_miss,
          Instructions length)
{
    perfmodel::PhaseParams p;
    p.label = std::move(label);
    p.base_ipc = base_ipc;
    p.parallel_fraction = parallel_fraction;
    p.mrc = perfmodel::MissRatioCurve::exponential(mpki_one, mpki_floor,
                                                   mrc_decay_ways);
    p.miss_penalty_cycles = miss_penalty_cycles;
    p.bytes_per_miss = bytes_per_miss;
    p.length = length;
    return p;
}

perfmodel::PhaseParams
makeCliffPhase(std::string label, double base_ipc,
               double parallel_fraction, double mpki_one,
               double mpki_floor, double knee_ways, double cliff_width,
               double miss_penalty_cycles, double bytes_per_miss,
               Instructions length)
{
    perfmodel::PhaseParams p;
    p.label = std::move(label);
    p.base_ipc = base_ipc;
    p.parallel_fraction = parallel_fraction;
    p.mrc = perfmodel::MissRatioCurve::sCurve(mpki_one, mpki_floor,
                                              knee_ways, cliff_width);
    p.miss_penalty_cycles = miss_penalty_cycles;
    p.bytes_per_miss = bytes_per_miss;
    p.length = length;
    return p;
}

} // namespace workloads
} // namespace satori
