#include "satori/sim/job.hpp"

#include "satori/common/logging.hpp"
#include "satori/persist/codec.hpp"

namespace satori {
namespace sim {

Job::Job(workloads::WorkloadProfile profile)
    : profile_(std::move(profile)), phases_(profile_.phases)
{
    SATORI_ASSERT(profile_.fixed_work > 0);
}

const perfmodel::PhaseParams&
Job::currentPhase() const
{
    return phases_.current();
}

std::size_t
Job::currentPhaseIndex() const
{
    return phases_.currentIndex();
}

void
Job::retire(Instructions n)
{
    SATORI_ASSERT(n >= 0);
    phases_.advance(n);
    total_retired_ += n;
    run_retired_ += n;
    while (run_retired_ >= profile_.fixed_work) {
        run_retired_ -= profile_.fixed_work;
        ++completed_runs_;
    }
}

void
Job::reset()
{
    phases_.reset();
    total_retired_ = 0;
    run_retired_ = 0;
    completed_runs_ = 0;
}

void
Job::saveState(persist::StateWriter& w) const
{
    w.putSize(phases_.currentIndex());
    w.putDouble(phases_.progressInPhase());
    w.putDouble(total_retired_);
    w.putDouble(run_retired_);
    w.putU64(completed_runs_);
}

void
Job::restoreState(persist::StateReader& r)
{
    const std::size_t index = r.getSize();
    const Instructions progress = r.getDouble();
    phases_.seek(index, progress);
    total_retired_ = r.getDouble();
    run_retired_ = r.getDouble();
    completed_runs_ = r.getU64();
}

} // namespace sim
} // namespace satori
