#include "satori/bo/candidates.hpp"

#include <bit>
#include <limits>

#include "satori/common/logging.hpp"

namespace satori {
namespace bo {

namespace {

/** Uniform random candidates per round. */
constexpr std::size_t kNumRandom = 256;

/**
 * Membership-only set of configuration ranks with room for a known
 * number of inserts: one flat open-addressing table (linear probing,
 * at most half full) instead of one heap node per rank.
 */
class RankSet
{
  public:
    explicit RankSet(std::size_t capacity)
        : slots_(std::bit_ceil(2 * capacity + 1), kEmpty),
          shift_(64 - std::countr_zero(slots_.size())), capacity_(capacity)
    {
    }

    /** Insert @p rank; false if it was already present. */
    bool insert(std::uint64_t rank)
    {
        const std::size_t mask = slots_.size() - 1;
        // Fibonacci hashing spreads neighbouring ranks across slots.
        std::size_t i = static_cast<std::size_t>(
            (rank * 0x9e3779b97f4a7c15ULL) >> shift_);
        for (; slots_[i] != kEmpty; i = (i + 1) & mask)
            if (slots_[i] == rank)
                return false;
        SATORI_ASSERT(size_ < capacity_);
        slots_[i] = rank;
        ++size_;
        return true;
    }

  private:
    /** Never a rank: every space is smaller than 2^64 - 1. */
    static constexpr std::uint64_t kEmpty =
        std::numeric_limits<std::uint64_t>::max();

    std::vector<std::uint64_t> slots_;
    int shift_;
    std::size_t capacity_;
    std::size_t size_ = 0;
};

} // namespace

CandidateGenerator::CandidateGenerator(const ConfigurationSpace& space,
                                       CandidateOptions options)
    : space_(space), options_(options)
{
    if (options_.include_structured) {
        structured_ = seedConfigurations();
        for (auto& c : concentratedConfigurations())
            structured_.push_back(std::move(c));
    }
}

std::vector<Configuration>
CandidateGenerator::seedConfigurations() const
{
    std::vector<Configuration> seeds;
    const Configuration equal = Configuration::equalPartition(
        space_.platform(), space_.numJobs());
    seeds.push_back(equal);
    // Low-imbalance variants: a single unit of a single resource moved
    // between adjacent jobs. These keep the per-job share across
    // resources nearly balanced, which the paper identifies as "good"
    // starting points.
    for (std::size_t r = 0; r < space_.platform().numResources(); ++r) {
        for (JobIndex j = 0; j + 1 < space_.numJobs(); ++j) {
            Configuration c = equal;
            if (c.transferUnit(r, j, j + 1))
                seeds.push_back(c);
            Configuration d = equal;
            if (d.transferUnit(r, j + 1, j))
                seeds.push_back(d);
        }
    }
    return seeds;
}

std::vector<Configuration>
CandidateGenerator::generate(const Configuration& incumbent, Rng& rng) const
{
    std::vector<Configuration> neighbors = space_.neighbors(incumbent);
    const std::size_t most =
        kNumRandom + neighbors.size() + structured_.size();
    std::vector<Configuration> out;
    out.reserve(most);
    // `seen` is queried only for membership — the emitted order is the
    // insertion order of `out`, so candidate lists replay exactly for a
    // given (incumbent, rng state) regardless of the table layout.
    RankSet seen(most);
    for (std::size_t i = 0; i < kNumRandom; ++i) {
        ConfigurationSpace::Ranked s = space_.sampleRanked(rng);
        if (seen.insert(s.rank))
            out.push_back(std::move(s.config));
    }
    for (auto& n : neighbors)
        if (seen.insert(space_.rank(n)))
            out.push_back(std::move(n));
    for (const auto& s : structured_)
        if (seen.insert(space_.rank(s)))
            out.push_back(s);
    SATORI_ASSERT(!out.empty());
    return out;
}

std::vector<Configuration>
CandidateGenerator::concentratedConfigurations() const
{
    std::vector<Configuration> out;
    const std::size_t jobs = space_.numJobs();
    if (jobs < 2)
        return out; // nothing to concentrate with a single job
    const Configuration equal = Configuration::equalPartition(
        space_.platform(), space_.numJobs());
    for (std::size_t r = 0; r < space_.platform().numResources(); ++r) {
        const int units = space_.platform().units(r);
        const int spare = units - static_cast<int>(jobs);
        if (spare <= 0)
            continue;
        for (JobIndex j = 0; j < jobs; ++j) {
            for (double share : {0.5, 1.0}) {
                // Give job j `share` of what is left after every
                // other job keeps one unit; spread the rest evenly.
                const int take =
                    1 + static_cast<int>(
                            share * static_cast<double>(spare));
                Configuration c = equal;
                std::vector<int> row(jobs, 1);
                row[j] = take;
                int rest = units - take - static_cast<int>(jobs - 1);
                std::size_t k = 0;
                while (rest > 0) {
                    if (k != j) {
                        row[k] += 1;
                        --rest;
                    }
                    k = (k + 1) % jobs;
                }
                for (JobIndex q = 0; q < jobs; ++q)
                    c.units(r, q) = row[q];
                if (!(c == equal))
                    out.push_back(std::move(c));
            }
        }
    }
    return out;
}

} // namespace bo
} // namespace satori
