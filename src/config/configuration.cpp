#include "satori/config/configuration.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

#include "satori/common/logging.hpp"

namespace satori {

Configuration::Configuration(std::vector<std::vector<int>> alloc)
    : num_resources_(alloc.size()),
      num_jobs_(alloc.empty() ? 0 : alloc.front().size())
{
    units_.reserve(num_resources_ * num_jobs_);
    for (const auto& row : alloc) {
        SATORI_ASSERT(row.size() == num_jobs_);
        units_.insert(units_.end(), row.begin(), row.end());
    }
}

Configuration::Configuration(std::size_t num_resources,
                             std::size_t num_jobs, std::vector<int> units)
    : num_resources_(num_resources), num_jobs_(num_jobs),
      units_(std::move(units))
{
    SATORI_ASSERT(units_.size() == num_resources_ * num_jobs_);
}

int
Configuration::units(ResourceIndex r, JobIndex j) const
{
    SATORI_ASSERT(r < num_resources_ && j < num_jobs_);
    return units_[r * num_jobs_ + j];
}

int&
Configuration::units(ResourceIndex r, JobIndex j)
{
    SATORI_ASSERT(r < num_resources_ && j < num_jobs_);
    return units_[r * num_jobs_ + j];
}

std::span<const int>
Configuration::resourceRow(ResourceIndex r) const
{
    SATORI_ASSERT(r < num_resources_);
    return std::span<const int>(units_).subspan(r * num_jobs_, num_jobs_);
}

int
Configuration::totalUnits(ResourceIndex r) const
{
    const auto row = resourceRow(r);
    return std::accumulate(row.begin(), row.end(), 0);
}

bool
Configuration::isValidFor(const PlatformSpec& platform,
                          std::size_t num_jobs) const
{
    if (num_resources_ != platform.numResources())
        return false;
    if (num_resources_ > 0 && num_jobs_ != num_jobs)
        return false;
    for (std::size_t r = 0; r < num_resources_; ++r) {
        int total = 0;
        for (int u : resourceRow(r)) {
            if (u < 1)
                return false;
            total += u;
        }
        if (total != platform.units(r))
            return false;
    }
    return true;
}

Configuration
Configuration::equalPartition(const PlatformSpec& platform,
                              std::size_t num_jobs)
{
    SATORI_ASSERT(num_jobs >= 1);
    std::vector<int> alloc;
    alloc.reserve(platform.numResources() * num_jobs);
    for (std::size_t r = 0; r < platform.numResources(); ++r) {
        const int units = platform.units(r);
        if (static_cast<std::size_t>(units) < num_jobs)
            SATORI_FATAL("resource '" +
                         resourceKindName(platform.resource(r).kind) +
                         "' has fewer units than co-located jobs");
        const int base = units / static_cast<int>(num_jobs);
        const int extra = units % static_cast<int>(num_jobs);
        for (int j = 0; j < static_cast<int>(num_jobs); ++j)
            alloc.push_back(base + (j < extra ? 1 : 0));
    }
    return Configuration(platform.numResources(), num_jobs,
                         std::move(alloc));
}

void
Configuration::normalizedInto(double* out, std::size_t stride) const
{
    for (std::size_t r = 0; r < num_resources_; ++r) {
        const double total = static_cast<double>(totalUnits(r));
        for (const int u : resourceRow(r)) {
            *out = static_cast<double>(u) / total;
            out += stride;
        }
    }
}

double
Configuration::distance(const Configuration& a, const Configuration& b)
{
    SATORI_ASSERT(a.numResources() == b.numResources());
    SATORI_ASSERT(a.numJobs() == b.numJobs());
    double d2 = 0.0;
    for (std::size_t i = 0; i < a.units_.size(); ++i) {
        const double d = static_cast<double>(a.units_[i] - b.units_[i]);
        d2 += d * d;
    }
    return std::sqrt(d2);
}

int
Configuration::l1Distance(const Configuration& a, const Configuration& b)
{
    SATORI_ASSERT(a.numResources() == b.numResources());
    SATORI_ASSERT(a.numJobs() == b.numJobs());
    int d = 0;
    for (std::size_t i = 0; i < a.units_.size(); ++i)
        d += std::abs(a.units_[i] - b.units_[i]);
    return d;
}

bool
Configuration::transferUnit(ResourceIndex r, JobIndex from, JobIndex to)
{
    SATORI_ASSERT(r < num_resources_);
    SATORI_ASSERT(from < num_jobs_ && to < num_jobs_);
    int* row = units_.data() + r * num_jobs_;
    if (from == to || row[from] <= 1)
        return false;
    row[from] -= 1;
    row[to] += 1;
    return true;
}

std::string
Configuration::toString() const
{
    std::ostringstream os;
    os << "[";
    for (std::size_t r = 0; r < num_resources_; ++r) {
        if (r)
            os << "|";
        for (std::size_t j = 0; j < num_jobs_; ++j) {
            if (j)
                os << ",";
            os << units_[r * num_jobs_ + j];
        }
    }
    os << "]";
    return os.str();
}

bool
Configuration::operator==(const Configuration& other) const
{
    return num_resources_ == other.num_resources_ &&
           num_jobs_ == other.num_jobs_ && units_ == other.units_;
}

} // namespace satori
