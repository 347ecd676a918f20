/**
 * @file
 * Differential-test helper: compares two runs' per-interval records
 * (collected through ExperimentOptions::on_interval) with
 * persist::firstMismatch, the comparator the resume check uses.
 */

#ifndef SATORI_TESTS_RECORD_MATCH_HPP
#define SATORI_TESTS_RECORD_MATCH_HPP

#include <string>
#include <vector>

#include "satori/persist/wal.hpp"

namespace satori {
namespace testutil {

/**
 * "" when @p a and @p b match record for record (doubles bitwise),
 * else the first divergence as "interval N: field F".
 */
[[nodiscard]] inline std::string
firstDivergence(const std::vector<persist::IntervalRecord>& a,
                const std::vector<persist::IntervalRecord>& b)
{
    if (a.size() != b.size())
        return "record counts differ: " + std::to_string(a.size()) +
               " vs " + std::to_string(b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        if (const char* field = persist::firstMismatch(a[i], b[i]))
            return "interval " + std::to_string(i) + ": field " + field;
    return "";
}

} // namespace testutil
} // namespace satori

#endif // SATORI_TESTS_RECORD_MATCH_HPP
