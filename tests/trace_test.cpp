/**
 * @file
 * Tests for the experiment trace writer (CSV and JSON Lines) and its
 * integration with the experiment runner.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/harness/trace.hpp"
#include "satori/policies/equal_policy.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace harness {
namespace {

persist::IntervalRecord
sampleRecord()
{
    persist::IntervalRecord rec;
    rec.time = 1.5;
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    rec.config = Configuration::equalPartition(p, 2);
    rec.ips = {1e9, 2e9};
    rec.speedups = {0.5, 0.6};
    rec.throughput = 0.55;
    rec.fairness = 0.99;
    rec.faults = "spike(j0)";
    return rec;
}

std::vector<std::string>
linesOf(const std::string& path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(TraceWriterTest, CsvHasHeaderAndRow)
{
    const std::string path = "/tmp/satori_trace_test.csv";
    {
        TraceWriter w(path, TraceFormat::Csv);
        w.write(sampleRecord(), "TestPolicy");
        w.write(sampleRecord(), "TestPolicy");
        EXPECT_EQ(w.count(), 2u);
        w.flush();
    }
    const auto lines = linesOf(path);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("time,policy,config"), std::string::npos);
    EXPECT_NE(lines[0].find("ips_0"), std::string::npos);
    EXPECT_NE(lines[0].find("speedup_1"), std::string::npos);
    EXPECT_NE(lines[0].find(",faults"), std::string::npos);
    EXPECT_NE(lines[1].find("TestPolicy"), std::string::npos);
    EXPECT_NE(lines[1].find("\"[2,2]\""), std::string::npos);
    EXPECT_NE(lines[1].find(",\"spike(j0)\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceWriterTest, JsonLinesAreWellFormedObjects)
{
    const std::string path = "/tmp/satori_trace_test.jsonl";
    {
        TraceWriter w(path, TraceFormat::JsonLines);
        w.write(sampleRecord(), "TestPolicy");
        w.flush();
    }
    const auto lines = linesOf(path);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].front(), '{');
    EXPECT_EQ(lines[0].back(), '}');
    EXPECT_NE(lines[0].find("\"policy\":\"TestPolicy\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"speedups\":[0.5,0.6]"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceWriterTest, BadPathThrows)
{
    EXPECT_THROW(TraceWriter("/nonexistent/dir/x.csv",
                             TraceFormat::Csv),
                 FatalError);
}

TEST(TraceWriterTest, RunnerIntegrationWritesOneRecordPerInterval)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    auto server = makeServer(
        p, workloads::mixOf({"canneal", "swaptions"}), 5);
    policies::EqualPartitionPolicy policy(p, 2);

    const std::string path = "/tmp/satori_trace_runner.csv";
    std::remove(path.c_str());
    TraceWriter trace(path, TraceFormat::Csv);
    ExperimentOptions opt;
    opt.duration = 2.0;
    opt.trace = &trace;
    (void)ExperimentRunner(opt).run(server, policy, "");
    // The final file only appears once the writer is closed (records
    // stream into "<path>.tmp" until then).
    trace.close();

    EXPECT_EQ(trace.count(), 20u);
    const auto lines = linesOf(path);
    EXPECT_EQ(lines.size(), 21u); // header + 20 intervals
    std::remove(path.c_str());
}

} // namespace
} // namespace harness
} // namespace satori
