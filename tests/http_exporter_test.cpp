/**
 * @file
 * Tests for the embedded HTTP exporter: golden /metrics body against
 * MetricsRegistry::prometheusText(), /healthz status transitions
 * (ok -> 503 under SLO breach), malformed-request status codes via
 * handleRequest (no socket needed), the real-socket lifecycle with an
 * ephemeral port + clean shutdown, and the sacred invariant that a
 * live scraper mid-run leaves the decision trace byte-identical.
 */

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "record_match.hpp"
#include "satori/common/logging.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/obs/http_exporter.hpp"
#include "satori/obs/obs.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace obs {
namespace {

/** Build "GET <target> HTTP/1.1" request bytes. */
std::string
getRequest(const std::string& target)
{
    return "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
}

/** The status code of a full HTTP response. */
int
statusOf(const std::string& response)
{
    std::istringstream in(response);
    std::string http;
    int status = 0;
    in >> http >> status;
    return status;
}

/** The body (everything after the header terminator). */
std::string
bodyOf(const std::string& response)
{
    const auto pos = response.find("\r\n\r\n");
    return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

// --- Routing and bodies (no socket) -----------------------------------

TEST(HttpExporterTest, MetricsBodyMatchesPrometheusText)
{
    Observability& o = observability();
    o.resetAll();
    o.setMetricsEnabled(true);
    o.lib().bo_fits.inc(3);

    HttpExporter exporter(o);
    const std::string response =
        exporter.handleRequest(getRequest("/metrics"));
    EXPECT_EQ(statusOf(response), 200);
    EXPECT_NE(response.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_EQ(bodyOf(response), o.metrics().snapshot().prometheusText());
    EXPECT_NE(bodyOf(response).find("satori_bo_fits 3"), std::string::npos);
    o.resetAll();
}

TEST(HttpExporterTest, HealthzTransitionsFromOkTo503OnSloBreach)
{
    Observability& o = observability();
    o.resetAll();
    o.setMetricsEnabled(true);
    o.setLiveEnabled(true);
    o.history().setEnabled(true);
    HttpExporter exporter(o);

    // Healthy: no breach, no degradation.
    o.onHarnessInterval(0, 0.1, {1.0, 1.0}, 2.0, 0.9);
    std::string response = exporter.handleRequest(getRequest("/healthz"));
    EXPECT_EQ(statusOf(response), 200);
    EXPECT_NE(bodyOf(response).find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(bodyOf(response).find("\"intervals\":1"), std::string::npos);

    // Install an always-breaching rule; the next interval flips it.
    o.watchdog().configure(
        SloSpec::parse("facts.throughput > 0.0 for 1\n"));
    o.onHarnessInterval(1, 0.2, {1.0, 1.0}, 2.0, 0.9);
    response = exporter.handleRequest(getRequest("/healthz"));
    EXPECT_EQ(statusOf(response), 503);
    EXPECT_NE(bodyOf(response).find("\"status\":\"breaching\""),
              std::string::npos);
    EXPECT_EQ(o.lib().slo_breaches.value(), 1u);
    o.resetAll();
}

TEST(HttpExporterTest, HistoryEndpointServesPointsStatsAndRates)
{
    Observability& o = observability();
    o.resetAll();
    o.setMetricsEnabled(true);
    o.setLiveEnabled(true);
    o.history().setEnabled(true);
    for (std::uint64_t i = 0; i < 4; ++i)
        o.onHarnessInterval(i, 0.1 * static_cast<double>(i + 1),
                            {1.0}, static_cast<double>(i + 1), 0.5);

    HttpExporter exporter(o);
    std::string response = exporter.handleRequest(
        getRequest("/history?metric=facts.throughput&last=2&stats=1"));
    EXPECT_EQ(statusOf(response), 200);
    const std::string body = bodyOf(response);
    EXPECT_NE(body.find("\"metric\":\"facts.throughput\""),
              std::string::npos);
    EXPECT_NE(body.find("\"kind\":\"gauge\""), std::string::npos);
    EXPECT_NE(body.find("\"stats\":{\"count\":4"), std::string::npos);

    // Counter rates work on counter series only.
    response = exporter.handleRequest(
        getRequest("/history?metric=satori.http.requests&rate=1"));
    EXPECT_EQ(statusOf(response), 200);
    response = exporter.handleRequest(
        getRequest("/history?metric=facts.throughput&rate=1"));
    EXPECT_EQ(statusOf(response), 400);
    o.resetAll();
}

TEST(HttpExporterTest, MalformedRequestsGetClientErrorCodes)
{
    Observability& o = observability();
    o.resetAll();
    HttpExporter exporter(o);

    EXPECT_EQ(statusOf(exporter.handleRequest("garbage\r\n\r\n")), 400);
    EXPECT_EQ(statusOf(exporter.handleRequest(
                  "GET noslash HTTP/1.1\r\n\r\n")),
              400);
    EXPECT_EQ(statusOf(exporter.handleRequest(
                  "POST /metrics HTTP/1.1\r\n\r\n")),
              405);
    EXPECT_EQ(statusOf(exporter.handleRequest(getRequest("/nope"))), 404);
    EXPECT_EQ(statusOf(exporter.handleRequest(getRequest("/history"))),
              400); // metric is required
    EXPECT_EQ(statusOf(exporter.handleRequest(
                  getRequest("/history?metric=unknown.series"))),
              404);
    EXPECT_EQ(statusOf(exporter.handleRequest(
                  getRequest("/audit/tail?n=bogus"))),
              400);
    // Every request above still counted.
    EXPECT_EQ(o.lib().http_requests.value(), 7u);
    o.resetAll();
}

// --- Real-socket lifecycle --------------------------------------------

TEST(HttpExporterTest, EphemeralPortServeFetchAndCleanShutdown)
{
    Observability& o = observability();
    o.resetAll();
    o.setMetricsEnabled(true);

    HttpExporter exporter(o);
    EXPECT_FALSE(exporter.running());
    EXPECT_EQ(exporter.port(), 0u);

    HttpExporterOptions options; // port 0 = ephemeral
    exporter.start(options);
    EXPECT_TRUE(exporter.running());
    const std::uint16_t port = exporter.port();
    ASSERT_GT(port, 0u);

    // Starting twice is fatal, not a silent rebind.
    EXPECT_THROW(exporter.start(options), FatalError);

    const std::string response = HttpExporter::fetch(port, "/metrics");
    EXPECT_EQ(statusOf(response), 200);
    EXPECT_EQ(bodyOf(response), o.metrics().snapshot().prometheusText());

    exporter.stop();
    EXPECT_FALSE(exporter.running());
    EXPECT_EQ(exporter.port(), 0u);
    exporter.stop(); // Idempotent.

    // The port is gone: fetch now fails with an empty response.
    EXPECT_TRUE(HttpExporter::fetch(port, "/metrics").empty());
    o.resetAll();
}

TEST(HttpExporterTest, PeriodicScraperCollectsAndStopsPromptly)
{
    Observability& o = observability();
    o.resetAll();
    o.setMetricsEnabled(true);
    HttpExporter exporter(o);
    exporter.start(HttpExporterOptions{});

    {
        PeriodicScraper scraper(exporter.port(), "/metrics", 5);
        // The first fetch happens promptly after construction; wait a
        // bounded number of periods for it.
        for (int i = 0; i < 2000 && scraper.scrapes() == 0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_GT(scraper.scrapes(), 0u);
        EXPECT_GT(scraper.bytesReceived(), 0u);
        scraper.stop();
        const std::uint64_t settled = scraper.scrapes();
        scraper.stop(); // Idempotent.
        EXPECT_EQ(scraper.scrapes(), settled);
    } // Destructor after stop() must not hang or double-join.

    exporter.stop();
    o.resetAll();
}

// --- The sacred invariant ---------------------------------------------

std::vector<persist::IntervalRecord>
runRecords(bool live_scraped)
{
    Observability& o = observability();
    o.resetAll();
    HttpExporter exporter(o);
    if (live_scraped) {
        o.setMetricsEnabled(true);
        o.setLiveEnabled(true);
        o.history().setEnabled(true);
        o.audit().setEnabled(true);
        o.watchdog().configure(
            SloSpec::parse("facts.throughput < 0.0 for 3\n"));
        exporter.start(HttpExporterOptions{});
    }

    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    auto server = harness::makeServer(
        p, workloads::mixOf({"canneal", "swaptions"}), 5);
    auto policy = harness::makePolicy("SATORI", server);
    std::vector<persist::IntervalRecord> records;
    {
        std::optional<PeriodicScraper> scraper;
        if (live_scraped)
            scraper.emplace(exporter.port(), "/metrics", 3);
        harness::ExperimentOptions opt;
        opt.duration = 3.0;
        opt.on_interval = [&](const persist::IntervalRecord& rec) {
            records.push_back(rec);
        };
        (void)harness::ExperimentRunner(opt).run(server, *policy, "");
    }
    exporter.stop();
    o.resetAll();
    return records;
}

TEST(HttpExporterTest, TraceIsByteIdenticalWithLiveScrapingMidRun)
{
    const auto off = runRecords(false);
    const auto on = runRecords(true);
    EXPECT_FALSE(off.empty());
    EXPECT_EQ(testutil::firstDivergence(off, on), "");
}

#if defined(SATORI_OBS_ENABLED) && SATORI_OBS_ENABLED
TEST(HttpExporterTest, LiveRunPopulatesHistoryAndAuditEndpoints)
{
    Observability& o = observability();
    o.resetAll();
    o.setMetricsEnabled(true);
    o.setLiveEnabled(true);
    o.history().setEnabled(true);
    o.audit().setEnabled(true);
    HttpExporter exporter(o);
    exporter.start(HttpExporterOptions{});

    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    auto server = harness::makeServer(
        p, workloads::mixOf({"canneal", "swaptions"}), 5);
    auto policy = harness::makePolicy("SATORI", server);
    harness::ExperimentOptions opt;
    opt.duration = 2.0;
    (void)harness::ExperimentRunner(opt).run(server, *policy, "");

    // 2 s / 100 ms = 20 intervals recorded into history.
    std::string response = HttpExporter::fetch(
        exporter.port(), "/history?metric=facts.throughput");
    EXPECT_EQ(statusOf(response), 200);
    EXPECT_NE(bodyOf(response).find("\"points\":[["), std::string::npos);

    response = HttpExporter::fetch(exporter.port(), "/audit/tail?n=5");
    EXPECT_EQ(statusOf(response), 200);
    // Five JSONL records, each one a decision.
    std::istringstream lines(bodyOf(response));
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line))
        if (!line.empty())
            ++count;
    EXPECT_EQ(count, 5u);

    response = HttpExporter::fetch(exporter.port(), "/healthz");
    EXPECT_EQ(statusOf(response), 200);
    EXPECT_NE(bodyOf(response).find("\"history_snapshots\":20"),
              std::string::npos);

    exporter.stop();
    o.resetAll();
}
#endif

} // namespace
} // namespace obs
} // namespace satori
