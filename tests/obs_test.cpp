/**
 * @file
 * Tests for the satori::obs subsystem: metrics-registry semantics,
 * histogram bucket edges, snapshot isolation, span nesting with an
 * injected deterministic clock, Chrome-trace / Prometheus / JSONL
 * golden outputs, the decision-audit channel, and the determinism
 * guarantee that enabling observability never changes decisions.
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "record_match.hpp"
#include "satori/common/logging.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/obs/obs.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace obs {
namespace {

// --- Metrics registry -------------------------------------------------

TEST(MetricsRegistryTest, CounterGaugeBasics)
{
    MetricsRegistry reg;
    Counter& c = reg.counter("test.counter", "a counter");
    Gauge& g = reg.gauge("test.gauge", "a gauge");
    EXPECT_EQ(reg.size(), 2u);
    c.inc();
    c.inc(4);
    g.set(2.5);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    c.reset();
    g.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsRegistryTest, DoubleRegisterIsFatal)
{
    MetricsRegistry reg;
    (void)reg.counter("dup.name", "first");
    EXPECT_THROW((void)reg.counter("dup.name", "second"), FatalError);
    // Uniqueness holds across instrument kinds too.
    EXPECT_THROW((void)reg.gauge("dup.name", "gauge"), FatalError);
    EXPECT_THROW((void)reg.histogram("dup.name", "histo", {1.0}),
                 FatalError);
}

TEST(MetricsRegistryTest, InvalidNamesAreFatal)
{
    MetricsRegistry reg;
    EXPECT_THROW((void)reg.counter("", "empty"), FatalError);
    EXPECT_THROW((void)reg.counter("has space", "bad"), FatalError);
    EXPECT_THROW((void)reg.counter("has{brace}", "bad"), FatalError);
}

TEST(MetricsRegistryTest, HistogramBucketEdges)
{
    MetricsRegistry reg;
    Histogram& h =
        reg.histogram("test.histo", "edges", {1.0, 2.0, 4.0});
    // Prometheus `le` semantics: a value on the edge falls in that
    // bucket, strictly-above falls in the next.
    h.observe(0.5); // bucket 0
    h.observe(1.0); // bucket 0 (le)
    h.observe(1.5); // bucket 1
    h.observe(4.0); // bucket 2 (le)
    h.observe(9.0); // +Inf tail
    const auto& counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 16.0);
}

TEST(MetricsRegistryTest, BadHistogramBoundsAreFatal)
{
    MetricsRegistry reg;
    EXPECT_THROW((void)reg.histogram("h.empty", "x", {}), FatalError);
    EXPECT_THROW((void)reg.histogram("h.desc", "x", {2.0, 1.0}),
                 FatalError);
    EXPECT_THROW((void)reg.histogram("h.equal", "x", {1.0, 1.0}),
                 FatalError);
    EXPECT_THROW((void)reg.histogram(
                     "h.inf", "x",
                     {1.0, std::numeric_limits<double>::infinity()}),
                 FatalError);
}

TEST(MetricsRegistryTest, SnapshotIsIsolatedFromLaterUpdates)
{
    MetricsRegistry reg;
    Counter& c = reg.counter("iso.counter", "c");
    Histogram& h = reg.histogram("iso.histo", "h", {1.0});
    c.inc(3);
    h.observe(0.5);
    const MetricsSnapshot snap = reg.snapshot();
    c.inc(100);
    h.observe(2.0);
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].value, 3u);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].count, 1u);
    EXPECT_EQ(snap.histograms[0].counts[0], 1u);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations)
{
    MetricsRegistry reg;
    Counter& c = reg.counter("r.counter", "c");
    c.inc(7);
    reg.reset();
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(c.value(), 0u);
    c.inc(); // the returned reference stays valid
    EXPECT_EQ(c.value(), 1u);
}

TEST(MetricsSnapshotTest, PrometheusGolden)
{
    MetricsRegistry reg;
    reg.counter("app.requests", "Total requests").inc(3);
    reg.gauge("app.load", "Current load").set(0.5);
    Histogram& h = reg.histogram("app.latency", "Latency", {1.0, 2.0});
    h.observe(0.5);
    h.observe(1.5);
    h.observe(9.0);
    const std::string expected =
        "# HELP app_requests Total requests\n"
        "# TYPE app_requests counter\n"
        "app_requests 3\n"
        "# HELP app_load Current load\n"
        "# TYPE app_load gauge\n"
        "app_load 0.5\n"
        "# HELP app_latency Latency\n"
        "# TYPE app_latency histogram\n"
        "app_latency_bucket{le=\"1\"} 1\n"
        "app_latency_bucket{le=\"2\"} 2\n"
        "app_latency_bucket{le=\"+Inf\"} 3\n"
        "app_latency_sum 11\n"
        "app_latency_count 3\n";
    EXPECT_EQ(reg.snapshot().prometheusText(), expected);
}

TEST(MetricsSnapshotTest, JsonLinesGolden)
{
    MetricsRegistry reg;
    reg.counter("j.counter", "C").inc(2);
    reg.histogram("j.histo", "H", {1.0}).observe(0.25);
    const std::string expected =
        "{\"type\":\"counter\",\"name\":\"j.counter\",\"help\":\"C\","
        "\"value\":2}\n"
        "{\"type\":\"histogram\",\"name\":\"j.histo\",\"help\":\"H\","
        "\"bounds\":[1],\"counts\":[1,0],\"count\":1,\"sum\":0.25}\n";
    EXPECT_EQ(reg.snapshot().jsonLines(), expected);
}

// --- Tracer -----------------------------------------------------------

/** Deterministic clock: advances 10 us per read. */
std::uint64_t
fakeClock()
{
    // Single-threaded test clock; mutation is the point.
    // satori-analyzer: allow(conc-global-mutable)
    static std::uint64_t t = 0;
    return t += 10'000;
}

TEST(TracerTest, SpanNestingDepthsAndDurations)
{
    Tracer tracer(&fakeClock);
    tracer.setEnabled(true);
    tracer.beginSpan("outer");
    tracer.beginSpan("inner");
    tracer.endSpan();
    tracer.endSpan();
    ASSERT_EQ(tracer.events().size(), 2u);
    EXPECT_EQ(tracer.openSpans(), 0u);
    const TraceEvent& outer = tracer.events()[0];
    const TraceEvent& inner = tracer.events()[1];
    EXPECT_STREQ(outer.name, "outer");
    EXPECT_EQ(outer.depth, 0u);
    EXPECT_STREQ(inner.name, "inner");
    EXPECT_EQ(inner.depth, 1u);
    // Each begin/end reads the clock once: inner spans 1 tick, the
    // outer spans 3, and the outer interval contains the inner one.
    EXPECT_EQ(inner.duration_ns, 10'000u);
    EXPECT_EQ(outer.duration_ns, 30'000u);
    EXPECT_LE(outer.start_ns, inner.start_ns);
    EXPECT_GE(outer.start_ns + outer.duration_ns,
              inner.start_ns + inner.duration_ns);
}

TEST(TracerTest, UnbalancedEndSpanPanics)
{
    Tracer tracer(&fakeClock);
    tracer.setEnabled(true);
    EXPECT_THROW(tracer.endSpan(), PanicError);
}

TEST(TracerTest, DisabledSpanGuardRecordsNothing)
{
    Tracer tracer(&fakeClock);
    ASSERT_FALSE(tracer.enabled());
    {
        SpanGuard guard(tracer, "ignored");
    }
    EXPECT_TRUE(tracer.events().empty());
}

TEST(TracerTest, ChromeTraceGolden)
{
    Tracer tracer(&fakeClock);
    tracer.setEnabled(true);
    {
        SpanGuard outer(tracer, "outer");
        SpanGuard inner(tracer, "inner");
    }
    const std::string json = tracer.chromeTraceJson();
    // Timestamps are rebased to the first span, so the golden is
    // stable no matter how many fakeClock ticks ran before this test.
    const std::string expected =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        "{\"name\":\"outer\",\"cat\":\"satori\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":1,\"ts\":0,\"dur\":30},"
        "{\"name\":\"inner\",\"cat\":\"satori\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":1,\"ts\":10,\"dur\":10}"
        "]}\n";
    EXPECT_EQ(json, expected);
}

TEST(TracerTest, AggregateSortsByTotalTime)
{
    Tracer tracer(&fakeClock);
    tracer.setEnabled(true);
    tracer.beginSpan("short");
    tracer.endSpan(); // 1 tick
    tracer.beginSpan("long");
    tracer.beginSpan("short");
    tracer.endSpan();
    tracer.endSpan(); // 3 ticks
    const auto rows = tracer.aggregate();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "long");
    EXPECT_EQ(rows[0].count, 1u);
    EXPECT_EQ(rows[0].total_ns, 30'000u);
    EXPECT_EQ(rows[1].name, "short");
    EXPECT_EQ(rows[1].count, 2u);
    EXPECT_EQ(rows[1].total_ns, 20'000u);
    EXPECT_EQ(rows[1].max_ns, 10'000u);
}

TEST(TracerTest, ClearDropsEverything)
{
    Tracer tracer(&fakeClock);
    tracer.setEnabled(true);
    tracer.beginSpan("open");
    tracer.clear();
    EXPECT_TRUE(tracer.events().empty());
    EXPECT_EQ(tracer.openSpans(), 0u);
}

// --- Decision-audit channel -------------------------------------------

DecisionRecord
sampleDecision()
{
    DecisionRecord rec;
    rec.interval = 7;
    rec.time = 0.8;
    rec.policy = "SATORI";
    rec.observed_ips = {1e9, 2e9};
    rec.guard_verdict = "healthy";
    rec.throughput = 0.75;
    rec.fairness = 0.5;
    rec.w_t = 0.6;
    rec.w_f = 0.4;
    rec.objective = 0.65;
    rec.bo_samples = 12;
    rec.proxy_change_pct = 1.5;
    rec.chosen_config = "[2,3|4,5]";
    rec.outcome = "explore";
    return rec;
}

TEST(DecisionAuditTest, DisabledChannelDropsRecords)
{
    DecisionAuditChannel channel;
    channel.emit(sampleDecision());
    EXPECT_TRUE(channel.records().empty());
    EXPECT_EQ(channel.jsonLines(), "");
}

TEST(DecisionAuditTest, JsonLinesGolden)
{
    DecisionAuditChannel channel;
    channel.setEnabled(true);
    channel.emit(sampleDecision());
    ASSERT_EQ(channel.records().size(), 1u);
    const std::string expected =
        "{\"interval\":7,\"time\":0.8,\"policy\":\"SATORI\","
        "\"observed_ips\":[1000000000,2000000000],"
        "\"guard_verdict\":\"healthy\",\"degraded\":false,"
        "\"settled\":false,\"throughput\":0.75,\"fairness\":0.5,"
        "\"w_t\":0.6,\"w_f\":0.4,\"objective\":0.65,\"bo_samples\":12,"
        "\"proxy_change_pct\":1.5,\"chosen_config\":\"[2,3|4,5]\","
        "\"outcome\":\"explore\"}\n";
    EXPECT_EQ(channel.jsonLines(), expected);
}

TEST(DecisionAuditTest, BoundedRingEvictsOldestAndCountsDrops)
{
    DecisionAuditChannel channel;
    channel.setEnabled(true);
    EXPECT_EQ(channel.capacity(), DecisionAuditChannel::kDefaultCapacity);
    channel.setCapacity(3);
    EXPECT_EQ(channel.capacity(), 3u);

    for (std::size_t i = 0; i < 5; ++i) {
        DecisionRecord rec = sampleDecision();
        rec.interval = i;
        channel.emit(std::move(rec));
    }
    EXPECT_EQ(channel.size(), 3u);
    EXPECT_EQ(channel.dropped(), 2u);
    ASSERT_EQ(channel.records().size(), 3u);
    EXPECT_EQ(channel.records().front().interval, 2u);
    EXPECT_EQ(channel.records().back().interval, 4u);

    // Shrinking the capacity trims existing records (oldest first).
    channel.setCapacity(1);
    EXPECT_EQ(channel.size(), 1u);
    EXPECT_EQ(channel.records().front().interval, 4u);
    // Capacity 0 clamps to 1: the ring always holds something.
    channel.setCapacity(0);
    EXPECT_EQ(channel.capacity(), 1u);

    channel.clear();
    EXPECT_EQ(channel.size(), 0u);
    EXPECT_EQ(channel.dropped(), 0u);
}

TEST(DecisionAuditTest, TailJsonLinesReturnsNewestRecords)
{
    DecisionAuditChannel channel;
    channel.setEnabled(true);
    for (std::size_t i = 0; i < 4; ++i) {
        DecisionRecord rec = sampleDecision();
        rec.interval = i;
        channel.emit(std::move(rec));
    }

    const std::string tail = channel.tailJsonLines(2);
    EXPECT_EQ(tail.find("\"interval\":0"), std::string::npos);
    EXPECT_EQ(tail.find("\"interval\":1"), std::string::npos);
    EXPECT_NE(tail.find("\"interval\":2"), std::string::npos);
    EXPECT_NE(tail.find("\"interval\":3"), std::string::npos);
    // n >= size returns everything, identically to jsonLines().
    EXPECT_EQ(channel.tailJsonLines(99), channel.jsonLines());
}

TEST(DecisionAuditTest, WriteJsonlRoundTrips)
{
    DecisionAuditChannel channel;
    channel.setEnabled(true);
    channel.emit(sampleDecision());
    const std::string path = "/tmp/satori_obs_audit_test.jsonl";
    channel.writeJsonl(path);
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), channel.jsonLines());
    std::remove(path.c_str());
}

// --- Observability context and macros ---------------------------------

TEST(ObservabilityTest, SingletonRegistersLibraryMetrics)
{
    Observability& o = observability();
    EXPECT_GE(o.metrics().size(), 20u);
    EXPECT_EQ(&o, &Observability::instance());
    o.resetAll();
    EXPECT_FALSE(o.tracer().enabled());
    EXPECT_FALSE(o.audit().enabled());
    EXPECT_FALSE(o.metricsEnabled());
}

#if defined(SATORI_OBS_ENABLED) && SATORI_OBS_ENABLED
TEST(ObservabilityTest, MacrosRecordWhenEnabled)
{
    Observability& o = observability();
    o.resetAll();
    o.tracer().setEnabled(true);
    o.setMetricsEnabled(true);
    {
        SATORI_OBS_SPAN("test.macro");
        SATORI_OBS_METRIC(bo_fits.inc());
    }
    EXPECT_EQ(o.tracer().events().size(), 1u);
    EXPECT_STREQ(o.tracer().events()[0].name, "test.macro");
    EXPECT_EQ(o.lib().bo_fits.value(), 1u);
    o.resetAll();
}

TEST(ObservabilityTest, MacrosAreNoopsWhenDisabled)
{
    Observability& o = observability();
    o.resetAll();
    {
        SATORI_OBS_SPAN("test.noop");
        SATORI_OBS_METRIC(bo_fits.inc());
    }
    EXPECT_TRUE(o.tracer().events().empty());
    EXPECT_EQ(o.lib().bo_fits.value(), 0u);
}
#endif

// --- Determinism: obs on vs off must not change decisions -------------

std::vector<persist::IntervalRecord>
runRecords(bool obs_on)
{
    Observability& o = observability();
    o.resetAll();
    if (obs_on) {
        o.tracer().setEnabled(true);
        o.setMetricsEnabled(true);
        o.audit().setEnabled(true);
    }

    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    auto server = harness::makeServer(
        p, workloads::mixOf({"canneal", "swaptions"}), 5);
    auto policy = harness::makePolicy("SATORI", server);

    std::vector<persist::IntervalRecord> records;
    harness::ExperimentOptions opt;
    opt.duration = 3.0;
    opt.on_interval = [&](const persist::IntervalRecord& rec) {
        records.push_back(rec);
    };
    (void)harness::ExperimentRunner(opt).run(server, *policy, "");

    o.resetAll();
    return records;
}

TEST(ObservabilityTest, DecisionTraceIsByteIdenticalObsOnVsOff)
{
    const auto off = runRecords(false);
    const auto on = runRecords(true);
    EXPECT_FALSE(off.empty());
    EXPECT_EQ(testutil::firstDivergence(off, on), "");
}

#if defined(SATORI_OBS_ENABLED) && SATORI_OBS_ENABLED
TEST(ObservabilityTest, FullRunProducesNestedSpansAndAuditRecords)
{
    (void)runRecords(true);
    // resetAll() at the end of runRecords cleared the state; rerun
    // with the channel left enabled to inspect what a run produces.
    Observability& o = observability();
    o.resetAll();
    o.tracer().setEnabled(true);
    o.audit().setEnabled(true);

    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    auto server = harness::makeServer(
        p, workloads::mixOf({"canneal", "swaptions"}), 5);
    auto policy = harness::makePolicy("SATORI", server);
    harness::ExperimentOptions opt;
    opt.duration = 3.0;
    (void)harness::ExperimentRunner(opt).run(server, *policy, "");

    // 3 s / 100 ms = 30 intervals, each with nested spans under
    // harness.interval and one audit record from the controller.
    EXPECT_EQ(o.audit().records().size(), 30u);
    std::size_t intervals = 0, decides = 0, fits = 0;
    bool saw_nested_decide = false;
    for (const TraceEvent& e : o.tracer().events()) {
        const std::string name = e.name;
        if (name == "harness.interval")
            ++intervals;
        if (name == "controller.decide") {
            ++decides;
            if (e.depth > 0)
                saw_nested_decide = true;
        }
        if (name == "bo.fit")
            ++fits;
    }
    EXPECT_EQ(intervals, 30u);
    EXPECT_EQ(decides, 30u);
    EXPECT_GT(fits, 0u);
    EXPECT_TRUE(saw_nested_decide);
    o.resetAll();
}
#endif

} // namespace
} // namespace obs
} // namespace satori
