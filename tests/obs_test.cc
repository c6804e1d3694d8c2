/**
 * @file
 * Observability layer tests: metrics registry units (typed instruments,
 * snapshot fold/diff/merge, canonical JSON), simulated-time tracer
 * units and Chrome trace export, query EXPLAIN correctness (including
 * the health-fallback verdict on faulted nodes), and the acceptance
 * property the whole layer is built around — trace + metrics + EXPLAIN
 * output is byte-identical across FUSION_THREADS values under an
 * active crash/revive fault schedule. Ends with an overhead guard: the
 * disabled instrumentation paths must cost < 2% on the predicate
 * kernel loop.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/random.h"
#include "common/walltime.h"
#include "common/thread_pool.h"
#include "fault_counters.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "query/eval.h"
#include "query/parser.h"
#include "sim/fault.h"
#include "store/fusion_store.h"
#include "workload/lineitem.h"

namespace fusion {
namespace {

using format::ColumnData;
using format::PhysicalType;
using format::Value;
using query::CompareOp;

// ---------------------------------------------------------------------
// Metrics registry units.
// ---------------------------------------------------------------------

TEST(MetricsTest, CounterAddValueReset)
{
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, CounterFoldsExactlyAcrossThreads)
{
    obs::Counter c;
    const size_t kThreads = 8, kAdds = 50'000;
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kThreads; ++t)
        workers.emplace_back([&c]() {
            for (size_t i = 0; i < kAdds; ++i)
                c.add();
        });
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(c.value(), kThreads * kAdds);
}

TEST(MetricsTest, DoubleCounterAccumulates)
{
    obs::DoubleCounter d;
    d.add(0.25);
    d.add(1.5);
    EXPECT_DOUBLE_EQ(d.value(), 1.75);
    d.reset();
    EXPECT_DOUBLE_EQ(d.value(), 0.0);
}

TEST(MetricsTest, GaugeSetAndSetMax)
{
    obs::Gauge g;
    g.set(3.0);
    EXPECT_DOUBLE_EQ(g.value(), 3.0);
    g.setMax(2.0); // below current: no change
    EXPECT_DOUBLE_EQ(g.value(), 3.0);
    g.setMax(7.0);
    EXPECT_DOUBLE_EQ(g.value(), 7.0);
    g.set(1.0); // set always wins
    EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(MetricsTest, HistogramBucketsAndOverflow)
{
    obs::Histogram h({1.0, 10.0, 100.0});
    for (double v : {0.5, 1.0, 2.0, 50.0, 1000.0, 99.9})
        h.observe(v);
    // Bounds are inclusive upper bounds; one overflow bucket.
    std::vector<uint64_t> expect = {2, 1, 2, 1};
    EXPECT_EQ(h.bucketCounts(), expect);
    EXPECT_EQ(h.count(), 6u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsTest, ExponentialBounds)
{
    std::vector<double> expect = {1.0, 2.0, 4.0, 8.0};
    EXPECT_EQ(obs::exponentialBounds(1.0, 2.0, 4), expect);
}

TEST(MetricsTest, RegistryReturnsStableReferences)
{
    obs::MetricsRegistry registry;
    obs::Counter &a = registry.counter("x");
    obs::Counter &b = registry.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(5);
    EXPECT_EQ(registry.counter("x").value(), 5u);
}

TEST(MetricsTest, SnapshotJsonIsCanonicalAndSorted)
{
    obs::MetricsRegistry registry;
    registry.counter("b.count").add(2);
    registry.doubleCounter("a.seconds").add(0.5);
    registry.gauge("c.depth").set(4.0);
    registry.histogram("d.lat", {1.0, 2.0}).observe(1.5);

    obs::MetricsSnapshot snap = registry.snapshot();
    std::string json = snap.toJson();
    // Sorted keys: a.seconds before b.count before c.depth before d.lat.
    EXPECT_LT(json.find("a.seconds"), json.find("b.count"));
    EXPECT_LT(json.find("b.count"), json.find("c.depth"));
    EXPECT_LT(json.find("c.depth"), json.find("d.lat"));
    // Byte-stable: snapshotting again yields the identical document.
    EXPECT_EQ(json, registry.snapshot().toJson());
    EXPECT_TRUE(snap == registry.snapshot());
    EXPECT_FALSE(snap.render().empty());
}

TEST(MetricsTest, SnapshotDiffAndMerge)
{
    obs::MetricsRegistry registry;
    obs::Counter &hits = registry.counter("hits");
    obs::DoubleCounter &secs = registry.doubleCounter("secs");
    obs::Histogram &lat = registry.histogram("lat", {1.0});
    registry.gauge("depth").set(2.0);

    hits.add(3);
    secs.add(1.0);
    lat.observe(0.5);
    obs::MetricsSnapshot before = registry.snapshot();

    hits.add(4);
    secs.add(0.25);
    lat.observe(2.0);
    registry.gauge("depth").set(9.0);
    obs::MetricsSnapshot after = registry.snapshot();

    obs::MetricsSnapshot delta = after.diff(before);
    EXPECT_EQ(delta.values.at("hits").count, 4u);
    EXPECT_DOUBLE_EQ(delta.values.at("secs").number, 0.25);
    // Gauges keep the later snapshot's value.
    EXPECT_DOUBLE_EQ(delta.values.at("depth").number, 9.0);
    std::vector<uint64_t> lat_delta = {0, 1};
    EXPECT_EQ(delta.values.at("lat").buckets, lat_delta);

    // merge(before, delta) reproduces `after` for additive kinds.
    obs::MetricsSnapshot merged = before;
    merged.mergeFrom(delta);
    EXPECT_TRUE(merged == after);
}

TEST(MetricsTest, DiffPassesThroughNewMetrics)
{
    obs::MetricsRegistry registry;
    obs::MetricsSnapshot before = registry.snapshot();
    registry.counter("fresh").add(7);
    obs::MetricsSnapshot delta = registry.snapshot().diff(before);
    EXPECT_EQ(delta.values.at("fresh").count, 7u);
}

// ---------------------------------------------------------------------
// Tracer units.
// ---------------------------------------------------------------------

TEST(TracerTest, DisabledTracerRecordsNothing)
{
    obs::Tracer tracer;
    EXPECT_FALSE(tracer.enabled());
    EXPECT_EQ(tracer.beginSpan("noop"), 0u);
    tracer.endSpan(0);
    tracer.instant("noop");
    {
        obs::Tracer::Scoped scoped(tracer, "noop");
    }
    EXPECT_EQ(tracer.spanCount(), 0u);
}

TEST(TracerTest, RecordsSpansOnInjectedClock)
{
    double now = 1.0;
    obs::Tracer tracer;
    tracer.setClock([&now]() { return now; });
    tracer.setEnabled(true);

    uint64_t id = tracer.beginSpan("query", "\"n\":1");
    now = 1.5;
    tracer.endSpan(id);
    tracer.instant("mark");

    ASSERT_EQ(tracer.spanCount(), 2u);
    const obs::TraceSpan &span = tracer.spans()[0];
    EXPECT_STREQ(span.name, "query");
    EXPECT_DOUBLE_EQ(span.beginSeconds, 1.0);
    EXPECT_DOUBLE_EQ(span.endSeconds, 1.5);
    EXPECT_EQ(span.args, "\"n\":1");
    const obs::TraceSpan &mark = tracer.spans()[1];
    EXPECT_DOUBLE_EQ(mark.beginSeconds, mark.endSeconds);

    auto taken = tracer.takeSpans();
    EXPECT_EQ(taken.size(), 2u);
    EXPECT_EQ(tracer.spanCount(), 0u);
    EXPECT_TRUE(tracer.enabled()); // takeSpans keeps recording on
}

/** Minimal structural validation: balanced braces/brackets outside
 *  string literals — catches truncated or mis-quoted output without a
 *  full JSON parser. */
bool
jsonBalanced(const std::string &text)
{
    int depth = 0;
    bool in_string = false, escaped = false;
    for (char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_string;
}

TEST(TracerTest, ChromeJsonHasMetadataEventsAndLanes)
{
    double now = 0.0;
    obs::Tracer tracer;
    tracer.setClock([&now]() { return now; });
    tracer.setEnabled(true);

    // Two overlapping spans must land on different lanes (tids); a
    // third beginning after both ended reuses lane 1.
    uint64_t a = tracer.beginSpan("alpha");
    now = 0.001;
    uint64_t b = tracer.beginSpan("beta");
    now = 0.002;
    tracer.endSpan(a);
    now = 0.003;
    tracer.endSpan(b);
    now = 0.004;
    uint64_t c = tracer.beginSpan("gamma");
    now = 0.005;
    tracer.endSpan(c);

    std::string json = tracer.toChromeJson("teststore");
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"teststore\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // alpha on lane 1, overlapping beta pushed to lane 2, gamma back
    // on lane 1.
    EXPECT_NE(json.find("\"name\":\"alpha\",\"cat\":\"fusion\",\"ph\":"
                        "\"X\",\"ts\":0.000,\"dur\":2000.000,\"pid\":1,"
                        "\"tid\":1"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"beta\",\"cat\":\"fusion\",\"ph\":"
                        "\"X\",\"ts\":1000.000,\"dur\":2000.000,"
                        "\"pid\":1,\"tid\":2"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"gamma\",\"cat\":\"fusion\",\"ph\":"
                        "\"X\",\"ts\":4000.000,\"dur\":1000.000,"
                        "\"pid\":1,\"tid\":1"),
              std::string::npos);
    EXPECT_TRUE(jsonBalanced(json));
}

TEST(TracerTest, WriteTextFileRoundTrips)
{
    std::string path = ::testing::TempDir() + "obs_test_roundtrip.json";
    ASSERT_TRUE(obs::writeTextFile(path, "{\"ok\":true}\n"));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "{\"ok\":true}\n");
}

// ---------------------------------------------------------------------
// Query EXPLAIN.
// ---------------------------------------------------------------------

struct ExplainRig {
    sim::ClusterConfig config;
    std::unique_ptr<sim::Cluster> cluster;
    std::unique_ptr<store::FusionStore> store;
};

ExplainRig
makeExplainRig(uint64_t cache_bytes = 0)
{
    ExplainRig rig;
    rig.config.numNodes = 9;
    rig.cluster = std::make_unique<sim::Cluster>(rig.config);
    store::StoreOptions options;
    options.cacheBytes = cache_bytes;
    rig.store =
        std::make_unique<store::FusionStore>(*rig.cluster, options);
    auto file = workload::buildLineitemFile(3000, 7);
    FUSION_CHECK(file.isOk());
    FUSION_CHECK(rig.store->put("lineitem", file.value().bytes).isOk());
    return rig;
}

TEST(ExplainTest, DisabledByDefault)
{
    ExplainRig rig = makeExplainRig();
    auto outcome =
        rig.store->querySql("SELECT l_orderkey FROM lineitem "
                            "WHERE l_quantity < 10");
    ASSERT_TRUE(outcome.isOk());
    EXPECT_EQ(outcome.value().explain, nullptr);
}

TEST(ExplainTest, RecordsEveryProjectionDecision)
{
    ExplainRig rig = makeExplainRig();
    rig.store->obs().explainEnabled = true;
    auto outcome =
        rig.store->querySql("SELECT l_orderkey, l_comment FROM lineitem "
                            "WHERE l_quantity < 10");
    ASSERT_TRUE(outcome.isOk());
    const store::QueryOutcome &o = outcome.value();
    ASSERT_NE(o.explain, nullptr);
    const obs::QueryExplain &report = *o.explain;

    EXPECT_EQ(report.table, "lineitem");
    EXPECT_NE(report.query.find("l_quantity"), std::string::npos);
    EXPECT_GT(report.selectivity, 0.0);
    EXPECT_LT(report.selectivity, 1.0);

    // The report's tallies must agree with the outcome's counters.
    EXPECT_EQ(report.rowGroupsScanned, o.rowGroupsScanned);
    EXPECT_EQ(report.rowGroupsSkipped, o.rowGroupsSkipped);
    EXPECT_EQ(report.filterPushdowns, o.filterChunkPushdowns);
    EXPECT_EQ(report.filterFetches, o.filterChunkFetches);
    EXPECT_EQ(report.pushCount(), o.projectionPushdowns);
    EXPECT_EQ(report.fetchCount(), o.projectionFetches);
    // One recorded decision per projected chunk, none skipped.
    EXPECT_EQ(report.projections.size(),
              o.projectionPushdowns + o.projectionFetches);
    ASSERT_FALSE(report.projections.empty());

    for (const obs::ExplainChunk &chunk : report.projections) {
        EXPECT_TRUE(chunk.verdict == "push" || chunk.verdict == "fetch")
            << chunk.verdict;
        EXPECT_FALSE(chunk.reason.empty());
        EXPECT_FALSE(chunk.column.empty());
        EXPECT_DOUBLE_EQ(chunk.product(),
                         chunk.selectivity * chunk.compressibility);
        // On a healthy cluster the Cost Equation decides everything:
        // the verdict must be consistent with its product.
        if (chunk.reason == "cost product < 1") {
            EXPECT_LT(chunk.product(), 1.0);
        }
        if (chunk.reason == "cost product >= 1") {
            EXPECT_GE(chunk.product(), 1.0);
        }
    }

    // Deterministic rendering.
    EXPECT_EQ(report.toJson(), report.toJson());
    EXPECT_TRUE(jsonBalanced(report.toJson()));
    std::string text = report.render();
    EXPECT_NE(text.find("push"), std::string::npos);
    EXPECT_NE(text.find(report.table), std::string::npos);
}

TEST(ExplainTest, CachedLocalVerdictRecordsFlippedCostTerms)
{
    // High selectivity on the well-compressed quantity column gives a
    // fetch verdict; the fetch admits the chunks, so the repeat query
    // flips every decision to "local" / "cached-local".
    ExplainRig rig = makeExplainRig(64 << 20);
    rig.store->obs().explainEnabled = true;
    const char *sql =
        "SELECT l_quantity FROM lineitem WHERE l_quantity < 45";

    auto cold = rig.store->querySql(sql);
    ASSERT_TRUE(cold.isOk());
    ASSERT_GT(cold.value().projectionFetches, 0u);
    EXPECT_EQ(cold.value().explain->localCount(), 0u);

    auto warm = rig.store->querySql(sql);
    ASSERT_TRUE(warm.isOk());
    const store::QueryOutcome &o = warm.value();
    ASSERT_NE(o.explain, nullptr);
    const obs::QueryExplain &report = *o.explain;

    // Tallies agree with the outcome, including the cached buckets.
    EXPECT_GT(o.projectionCachedLocal, 0u);
    EXPECT_EQ(report.localCount(), o.projectionCachedLocal);
    EXPECT_EQ(report.fetchCount(), o.projectionFetches);
    EXPECT_EQ(report.pushCount(), o.projectionPushdowns);
    EXPECT_EQ(report.projections.size(),
              o.projectionPushdowns + o.projectionFetches +
                  o.projectionCachedLocal);
    // The quantity chunks serve the filter stage from the cache too.
    EXPECT_GT(o.filterChunkCached, 0u);
    EXPECT_EQ(report.filterCached, o.filterChunkCached);

    for (const obs::ExplainChunk &chunk : report.projections) {
        if (chunk.verdict != "local")
            continue;
        EXPECT_EQ(chunk.reason, "cached-local");
        // The Cost-Equation terms are still recorded — and show the
        // flip: the equation alone said fetch (product >= 1), but
        // residency made local evaluation free of wire cost.
        EXPECT_GE(chunk.product(), 1.0);
        EXPECT_GT(chunk.compressibility, 1.0);
    }

    EXPECT_NE(report.render().find("cached-local"), std::string::npos);
    EXPECT_NE(report.toJson().find("\"verdict\": \"local\""),
              std::string::npos);
    EXPECT_NE(report.toJson().find("\"filter_cached\""),
              std::string::npos);
    EXPECT_TRUE(jsonBalanced(report.toJson()));
}

TEST(ExplainTest, FaultedNodeDecisionsRecordHealthFallback)
{
    ExplainRig rig = makeExplainRig();
    rig.store->obs().explainEnabled = true;

    // Kill nodes until pushdowns actually fall back (which nodes hold
    // intact chunks depends on placement, so probe within the RS(9,6)
    // fault tolerance of 3).
    std::shared_ptr<const obs::QueryExplain> report;
    for (size_t victim : {0, 1, 2}) {
        rig.cluster->killNode(victim);
        auto outcome = rig.store->querySql(
            "SELECT l_orderkey, l_extendedprice FROM lineitem "
            "WHERE l_quantity < 30");
        ASSERT_TRUE(outcome.isOk());
        ASSERT_NE(outcome.value().explain, nullptr);
        report = outcome.value().explain;
        if (outcome.value().pushdownFallbacks > 0)
            break;
    }
    ASSERT_NE(report, nullptr);

    size_t fallbacks = 0;
    for (const obs::ExplainChunk &chunk : report->projections) {
        if (chunk.reason == "node unresponsive (health fallback)") {
            ++fallbacks;
            EXPECT_EQ(chunk.verdict, "fetch");
        }
    }
    EXPECT_GT(fallbacks, 0u)
        << "no projection decision recorded a health fallback:\n"
        << report->render();
    EXPECT_NE(report->render().find("health fallback"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Timeseries units: sliding windows, decayed accumulators, node
// health, chunk heat and the flight recorder.
// ---------------------------------------------------------------------

TEST(TimeseriesTest, WindowReducerEvictsAndReduces)
{
    obs::WindowReducer w(1.0);
    EXPECT_EQ(w.count(), 0u);
    EXPECT_DOUBLE_EQ(w.mean(), 0.0);
    EXPECT_DOUBLE_EQ(w.percentile(50.0), 0.0);

    w.observe(0.0, 10.0);
    w.observe(0.5, 20.0);
    w.observe(1.2, 30.0); // cutoff 0.2 evicts the t=0.0 sample
    EXPECT_EQ(w.count(), 2u);
    EXPECT_DOUBLE_EQ(w.mean(), 25.0);
    EXPECT_DOUBLE_EQ(w.rate(), 2.0);

    w.advance(2.3); // cutoff 1.3: everything out
    EXPECT_EQ(w.count(), 0u);
    EXPECT_DOUBLE_EQ(w.rate(), 0.0);
}

TEST(TimeseriesTest, WindowReducerPercentileInterpolates)
{
    obs::WindowReducer w(10.0);
    // Insert unsorted; percentile() sorts the resident values.
    for (double v : {30.0, 10.0, 40.0, 20.0})
        w.observe(1.0, v);
    // Inclusive rank h = (n-1)p/100 over {10, 20, 30, 40}.
    EXPECT_DOUBLE_EQ(w.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(w.percentile(50.0), 25.0);
    EXPECT_DOUBLE_EQ(w.percentile(95.0), 38.5);
    EXPECT_DOUBLE_EQ(w.percentile(100.0), 40.0);
}

TEST(TimeseriesTest, DecayCounterHalvesPerHalfLife)
{
    obs::DecayCounter c(1.0);
    EXPECT_DOUBLE_EQ(c.valueAt(5.0), 0.0);
    c.add(0.0, 8.0);
    EXPECT_DOUBLE_EQ(c.valueAt(0.0), 8.0);
    EXPECT_DOUBLE_EQ(c.valueAt(1.0), 4.0);
    EXPECT_DOUBLE_EQ(c.valueAt(3.0), 1.0);
    c.add(2.0, 2.0); // 8 * 2^-2 + 2 = 4
    EXPECT_DOUBLE_EQ(c.valueAt(2.0), 4.0);
    EXPECT_DOUBLE_EQ(c.valueAt(3.0), 2.0);
}

TEST(TimeseriesTest, HealthScoreDropsUnderTimeoutsAndRecovers)
{
    obs::NodeHealthTracker h;
    h.setNumNodes(4);
    for (size_t n = 0; n < 4; ++n) {
        EXPECT_DOUBLE_EQ(h.score(n, 0.0), 1.0);
        EXPECT_EQ(h.band(n, 0.0),
                  obs::NodeHealthTracker::Band::kHealthy);
    }

    // Back-to-back timeouts: monotonically non-increasing score.
    double prev = 1.0;
    for (int i = 0; i < 5; ++i) {
        const double t = 0.001 * static_cast<double>(i);
        h.recordTimeout(t, 2);
        const double s = h.score(2, t);
        EXPECT_LE(s, prev);
        prev = s;
    }
    EXPECT_LT(prev, 0.5);
    EXPECT_EQ(h.band(2, 0.004), obs::NodeHealthTracker::Band::kDead);
    EXPECT_EQ(h.consecutiveTimeouts(2), 5u);
    EXPECT_DOUBLE_EQ(h.score(0, 0.004), 1.0); // neighbours untouched

    // No further events: the decayed penalty recovers monotonically.
    double last = prev;
    for (int i = 1; i <= 5; ++i) {
        const double s =
            h.score(2, 0.004 + 0.05 * static_cast<double>(i));
        EXPECT_GE(s, last);
        last = s;
    }
    EXPECT_GT(last, prev);
}

TEST(TimeseriesTest, FlapEvidenceSeparatesFlappingFromDead)
{
    obs::NodeHealthTracker h;
    h.setNumNodes(2);

    // Success with no open streak is a no-op (the hot path).
    h.recordSuccess(0.0, 0);
    EXPECT_DOUBLE_EQ(h.flapEvidence(0, 0.0), 0.0);

    // Timeout -> success closes the streak and books flap evidence.
    h.recordTimeout(0.01, 0);
    EXPECT_EQ(h.band(0, 0.01), obs::NodeHealthTracker::Band::kDead);
    h.recordSuccess(0.02, 0);
    EXPECT_EQ(h.band(0, 0.02), obs::NodeHealthTracker::Band::kHealthy);
    EXPECT_GT(h.flapEvidence(0, 0.02), 0.9);

    // The next timeout with fresh flap evidence reads as flapping, not
    // dead: the retry policy stretches instead of shrinking.
    h.recordTimeout(0.03, 0);
    EXPECT_EQ(h.band(0, 0.03),
              obs::NodeHealthTracker::Band::kFlapping);
}

TEST(TimeseriesTest, ChunkHeatDecaysAndRanks)
{
    obs::ChunkHeatTable heat; // half-life 0.5 s

    for (int i = 0; i < 3; ++i)
        heat.recordAccess(0.0, "a", 0);
    heat.recordAccess(0.0, "a", 1);
    heat.recordAccess(0.0, "b", 0);
    heat.recordAccess(0.0, "b", 0);
    EXPECT_EQ(heat.size(), 3u);
    EXPECT_DOUBLE_EQ(heat.heat("a", 0, 0.0), 3.0);
    EXPECT_DOUBLE_EQ(heat.heat("a", 0, 0.5), 1.5); // one half-life
    EXPECT_DOUBLE_EQ(heat.heat("missing", 9, 0.0), 0.0);

    auto hot = heat.hottest(0.0, 2);
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_EQ(hot[0].object, "a");
    EXPECT_EQ(hot[0].chunk, 0u);
    EXPECT_DOUBLE_EQ(hot[0].heat, 3.0);
    EXPECT_EQ(hot[1].object, "b");
    EXPECT_EQ(hot[1].chunk, 0u);

    // Equal heat ties break on (object, chunk) ascending.
    heat.recordAccess(0.0, "a", 1); // "a":1 now ties "b":0 at 2.0
    hot = heat.hottest(0.0, 3);
    ASSERT_EQ(hot.size(), 3u);
    EXPECT_EQ(hot[1].object, "a");
    EXPECT_EQ(hot[1].chunk, 1u);
    EXPECT_EQ(hot[2].object, "b");
}

TEST(TimeseriesTest, FlightRecorderRingOverwritesOldestAndCapsDumps)
{
    // The recorder's fixed sizes (timeseries.cc).
    constexpr int kCapacity = 256;
    constexpr size_t kMaxDumps = 16;
    obs::FlightRecorder rec;

    // Disabled by default: record() is a no-op (overhead guard).
    rec.record(0.0, "noise", "");
    EXPECT_EQ(rec.eventCount(), 0u);

    rec.setEnabled(true);
    auto seq = [](int i) { return "\"seq\": " + std::to_string(i) + "}"; };
    for (int i = 0; i < kCapacity + 2; ++i)
        rec.record(0.01 * static_cast<double>(i), "event",
                   "\"seq\": " + std::to_string(i));
    // The ring holds the last kCapacity.
    EXPECT_EQ(rec.eventCount(), static_cast<size_t>(kCapacity));

    std::string dump = rec.dump(0.01 * (kCapacity + 2), "unit_test");
    EXPECT_TRUE(jsonBalanced(dump));
    EXPECT_EQ(dump.find(seq(0)), std::string::npos);
    EXPECT_EQ(dump.find(seq(1)), std::string::npos);
    // Oldest surviving event renders first.
    EXPECT_LT(dump.find(seq(2)), dump.find(seq(kCapacity + 1)));
    EXPECT_NE(dump.find("\"reason\": \"unit_test\""),
              std::string::npos);

    // Retention caps at kMaxDumps; dump() still returns the JSON.
    for (size_t d = 1; d < kMaxDumps; ++d)
        rec.dump(0.01 * (kCapacity + 2), "more");
    std::string last = rec.dump(0.01 * (kCapacity + 3), "past_the_cap");
    EXPECT_EQ(rec.dumps().size(), kMaxDumps);
    EXPECT_NE(last.find("\"past_the_cap\""), std::string::npos);
}

TEST(TimeseriesTest, TelemetrySnapshotIsCanonicalJson)
{
    obs::Telemetry tel;
    tel.health().setNumNodes(2);
    tel.window("query.latency_seconds").observe(0.01, 0.5);
    tel.heat().recordAccess(0.01, "obj", 7);
    tel.flight().setEnabled(true);
    tel.flight().record(0.01, "query", "");
    tel.flight().dump(0.02, "unit_test");

    std::string a = tel.toJson(0.05);
    std::string b = tel.toJson(0.05); // same instant: same bytes
    EXPECT_EQ(a, b);
    EXPECT_TRUE(jsonBalanced(a));
    EXPECT_NE(a.find("\"nodes\""), std::string::npos);
    EXPECT_NE(a.find("\"query.latency_seconds\""), std::string::npos);
    EXPECT_NE(a.find("\"obj\""), std::string::npos);
    EXPECT_NE(a.find("\"unit_test\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Acceptance: byte-identical observability output across thread
// counts, under an active crash/revive fault schedule.
// ---------------------------------------------------------------------

struct ObsRun {
    std::string traceJson;
    std::string metricsJson;
    std::string explainJson; // all queries' reports concatenated
    std::string timeseriesJson;
    uint64_t readRetries = 0;  // fault.read_retries
    uint64_t readTimeouts = 0; // fault.read_timeouts
    obs::MetricsSnapshot faults; // every fault.* counter
};

ObsRun
runObservedWorkload(size_t threads, uint64_t cache_bytes = 0)
{
    ThreadPool::setSharedThreads(threads);

    sim::ClusterConfig config;
    config.numNodes = 9;
    sim::Cluster cluster(config);
    store::StoreOptions options;
    options.cacheBytes = cache_bytes;
    store::FusionStore store(cluster, options);
    // Enable before put() so stripe_encode spans are captured too.
    store.obs().tracer.setEnabled(true);
    store.obs().explainEnabled = true;
    store.obs().telemetry.flight().setEnabled(true);
    auto file = workload::buildLineitemFile(3000, 7);
    FUSION_CHECK(file.isOk());
    FUSION_CHECK(store.put("lineitem", file.value().bytes).isOk());

    // A node crashes mid-workload and comes back: retries, parity
    // reconstructions and pushdown fallbacks all appear in the
    // metrics and in the trace while the fault is active.
    sim::FaultSchedule schedule;
    schedule.crashAt(0.01, 3).reviveAt(0.2, 3);
    sim::FaultInjector faults(cluster, schedule);
    faults.arm();

    std::vector<std::string> sqls = {
        "SELECT l_orderkey FROM lineitem WHERE l_quantity < 10",
        "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem "
        "WHERE l_discount < 0.05",
        "SELECT * FROM lineitem WHERE l_orderkey < 50",
        "SELECT l_comment FROM lineitem WHERE l_extendedprice < 15000",
    };
    if (cache_bytes > 0) {
        // A repeated fetch-verdict query: the first run admits the
        // quantity chunks, the repeat serves them cached-local while
        // the crash schedule is active.
        sqls.push_back(
            "SELECT l_quantity FROM lineitem WHERE l_quantity < 45");
        sqls.push_back(
            "SELECT l_quantity FROM lineitem WHERE l_quantity < 45");
    }
    sim::SimEngine &engine = cluster.engine();
    std::vector<std::optional<Result<store::QueryOutcome>>> captured(
        std::size(sqls));
    for (size_t i = 0; i < std::size(sqls); ++i) {
        auto q = query::parseQuery(sqls[i]);
        FUSION_CHECK(q.isOk());
        engine.scheduleAt(0.02 * static_cast<double>(i),
                          [&store, &captured, i, q]() {
                              store.queryAsync(
                                  q.value(),
                                  [&captured,
                                   i](Result<store::QueryOutcome> o) {
                                      captured[i].emplace(std::move(o));
                                  });
                          });
    }
    engine.run();

    ObsRun run;
    for (auto &outcome : captured) {
        FUSION_CHECK(outcome.has_value() && outcome->isOk());
        FUSION_CHECK(outcome->value().explain != nullptr);
        run.explainJson += outcome->value().explain->toJson();
        run.explainJson += "\n";
    }
    run.traceJson = store.obs().tracer.toChromeJson("fusion");
    run.metricsJson = store.obs().metrics.snapshot().toJson();
    run.timeseriesJson = store.obs().telemetry.toJson(engine.now());
    run.readRetries = testutil::faultCount(store, "read_retries");
    run.readTimeouts = testutil::faultCount(store, "read_timeouts");
    run.faults = testutil::faultCounters(store);
    ThreadPool::setSharedThreads(1);
    return run;
}

TEST(ObsDeterminismTest, TraceMetricsExplainIdenticalAcrossThreadCounts)
{
    ObsRun serial = runObservedWorkload(1);

    // The serial run exercised the machinery the layer exists to
    // observe: spans for puts and queries, fault counters > 0 from the
    // crash, and a degraded-read trail in the trace.
    EXPECT_NE(serial.traceJson.find("\"put\""), std::string::npos);
    EXPECT_NE(serial.traceJson.find("\"stripe_encode\""),
              std::string::npos);
    EXPECT_NE(serial.traceJson.find("\"query\""), std::string::npos);
    EXPECT_NE(serial.traceJson.find("\"filter_stage\""),
              std::string::npos);
    EXPECT_NE(serial.traceJson.find("\"projection_stage\""),
              std::string::npos);
    EXPECT_GT(serial.readRetries, 0u);
    EXPECT_NE(serial.metricsJson.find("fault.read_retries"),
              std::string::npos);
    EXPECT_NE(serial.metricsJson.find("query.latency_seconds"),
              std::string::npos);
    EXPECT_TRUE(jsonBalanced(serial.traceJson));
    EXPECT_TRUE(jsonBalanced(serial.metricsJson));

    // The timeseries snapshot saw the crash: the per-node health gauges
    // moved for the crashed node, chunk heat accumulated, and the
    // flight recorder dumped on both the crash event and the first
    // degraded read. Healthy nodes keep an exact 1.0 score.
    EXPECT_TRUE(jsonBalanced(serial.timeseriesJson));
    EXPECT_NE(serial.timeseriesJson.find("\"node\": 3"),
              std::string::npos);
    EXPECT_NE(serial.timeseriesJson.find("\"score\": 1"),
              std::string::npos);
    EXPECT_NE(serial.timeseriesJson.find("\"chunks\": [{"),
              std::string::npos);
    EXPECT_NE(serial.timeseriesJson.find("\"query.latency_seconds\""),
              std::string::npos);
    EXPECT_NE(serial.timeseriesJson.find("\"node_crash\""),
              std::string::npos);
    EXPECT_NE(serial.timeseriesJson.find("\"degraded_read\""),
              std::string::npos);
    EXPECT_NE(serial.metricsJson.find("health.node.3"),
              std::string::npos);
    EXPECT_NE(serial.metricsJson.find("health.flight_dumps"),
              std::string::npos);

    // The adaptive budget fails over instead of burning the full
    // fixed budget on every read to the crashed node: retries stay
    // well under the old maxReadRetries * timeouts product.
    EXPECT_LT(serial.readRetries,
              3 * serial.readTimeouts);

    // A dump written through the exporter is the same bytes.
    std::string path = ::testing::TempDir() + "obs_test_trace.json";
    ASSERT_TRUE(obs::writeTextFile(path, serial.traceJson));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), serial.traceJson);

    for (size_t threads : {2, 4}) {
        ObsRun pooled = runObservedWorkload(threads);
        EXPECT_EQ(pooled.traceJson, serial.traceJson)
            << "trace differs at threads=" << threads;
        EXPECT_EQ(pooled.metricsJson, serial.metricsJson)
            << "metrics differ at threads=" << threads;
        EXPECT_EQ(pooled.explainJson, serial.explainJson)
            << "explain differs at threads=" << threads;
        EXPECT_EQ(pooled.timeseriesJson, serial.timeseriesJson)
            << "timeseries differs at threads=" << threads;
        EXPECT_TRUE(pooled.faults == serial.faults);
    }
}

TEST(ObsDeterminismTest, CacheEnabledRunIdenticalAcrossThreadCounts)
{
    // Same crash/revive schedule, cache tier on: the hit/miss/eviction
    // sequence, the cache_lookup spans and the cached-local verdicts
    // must all be byte-identical at any FUSION_THREADS value.
    const uint64_t cache_bytes = 64 << 20;
    ObsRun serial = runObservedWorkload(1, cache_bytes);

    EXPECT_NE(serial.traceJson.find("\"cache_lookup\""),
              std::string::npos);
    EXPECT_NE(serial.explainJson.find("cached-local"), std::string::npos);
    EXPECT_NE(serial.metricsJson.find("cache.chunk.hits"),
              std::string::npos);
    EXPECT_NE(serial.metricsJson.find("cache.chunk.bytes"),
              std::string::npos);
    EXPECT_GT(serial.readRetries, 0u);
    EXPECT_TRUE(jsonBalanced(serial.traceJson));
    EXPECT_TRUE(jsonBalanced(serial.metricsJson));

    for (size_t threads : {2, 4}) {
        ObsRun pooled = runObservedWorkload(threads, cache_bytes);
        EXPECT_EQ(pooled.traceJson, serial.traceJson)
            << "trace differs at threads=" << threads;
        EXPECT_EQ(pooled.metricsJson, serial.metricsJson)
            << "metrics differ at threads=" << threads;
        EXPECT_EQ(pooled.explainJson, serial.explainJson)
            << "explain differs at threads=" << threads;
        EXPECT_EQ(pooled.timeseriesJson, serial.timeseriesJson)
            << "timeseries differs at threads=" << threads;
        EXPECT_TRUE(pooled.faults == serial.faults);
    }
}

// ---------------------------------------------------------------------
// Overhead guard: disabled instrumentation on the hot predicate loop.
// ---------------------------------------------------------------------

TEST(OverheadGuardTest, DisabledTracingCostsUnderTwoPercent)
{
    Rng rng(17);
    ColumnData col(PhysicalType::kInt64);
    const size_t kRows = 1 << 18;
    for (size_t i = 0; i < kRows; ++i)
        col.append(rng.uniformInt(0, 1 << 20));
    const Value lit(static_cast<int64_t>(1 << 19));

    obs::Tracer tracer; // disabled, as in production default
    obs::MetricsRegistry registry;
    obs::Counter &calls = registry.counter("guard.calls");

    // The bench_kernels predicate loop, plain...
    uint64_t sink = 0;
    auto plain_pass = [&]() {
        auto r = query::evalPredicate(col, CompareOp::kLt, lit);
        FUSION_CHECK(r.isOk());
        sink += r.value().count();
    };
    // ...and with the store's per-stage instrumentation pattern: one
    // disabled span plus one counter bump around each kernel call.
    auto instrumented_pass = [&]() {
        uint64_t span = tracer.beginSpan("filter_stage");
        calls.add();
        auto r = query::evalPredicate(col, CompareOp::kLt, lit);
        FUSION_CHECK(r.isOk());
        sink += r.value().count();
        tracer.endSpan(span);
    };

    auto now = []() { return walltime::monotonicSeconds(); };
    const int kIters = 24;
    auto time_once = [&](auto &&pass) {
        double start = now();
        for (int i = 0; i < kIters; ++i)
            pass();
        return now() - start;
    };

    // Warm both paths, then interleave trials and keep the best of
    // each — the minimum is the noise-free estimate. Wall-clock noise
    // (frequency scaling, CI neighbors) can still exceed the 2% bound
    // in one measurement window, so keep the best ratio over a few
    // independent attempts; the true overhead is a branch and one
    // relaxed atomic per kernel call, far below the bound.
    plain_pass();
    instrumented_pass();
    double ratio = 1e300;
    for (int attempt = 0; attempt < 3 && ratio > 1.02; ++attempt) {
        double best_plain = 1e300, best_instrumented = 1e300;
        for (int trial = 0; trial < 8; ++trial) {
            best_plain = std::min(best_plain, time_once(plain_pass));
            best_instrumented =
                std::min(best_instrumented, time_once(instrumented_pass));
        }
        ratio = std::min(ratio, best_instrumented / best_plain);
    }

    EXPECT_NE(sink, 0u);
    EXPECT_EQ(tracer.spanCount(), 0u); // disabled: nothing recorded
    EXPECT_GT(calls.value(), 0u);
    EXPECT_LE(ratio, 1.02) << "instrumented/plain best-time ratio";
}

} // namespace
} // namespace fusion
