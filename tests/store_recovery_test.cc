/**
 * @file
 * Recovery and degraded-read robustness tests: node crashes during
 * scans must be healed bit-exactly by parity reconstruction, queries
 * must survive up to n-k simultaneous failures with results identical
 * to the fault-free run, anything beyond tolerance must fail with a
 * clean Status (never a crash), and the retry/backoff/fallback
 * machinery must be observable through the store's fault counters.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>

#include "common/thread_pool.h"
#include "fault_counters.h"
#include "query/parser.h"
#include "sim/fault.h"
#include "store/baseline_store.h"
#include "store/fusion_store.h"
#include "workload/lineitem.h"

namespace fusion::store {
namespace {

using testutil::faultBackoffSeconds;
using testutil::faultCount;

struct TestRig {
    std::unique_ptr<sim::Cluster> cluster;
    std::unique_ptr<ObjectStore> store;
    std::unique_ptr<sim::FaultInjector> faults;
};

TestRig
makeRig(bool fusion, StoreOptions options = {}, size_t nodes = 9)
{
    TestRig rig;
    sim::ClusterConfig config;
    config.numNodes = nodes;
    rig.cluster = std::make_unique<sim::Cluster>(config);
    if (fusion)
        rig.store = std::make_unique<FusionStore>(*rig.cluster, options);
    else
        rig.store = std::make_unique<BaselineStore>(*rig.cluster, options);
    return rig;
}

Bytes
lineitemBytes(size_t rows = 4000, uint64_t seed = 7)
{
    static std::map<std::pair<size_t, uint64_t>, Bytes> cache;
    auto key = std::make_pair(rows, seed);
    auto it = cache.find(key);
    if (it == cache.end()) {
        auto file = workload::buildLineitemFile(rows, seed);
        FUSION_CHECK(file.isOk());
        it = cache.emplace(key, file.value().bytes).first;
    }
    return it->second;
}

query::Query
sql(const std::string &text)
{
    auto q = query::parseQuery(text);
    FUSION_CHECK_MSG(q.isOk(), q.status().toString());
    return q.value();
}

/** Issues each query at its scheduled simulated time and runs the
 *  engine to completion. */
std::vector<Result<QueryOutcome>>
runAt(ObjectStore &store,
      const std::vector<std::pair<double, query::Query>> &timeline)
{
    std::vector<std::optional<Result<QueryOutcome>>> captured(
        timeline.size());
    sim::SimEngine &engine = store.cluster().engine();
    for (size_t i = 0; i < timeline.size(); ++i) {
        engine.scheduleAt(timeline[i].first, [&store, &captured, &timeline,
                                              i]() {
            store.queryAsync(timeline[i].second,
                             [&captured, i](Result<QueryOutcome> outcome) {
                                 captured[i].emplace(std::move(outcome));
                             });
        });
    }
    engine.run();
    std::vector<Result<QueryOutcome>> out;
    for (auto &c : captured) {
        FUSION_CHECK_MSG(c.has_value(), "query did not complete");
        out.push_back(std::move(*c));
    }
    return out;
}

void
expectSameResults(const query::QueryResult &a, const query::QueryResult &b)
{
    EXPECT_EQ(a.rowsMatched, b.rowsMatched);
    ASSERT_EQ(a.columns.size(), b.columns.size());
    for (size_t c = 0; c < a.columns.size(); ++c) {
        EXPECT_EQ(a.columns[c].isAggregate, b.columns[c].isAggregate);
        if (a.columns[c].isAggregate)
            EXPECT_DOUBLE_EQ(a.columns[c].aggregateValue,
                             b.columns[c].aggregateValue);
        else
            EXPECT_TRUE(a.columns[c].values == b.columns[c].values);
    }
}

TEST(RecoveryTest, SingleNodeCrashReconstructsEveryChunkBitExact)
{
    Bytes object = lineitemBytes();
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    rig.cluster->killNode(4);
    rig.store->dropCaches();

    // get() walks every chunk of the object; blocks on the dead node
    // must be rebuilt from parity and the result must be bit-exact.
    auto back = rig.store->get("lineitem");
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(back.value(), object);

    EXPECT_GE(faultCount(*rig.store, "parity_reconstructions"), 1u);
    EXPECT_GE(faultCount(*rig.store, "degraded_chunk_reads"), 1u);
    EXPECT_GE(faultCount(*rig.store, "read_timeouts"), 1u);
    EXPECT_GT(faultBackoffSeconds(*rig.store), 0.0);
}

// Acceptance: downing ANY single data node mid-workload keeps all
// query results identical to the fault-free run, with at least one
// parity reconstruction and one pushdown fallback reported.
TEST(RecoveryTest, AnySingleNodeCrashMidQueryKeepsResultsIdentical)
{
    Bytes object = lineitemBytes();

    // Distinct SQL per phase so the memoized data plane re-executes
    // while the fault is active.
    std::vector<std::pair<double, query::Query>> timeline = {
        {0.0, sql("SELECT l_orderkey FROM lineitem "
                  "WHERE l_quantity < 5")},
        {0.02, sql("SELECT * FROM lineitem WHERE l_quantity < 30")},
        {0.03, sql("SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem "
                   "WHERE l_discount >= 0.03")},
        {0.06, sql("SELECT l_comment FROM lineitem "
                   "WHERE l_extendedprice < 20000")},
    };

    TestRig healthy = makeRig(true);
    ASSERT_TRUE(healthy.store->put("lineitem", object).isOk());
    auto expected = runAt(*healthy.store, timeline);

    for (size_t victim = 0; victim < 9; ++victim) {
        TestRig rig = makeRig(true);
        ASSERT_TRUE(rig.store->put("lineitem", object).isOk());
        sim::FaultSchedule schedule;
        schedule.crashAt(0.01, victim).reviveAt(0.05, victim);
        rig.faults = std::make_unique<sim::FaultInjector>(*rig.cluster,
                                                          schedule);
        rig.faults->arm();

        auto outcomes = runAt(*rig.store, timeline);
        ASSERT_EQ(outcomes.size(), expected.size());
        for (size_t i = 0; i < outcomes.size(); ++i) {
            ASSERT_TRUE(outcomes[i].isOk())
                << "victim " << victim << ": "
                << outcomes[i].status().toString();
            expectSameResults(outcomes[i].value().result,
                              expected[i].value().result);
        }
        EXPECT_GE(faultCount(*rig.store, "parity_reconstructions"), 1u)
            << "victim " << victim;
        EXPECT_GE(faultCount(*rig.store, "pushdown_fallbacks"), 1u)
            << "victim " << victim;
    }
}

TEST(RecoveryTest, NMinusKSimultaneousFailuresStillAnswerQueries)
{
    Bytes object = lineitemBytes();
    TestRig healthy = makeRig(true);
    TestRig rig = makeRig(true);
    ASSERT_TRUE(healthy.store->put("lineitem", object).isOk());
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    // RS(9,6): n - k = 3 simultaneous failures are tolerated.
    rig.cluster->killNode(1);
    rig.cluster->killNode(5);
    rig.cluster->killNode(8);
    rig.store->dropCaches();

    auto back = rig.store->get("lineitem");
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(back.value(), object);

    const char *queries[] = {
        "SELECT l_orderkey FROM lineitem WHERE l_quantity < 10",
        "SELECT COUNT(*), MAX(l_extendedprice) FROM lineitem "
        "WHERE l_discount < 0.05",
        "SELECT * FROM lineitem WHERE l_orderkey < 100",
    };
    for (const char *text : queries) {
        auto degraded = rig.store->querySql(text);
        auto reference = healthy.store->querySql(text);
        ASSERT_TRUE(degraded.isOk()) << text << ": "
                                     << degraded.status().toString();
        ASSERT_TRUE(reference.isOk());
        expectSameResults(degraded.value().result,
                          reference.value().result);
    }
    EXPECT_GE(faultCount(*rig.store, "parity_reconstructions"), 1u);
}

TEST(RecoveryTest, BeyondToleranceFailsWithCleanStatus)
{
    Bytes object = lineitemBytes();
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    // n - k + 1 = 4 failures: unrecoverable, but never a crash.
    for (size_t victim : {0, 2, 4, 6})
        rig.cluster->killNode(victim);
    rig.store->dropCaches();

    auto back = rig.store->get("lineitem");
    ASSERT_FALSE(back.isOk());
    EXPECT_EQ(back.status().code(), StatusCode::kUnavailable);
    // The error names the shortfall.
    EXPECT_NE(back.status().toString().find("need"), std::string::npos);

    auto outcome = rig.store->querySql(
        "SELECT l_orderkey FROM lineitem WHERE l_quantity < 5");
    ASSERT_FALSE(outcome.isOk());
    EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);

    // Reviving one node makes the object readable again.
    rig.cluster->reviveNode(0);
    rig.store->dropCaches();
    auto healed = rig.store->get("lineitem");
    ASSERT_TRUE(healed.isOk()) << healed.status().toString();
    EXPECT_EQ(healed.value(), object);
}

TEST(RecoveryTest, RetryBackoffIsBoundedAndCounted)
{
    StoreOptions options;
    options.maxReadRetries = 4;
    options.retryBackoffBaseSeconds = 1e-3;
    options.retryBackoffMaxSeconds = 2e-3; // cap below 1+2+4+8 growth
    Bytes object = lineitemBytes();
    TestRig rig = makeRig(true, options);
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    rig.cluster->killNode(3);
    rig.store->dropCaches();
    ASSERT_TRUE(rig.store->get("lineitem").isOk());

    const uint64_t timeouts = faultCount(*rig.store, "read_timeouts");
    ASSERT_GE(timeouts, 1u);
    // Health-adaptive budget: the first timed-out read burns the full
    // configured budget; every later read against the now-dead node
    // fails fast with a single probe retry (obs::NodeHealthTracker
    // bands the node "dead" once a timeout streak is open with no flap
    // evidence), falling over to parity reconstruction early.
    EXPECT_EQ(faultCount(*rig.store, "read_retries"),
              options.maxReadRetries + (timeouts - 1));
    // Bounded exponential backoff: 1 + 2 + 2 + 2 ms for the first
    // timed-out read, then the 1 ms probe per fail-fast read.
    EXPECT_NEAR(faultBackoffSeconds(*rig.store),
                7e-3 + 1e-3 * static_cast<double>(timeouts - 1), 1e-9);
}

TEST(RecoveryTest, FlappingNodeRecoversDuringBackoffWithoutRebuild)
{
    Bytes object = lineitemBytes();
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    // Node 2 blinks: down just before the query is planned, back
    // within the first retry's backoff window (base 1 ms).
    sim::FaultSchedule schedule;
    schedule.crashAt(0.0005, 2).reviveAt(0.0018, 2);
    rig.faults = std::make_unique<sim::FaultInjector>(*rig.cluster,
                                                      schedule);
    rig.faults->arm();

    auto outcomes = runAt(
        *rig.store,
        {{0.001, sql("SELECT * FROM lineitem WHERE l_quantity < 30")}});
    ASSERT_TRUE(outcomes[0].isOk()) << outcomes[0].status().toString();

    EXPECT_GE(faultCount(*rig.store, "read_retries"), 1u);
    // The retry found the node alive again: no block was declared
    // lost, so nothing was rebuilt from parity.
    EXPECT_EQ(faultCount(*rig.store, "read_timeouts"), 0u);
    EXPECT_EQ(faultCount(*rig.store, "parity_reconstructions"), 0u);
}

TEST(RecoveryTest, GrayFailureTriggersPushdownFallback)
{
    Bytes object = lineitemBytes();
    TestRig healthy = makeRig(true);
    TestRig rig = makeRig(true);
    ASSERT_TRUE(healthy.store->put("lineitem", object).isOk());
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    // Slow (not dead): modeled response 100 x 150us >> 1 ms timeout,
    // so reads treat the node as unresponsive and queries reroute.
    rig.cluster->node(6).setSlowFactor(100.0);
    rig.store->dropCaches();

    const char *text = "SELECT * FROM lineitem WHERE l_quantity < 20";
    auto slow = rig.store->querySql(text);
    auto reference = healthy.store->querySql(text);
    ASSERT_TRUE(slow.isOk()) << slow.status().toString();
    ASSERT_TRUE(reference.isOk());
    expectSameResults(slow.value().result, reference.value().result);

    EXPECT_GE(slow.value().pushdownFallbacks, 1u);
    EXPECT_GE(faultCount(*rig.store, "pushdown_fallbacks"), 1u);
    EXPECT_GE(faultCount(*rig.store, "parity_reconstructions"), 1u);

    // Restored node serves pushdowns again (fresh plan, no fallback).
    rig.cluster->node(6).setSlowFactor(1.0);
    auto restored = rig.store->querySql(
        "SELECT * FROM lineitem WHERE l_quantity < 21");
    ASSERT_TRUE(restored.isOk());
    EXPECT_EQ(restored.value().pushdownFallbacks, 0u);
}

TEST(RecoveryTest, BaselineStoreSurvivesFaultsToo)
{
    StoreOptions options;
    options.fixedBlockSize = 4 << 10;
    Bytes object = lineitemBytes();
    TestRig healthy = makeRig(false, options);
    TestRig rig = makeRig(false, options);
    ASSERT_TRUE(healthy.store->put("lineitem", object).isOk());
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    rig.cluster->killNode(0);
    rig.cluster->killNode(7);
    rig.store->dropCaches();

    const char *text =
        "SELECT l_orderkey FROM lineitem WHERE l_quantity < 15";
    auto degraded = rig.store->querySql(text);
    auto reference = healthy.store->querySql(text);
    ASSERT_TRUE(degraded.isOk()) << degraded.status().toString();
    ASSERT_TRUE(reference.isOk());
    expectSameResults(degraded.value().result, reference.value().result);
    EXPECT_GE(faultCount(*rig.store, "parity_reconstructions"), 1u);
}

// ---------------------------------------------------------------------
// Coordinator hot-chunk cache under faults: degraded reads must never
// leave (or serve) a stale cache entry.
// ---------------------------------------------------------------------

TEST(RecoveryCacheTest, DegradedReadsInvalidateCachedChunks)
{
    Bytes object = lineitemBytes();
    StoreOptions cached_options;
    cached_options.cacheBytes = 64 << 20;
    TestRig rig = makeRig(true, cached_options);
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    // Warm the cache: fetch verdicts admit every quantity chunk.
    auto warm = rig.store->querySql(
        "SELECT l_quantity FROM lineitem WHERE l_quantity < 45");
    ASSERT_TRUE(warm.isOk());
    ASSERT_GT(warm.value().projectionFetches, 0u);
    ASSERT_GT(rig.store->chunkCache().entryCount(), 0u);

    // Kill a node that actually holds a cached quantity chunk so the
    // re-read is degraded.
    const ObjectManifest &m = *rig.store->manifest("lineitem").value();
    const size_t victim =
        m.nodesForChunk(rig.store->chunkCache().residentKeys()[0].second)
            .at(0);
    rig.cluster->killNode(victim);
    rig.store->dropCaches(); // memoization only; chunk cache survives

    // A new literal forces the data plane to re-execute against the
    // dead node: chunks with pieces there are reconstructed from
    // parity, and each reconstruction invalidates its cache entry.
    auto degraded = rig.store->querySql(
        "SELECT l_quantity FROM lineitem WHERE l_quantity < 40");
    ASSERT_TRUE(degraded.isOk()) << degraded.status().toString();
    EXPECT_GE(faultCount(*rig.store, "parity_reconstructions"), 1u);

    // No surviving entry may involve the dead node — every cached
    // chunk that did was touched by a degraded read and dropped.
    for (const auto &key : rig.store->chunkCache().residentKeys()) {
        for (const auto &piece : m.chunkPieces.at(key.second))
            EXPECT_NE(m.stripeNodes[piece.stripe][piece.blockIndex],
                      victim)
                << "stale cache entry for chunk " << key.second;
    }

    // And the degraded result matches a cache-off reference under the
    // same fault — reconstructed bytes were never served stale.
    TestRig reference = makeRig(true);
    ASSERT_TRUE(reference.store->put("lineitem", object).isOk());
    reference.cluster->killNode(victim);
    reference.store->dropCaches();
    auto expected = reference.store->querySql(
        "SELECT l_quantity FROM lineitem WHERE l_quantity < 40");
    ASSERT_TRUE(expected.isOk());
    expectSameResults(degraded.value().result, expected.value().result);
}

TEST(RecoveryCacheTest, CrashReviveScheduleMatchesCacheOffReference)
{
    // Fault-schedule regression: a crash/revive window sweeps across a
    // cache-enabled workload; every result must match the same
    // timeline on a cache-off rig under the same schedule, while the
    // cache demonstrably serves hits.
    Bytes object = lineitemBytes();
    std::vector<std::pair<double, query::Query>> timeline = {
        {0.0, sql("SELECT l_quantity FROM lineitem "
                  "WHERE l_quantity < 45")}, // warms the cache
        {0.1, sql("SELECT l_quantity FROM lineitem "
                  "WHERE l_quantity < 44")}, // during the crash
        {0.2, sql("SELECT SUM(l_quantity) FROM lineitem "
                  "WHERE l_quantity < 43")}, // still during the crash
        {0.6, sql("SELECT l_quantity FROM lineitem "
                  "WHERE l_quantity < 42")}, // after the revive
    };

    // Crash a node that holds a quantity chunk (placement is a pure
    // function of the object bytes, so a probe rig finds one).
    size_t victim;
    {
        StoreOptions probe_options;
        probe_options.cacheBytes = 64 << 20;
        TestRig probe = makeRig(true, probe_options);
        ASSERT_TRUE(probe.store->put("lineitem", object).isOk());
        ASSERT_TRUE(probe.store
                        ->querySql("SELECT l_quantity FROM lineitem "
                                   "WHERE l_quantity < 45")
                        .isOk());
        const auto resident = probe.store->chunkCache().residentKeys();
        ASSERT_FALSE(resident.empty());
        const ObjectManifest &m =
            *probe.store->manifest("lineitem").value();
        victim = m.nodesForChunk(resident[0].second).at(0);
    }

    auto run = [&object, &timeline, victim](uint64_t cache_bytes) {
        StoreOptions options;
        options.cacheBytes = cache_bytes;
        TestRig rig = makeRig(true, options);
        FUSION_CHECK(rig.store->put("lineitem", object).isOk());
        sim::FaultSchedule schedule;
        schedule.crashAt(0.05, victim).reviveAt(0.4, victim);
        rig.faults = std::make_unique<sim::FaultInjector>(*rig.cluster,
                                                          schedule);
        rig.faults->arm();
        // Drop the memoization caches inside the crash window so the
        // 0.1+ queries re-execute their data planes against the dead
        // node (the semantic chunk cache survives this).
        rig.cluster->engine().scheduleAt(
            0.08, [store = rig.store.get()]() { store->dropCaches(); });
        auto outcomes = runAt(*rig.store, timeline);
        return std::make_pair(std::move(rig), std::move(outcomes));
    };

    auto [cached_rig, cached] = run(64 << 20);
    auto [plain_rig, plain] = run(0);
    ASSERT_EQ(cached.size(), plain.size());
    for (size_t i = 0; i < cached.size(); ++i) {
        ASSERT_TRUE(cached[i].isOk()) << cached[i].status().toString();
        ASSERT_TRUE(plain[i].isOk());
        expectSameResults(cached[i].value().result,
                          plain[i].value().result);
    }
    // The schedule actually bit, and the cache actually served.
    EXPECT_GE(faultCount(*cached_rig.store, "degraded_chunk_reads"), 1u);
    EXPECT_GT(cached_rig.store->chunkCache().hits(), 0u);
}

// ---------------------------------------------------------------------
// Lifecycle: a node crashes in the window between a delta log sealing
// and the background fold landing. The old generation plus the full log
// must stay bit-readable (degraded) inside the window, the fold itself
// must complete through parity reconstruction, and every byte of it
// must be identical for any worker-thread count.
// ---------------------------------------------------------------------

struct CompactionCrashRun {
    Bytes midWindowBytes; // get() probed while the fold was in flight
    Bytes finalBytes;     // get() after the fold landed, node still dead
    uint64_t generation = 0;
    uint64_t runs = 0;
    uint64_t aborts = 0;
    uint64_t parityReconstructions = 0;
    std::string metricsJson;
};

CompactionCrashRun
runCrashMidCompaction(size_t threads)
{
    ThreadPool::setSharedThreads(threads);

    StoreOptions options;
    options.compaction.maxDeltaSegments = 2;
    TestRig rig = makeRig(true, options);
    FUSION_CHECK(rig.store->put("lineitem", lineitemBytes()).isOk());
    format::Table batch_a = workload::makeLineitemTable(80, 61);
    format::Table batch_b = workload::makeLineitemTable(80, 62);
    FUSION_CHECK(rig.store->lifecycle().append("lineitem", batch_a).isOk());
    // The second append crosses maxDeltaSegments: the log seals and the
    // fold is scheduled estimatedFoldSeconds ahead.
    FUSION_CHECK(rig.store->lifecycle().append("lineitem", batch_b).isOk());
    double fold_delay =
        rig.store->lifecycle().estimatedFoldSeconds("lineitem");
    FUSION_CHECK(fold_delay > 0.0);

    // Crash a node halfway through the compaction window; it never
    // comes back, so both the mid-window merge and the fold itself run
    // degraded through parity reconstruction.
    sim::FaultSchedule schedule;
    schedule.crashAt(0.5 * fold_delay, 3);
    rig.faults =
        std::make_unique<sim::FaultInjector>(*rig.cluster, schedule);
    rig.faults->arm();

    CompactionCrashRun run;
    sim::SimEngine &engine = rig.cluster->engine();
    engine.scheduleAt(0.6 * fold_delay, [&rig, &run]() {
        auto mid = rig.store->get("lineitem");
        FUSION_CHECK_MSG(mid.isOk(), mid.status().toString());
        run.midWindowBytes = std::move(mid.value());
    });
    engine.run();

    auto final_bytes = rig.store->get("lineitem");
    FUSION_CHECK_MSG(final_bytes.isOk(), final_bytes.status().toString());
    run.finalBytes = std::move(final_bytes.value());
    auto m = rig.store->manifest("lineitem");
    FUSION_CHECK(m.isOk());
    run.generation = m.value()->generation;
    run.runs = rig.store->obs().metrics.counter("compaction.runs").value();
    run.aborts =
        rig.store->obs().metrics.counter("compaction.aborts").value();
    run.parityReconstructions =
        faultCount(*rig.store, "parity_reconstructions");
    run.metricsJson = rig.store->obs().metrics.snapshot().toJson();
    ThreadPool::setSharedThreads(1);
    return run;
}

TEST(RecoveryLifecycleTest, CrashMidCompactionStaysReadableAllThreadCounts)
{
    // The reference image every probe must match: base + both batches
    // re-serialized under the base's row-group geometry (4000 rows in
    // 10 groups of 400 — the store probes the first group's size).
    format::Table merged = workload::makeLineitemTable(4000, 7);
    for (uint64_t seed : {61, 62}) {
        format::Table batch = workload::makeLineitemTable(80, seed);
        for (size_t col = 0; col < merged.numColumns(); ++col)
            for (size_t i = 0; i < batch.column(col).size(); ++i)
                merged.column(col).appendValue(
                    batch.column(col).valueAt(i));
    }
    format::WriterOptions writer_options;
    writer_options.rowGroupRows = 400;
    auto want = format::writeTable(merged, writer_options);
    ASSERT_TRUE(want.isOk());

    CompactionCrashRun serial = runCrashMidCompaction(1);
    // Mid-window: the fold had not landed, yet the degraded merged
    // read already equals the future compacted base bit-for-bit.
    EXPECT_EQ(serial.midWindowBytes, want.value().bytes);
    // Post-fold: generation bumped, log folded, node still dead — the
    // new base reads back identical through parity.
    EXPECT_EQ(serial.finalBytes, want.value().bytes);
    EXPECT_EQ(serial.generation, 1u);
    EXPECT_EQ(serial.runs, 1u);
    EXPECT_EQ(serial.aborts, 0u);
    EXPECT_GT(serial.parityReconstructions, 0u);

    for (size_t threads : {size_t{2}, size_t{4}}) {
        CompactionCrashRun run = runCrashMidCompaction(threads);
        EXPECT_EQ(run.midWindowBytes, serial.midWindowBytes)
            << threads << " threads";
        EXPECT_EQ(run.finalBytes, serial.finalBytes)
            << threads << " threads";
        EXPECT_EQ(run.generation, serial.generation);
        EXPECT_EQ(run.runs, serial.runs);
        EXPECT_EQ(run.aborts, serial.aborts);
        EXPECT_EQ(run.metricsJson, serial.metricsJson)
            << threads << " threads";
    }
}

TEST(RecoveryTest, RepairAfterMediaLossCountsReconstructions)
{
    Bytes object = lineitemBytes();
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    size_t victim = 5;
    rig.cluster->killNode(victim);
    rig.cluster->node(victim).wipe();
    rig.cluster->reviveNode(victim);

    auto rebuilt = rig.store->repairNode(victim);
    ASSERT_TRUE(rebuilt.isOk()) << rebuilt.status().toString();
    EXPECT_GT(rebuilt.value(), 0u);
    EXPECT_EQ(faultCount(*rig.store, "parity_reconstructions"),
              rebuilt.value());

    rig.store->dropCaches();
    auto back = rig.store->get("lineitem");
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), object);
}

// A lost FAC chunk is one byte range of one block, so a degraded read
// pulls only that range from k survivors: the plan's survivor reads sum
// to the clipped ranges (well under k whole blocks), the host rebuild
// reads the same bytes, and results and counters do not depend on
// FUSION_THREADS. Repair still rebuilds whole blocks.
TEST(RecoveryTest, DegradedReadsRebuildOnlyTheLostRange)
{
    Bytes object = lineitemBytes();
    const query::Query q =
        sql("SELECT l_orderkey FROM lineitem WHERE l_quantity < 20");
    TestRig healthy = makeRig(true);
    ASSERT_TRUE(healthy.store->put("lineitem", object).isOk());
    auto reference = healthy.store->query(q);
    ASSERT_TRUE(reference.isOk());

    const size_t victim = 4;
    const size_t n = 9, k = 6;
    std::optional<obs::MetricsSnapshot> serial_counters;
    for (size_t threads : {1, 2, 4}) {
        ThreadPool::setSharedThreads(threads);
        TestRig rig = makeRig(true);
        ASSERT_TRUE(rig.store->put("lineitem", object).isOk());
        rig.cluster->killNode(victim);
        const ObjectManifest &m = *rig.store->manifest("lineitem").value();

        auto plan = rig.store->planQueryForBatch(q);
        ASSERT_TRUE(plan.isOk()) << plan.status().toString();
        std::map<uint32_t, uint64_t> survivor_bytes; // per lost chunk
        for (const auto *tasks :
             {&plan.value()->filterTasks, &plan.value()->projectionTasks})
            for (const auto &task : *tasks)
                if (task.shareKey.rfind("stripe|", 0) == 0)
                    survivor_bytes[task.chunkId] += task.replyBytes;
        ASSERT_FALSE(survivor_bytes.empty());

        uint64_t total = 0;
        for (const auto &[chunk_id, bytes] : survivor_bytes) {
            // Expected: the chunk's range on each of the first k
            // survivors of its stripe, clipped to the survivor's true
            // size (data blocks are stored unpadded).
            const auto &pieces = m.chunkPieces.at(chunk_id);
            ASSERT_EQ(pieces.size(), 1u);
            const PieceLocation &piece = pieces[0];
            ASSERT_EQ(m.stripeNodes[piece.stripe][piece.blockIndex], victim);
            const fac::StripeLayout &ls = m.layout.stripes[piece.stripe];
            uint64_t expected = 0;
            size_t used = 0;
            for (size_t b = 0; b < n && used < k; ++b) {
                if (b == piece.blockIndex)
                    continue;
                const uint64_t size =
                    b >= k ? ls.blockSize()
                    : b < ls.dataBlocks.size() ? ls.dataBlocks[b].size()
                                               : 0;
                const uint64_t hi =
                    std::min(piece.blockOffset + piece.size, size);
                expected += hi > piece.blockOffset ? hi - piece.blockOffset
                                                   : 0;
                ++used;
            }
            EXPECT_EQ(bytes, expected) << "chunk " << chunk_id;
            EXPECT_LT(piece.size, ls.blockSize()) << "chunk " << chunk_id;
            EXPECT_LT(bytes, k * ls.blockSize()) << "chunk " << chunk_id;
            total += bytes;
        }
        // The host rebuild read exactly the bytes the plan moves.
        EXPECT_EQ(faultCount(*rig.store, "rebuild_read_bytes"), total);
        EXPECT_EQ(faultCount(*rig.store, "parity_reconstructions"),
                  survivor_bytes.size());

        rig.store->dropCaches();
        auto degraded = rig.store->query(q);
        ASSERT_TRUE(degraded.isOk()) << degraded.status().toString();
        expectSameResults(degraded.value().result,
                          reference.value().result);
        const obs::MetricsSnapshot counters =
            testutil::faultCounters(*rig.store);
        if (!serial_counters)
            serial_counters = counters;
        EXPECT_TRUE(counters == *serial_counters) << threads << " threads";

        // Media loss on the victim: repair rebuilds its whole blocks.
        rig.cluster->node(victim).wipe();
        rig.cluster->reviveNode(victim);
        auto rebuilt = rig.store->repairNode(victim);
        ASSERT_TRUE(rebuilt.isOk()) << rebuilt.status().toString();
        EXPECT_EQ(rebuilt.value(), m.blocksOnNode(victim).size());
        for (const auto &ref : m.blocksOnNode(victim)) {
            const std::string key = m.blockKey(ref.stripe, ref.blockIndex);
            const Bytes *block = rig.cluster->node(victim).findBlock(key);
            const Bytes *original =
                healthy.cluster->node(victim).findBlock(key);
            ASSERT_NE(block, nullptr);
            ASSERT_NE(original, nullptr);
            EXPECT_EQ(*block, *original)
                << "stripe " << ref.stripe << " block " << ref.blockIndex;
        }
    }
    ThreadPool::setSharedThreads(1);
}

} // namespace
} // namespace fusion::store
