/**
 * @file
 * Shared-scan scheduler tests: the shared Cost Equation extension, the
 * sharded chunk-location map it leans on, cross-query dedup (shared
 * fetches, merged pushdowns, load shedding) with the sched.* metrics
 * and EXPLAIN reasons they emit, result equivalence against isolated
 * execution, wire-byte savings on overlapping batches, the async
 * QueryHandle API (reusable handles, caller tags, awaitAny harvest
 * order), the continuous admission window (pre-issue joins with the
 * "joined-inflight" EXPLAIN reason, the issue-time generation
 * boundary, mid-window conversion to shared fetch with cache
 * admission, per-node dedup stats), and the determinism contract —
 * scheduler metrics, trace and EXPLAIN output byte-identical across
 * FUSION_THREADS values, including open-loop arrivals under a crash
 * fault schedule — and the data-plane memo's invisibility: dropping it
 * before every submit changes no outcome and no cache or wire counter.
 */
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "query/cost.h"
#include "query/parser.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"
#include "sim/fault.h"
#include "store/baseline_store.h"
#include "store/fusion_store.h"
#include "workload/lineitem.h"
#include "workload/queries.h"

namespace fusion {
namespace {

// ---------------------------------------------------------------------
// The Cost Equation over merged consumers (query::decidePushdown with
// the admission window's selectivity term).
// ---------------------------------------------------------------------

format::ChunkMeta
chunkMeta(uint64_t stored, uint64_t plain)
{
    format::ChunkMeta chunk;
    chunk.storedSize = stored;
    chunk.plainSize = plain;
    return chunk;
}

/** The window's selectivity term: merged reply bytes over plain size. */
double
mergedSelectivity(uint64_t merged_reply_bytes, const format::ChunkMeta &chunk)
{
    return static_cast<double>(merged_reply_bytes) /
           static_cast<double>(chunk.plainSize);
}

TEST(SharedCostTest, PushesWhenMergedRepliesBeatOneFetch)
{
    // 3:1 compressed chunk; merged replies of 200 KB vs a 1 MB fetch.
    const auto chunk = chunkMeta(1 << 20, 3 << 20);
    auto d = query::decidePushdown(mergedSelectivity(200 << 10, chunk),
                                   chunk, 0.0, 0.0);
    EXPECT_TRUE(d.push);
    EXPECT_FALSE(d.loadShed);
    EXPECT_LT(d.product(), 1.0);
}

TEST(SharedCostTest, FetchesWhenMergedRepliesExceedStoredSize)
{
    // Many consumers: summed replies outweigh fetching the chunk once.
    const auto chunk = chunkMeta(1 << 20, 3 << 20);
    auto d = query::decidePushdown(
        mergedSelectivity((1 << 20) + 1, chunk), chunk, 0.0, 0.0);
    EXPECT_FALSE(d.push);
    EXPECT_FALSE(d.loadShed);
}

TEST(SharedCostTest, LoadTermOverridesByteMath)
{
    const auto chunk = chunkMeta(1 << 20, 3 << 20);
    auto d = query::decidePushdown(mergedSelectivity(1 << 10, chunk), chunk,
                                   /*outstanding=*/0.5, /*limit=*/0.1);
    EXPECT_FALSE(d.push);
    EXPECT_TRUE(d.loadShed);

    // Limit 0 disables the term entirely.
    auto open = query::decidePushdown(mergedSelectivity(1 << 10, chunk),
                                      chunk, 0.5, 0.0);
    EXPECT_TRUE(open.push);
}

TEST(SharedCostTest, MergedSelectivityIsUnionOverPlainSize)
{
    const auto chunk = chunkMeta(3 << 20, 4 << 20);
    auto d = query::decidePushdown(mergedSelectivity(1 << 20, chunk), chunk,
                                   0.0, 0.0);
    EXPECT_DOUBLE_EQ(d.selectivity, 0.25);
    EXPECT_DOUBLE_EQ(d.compressibility, 4.0 / 3.0);
    // The product is the merged replies over the stored size.
    EXPECT_DOUBLE_EQ(d.product(), 1.0 / 3.0);
}

// ---------------------------------------------------------------------
// Sharded chunk-location map.
// ---------------------------------------------------------------------

struct Rig {
    std::unique_ptr<sim::Cluster> cluster;
    std::unique_ptr<store::FusionStore> store;
    format::Table table;
};

Rig
makeRig(size_t rows = 3000, bool observe = false)
{
    Rig rig;
    sim::ClusterConfig config;
    config.numNodes = 9;
    rig.cluster = std::make_unique<sim::Cluster>(config);
    rig.store = std::make_unique<store::FusionStore>(
        *rig.cluster, store::StoreOptions{});
    if (observe) {
        rig.store->obs().tracer.setEnabled(true);
        rig.store->obs().explainEnabled = true;
    }
    auto file = workload::buildLineitemFile(rows, 7);
    FUSION_CHECK(file.isOk());
    rig.table = workload::makeLineitemTable(rows, 7); // same seed = same data
    FUSION_CHECK(rig.store->put("lineitem", file.value().bytes).isOk());
    return rig;
}

TEST(LocationShardTest, NodeShardsCoverEveryBlockExactlyOnce)
{
    Rig rig = makeRig();
    const store::ObjectManifest &m =
        *rig.store->manifest("lineitem").value();

    // Union of all per-node shards == the full placement map, and each
    // shard holds only that node's blocks.
    size_t total = 0;
    for (size_t node = 0; node < rig.cluster->numNodes(); ++node) {
        for (const auto &ref : m.blocksOnNode(node)) {
            EXPECT_EQ(m.stripeNodes[ref.stripe][ref.blockIndex], node);
            EXPECT_NE(
                rig.cluster->node(node).findBlock(
                    m.blockKey(ref.stripe, ref.blockIndex)),
                nullptr);
            ++total;
        }
    }
    size_t stored_blocks = 0;
    for (size_t node = 0; node < rig.cluster->numNodes(); ++node)
        stored_blocks += rig.cluster->node(node).blockCount();
    EXPECT_EQ(total, stored_blocks);
    // Unknown node id: empty shard, no throw.
    EXPECT_TRUE(m.blocksOnNode(10'000).empty());
}

TEST(LocationShardTest, RepairUsesShardAndRestoresAllBlocks)
{
    Rig rig = makeRig();
    const store::ObjectManifest &m =
        *rig.store->manifest("lineitem").value();
    size_t victim = m.stripeNodes[0][0];
    size_t expected = m.blocksOnNode(victim).size();
    ASSERT_GT(expected, 0u);

    rig.cluster->node(victim).wipe();
    auto rebuilt = rig.store->repairNode(victim);
    ASSERT_TRUE(rebuilt.isOk());
    EXPECT_EQ(rebuilt.value(), expected);
    // Repair is idempotent: nothing left to rebuild.
    EXPECT_EQ(rig.store->repairNode(victim).value(), 0u);
}

// ---------------------------------------------------------------------
// Scheduler behaviour.
// ---------------------------------------------------------------------

std::string
resultFingerprint(const query::QueryResult &r)
{
    std::string s = std::to_string(r.rowsMatched) + "|" +
                    std::to_string(r.rowsScanned);
    for (const auto &c : r.columns) {
        // Appended piecewise: GCC 12's -Wrestrict false-positives on
        // the temporary from `"|" + c.name` (PR 105651).
        s += "|";
        s += c.name;
        if (c.isAggregate) {
            s += "=";
            s += std::to_string(c.aggregateValue);
            continue;
        }
        s += ":";
        for (size_t i = 0; i < c.values.size(); ++i) {
            s += c.values.valueAt(i).toString();
            s += ",";
        }
    }
    return s;
}

std::vector<query::Query>
overlappingBatch(const Rig &rig, size_t clients, double overlap)
{
    // The first ceil(overlap * clients) clients issue one shared
    // template; the rest get distinct selectivities and columns.
    std::vector<query::Query> batch;
    size_t shared =
        static_cast<size_t>(overlap * static_cast<double>(clients) + 0.5);
    const format::Schema schema = workload::lineitemSchema();
    auto make = [&](size_t col, double sel) {
        return workload::microbenchQuery("lineitem",
                                         schema.column(col).name,
                                         rig.table.column(col), sel);
    };
    query::Query tmpl = make(workload::kOrderKey, 0.02);
    const size_t cols[] = {workload::kPartKey, workload::kSuppKey,
                           workload::kQuantity,
                           workload::kExtendedPrice};
    for (size_t c = 0; c < clients; ++c) {
        if (c < shared)
            batch.push_back(tmpl);
        else
            batch.push_back(make(cols[c % std::size(cols)],
                                 0.01 + 0.01 * static_cast<double>(c % 4)));
    }
    return batch;
}

uint64_t
totalWireBytes(store::ObjectStore &store)
{
    obs::MetricsRegistry &reg = store.obs().metrics;
    return reg.counter("wire.filter.request_bytes").value() +
           reg.counter("wire.filter.reply_bytes").value() +
           reg.counter("wire.projection.request_bytes").value() +
           reg.counter("wire.projection.reply_bytes").value() +
           reg.counter("wire.client.request_bytes").value() +
           reg.counter("wire.client.reply_bytes").value();
}

TEST(SchedTest, BatchResultsMatchIsolatedExecution)
{
    Rig shared_rig = makeRig();
    Rig solo_rig = makeRig(); // identical build, independent cluster

    auto batch = overlappingBatch(shared_rig, 8, 0.5);
    sched::SharedScanScheduler scheduler(*shared_rig.store);
    auto outcomes = scheduler.runBatch(batch);
    ASSERT_TRUE(outcomes.isOk());
    ASSERT_EQ(outcomes.value().size(), batch.size());

    for (size_t i = 0; i < batch.size(); ++i) {
        auto solo = solo_rig.store->query(batch[i]);
        ASSERT_TRUE(solo.isOk());
        EXPECT_EQ(resultFingerprint(outcomes.value()[i].result),
                  resultFingerprint(solo.value().result))
            << "query " << i;
    }
}

TEST(SchedTest, OverlappingBatchSavesWireBytesAndLatency)
{
    Rig shared_rig = makeRig();
    Rig serial_rig = makeRig();
    auto batch = overlappingBatch(shared_rig, 8, 0.5);

    // Serial baseline: queries one after another; per-query latency is
    // measured from batch start, i.e. cumulative completion time.
    double serial_latency_sum = 0.0, elapsed = 0.0;
    for (const auto &q : batch) {
        auto outcome = serial_rig.store->query(q);
        ASSERT_TRUE(outcome.isOk());
        elapsed += outcome.value().latencySeconds;
        serial_latency_sum += elapsed;
    }
    uint64_t serial_wire = totalWireBytes(*serial_rig.store);

    sched::SharedScanScheduler scheduler(*shared_rig.store);
    auto outcomes = scheduler.runBatch(batch);
    ASSERT_TRUE(outcomes.isOk());
    double shared_latency_sum = 0.0;
    for (const auto &outcome : outcomes.value())
        shared_latency_sum += outcome.latencySeconds;
    uint64_t shared_wire = totalWireBytes(*shared_rig.store);

    EXPECT_LT(shared_wire, serial_wire);
    EXPECT_LT(shared_latency_sum, serial_latency_sum);

    const sched::BatchStats &stats = scheduler.lastBatchStats();
    EXPECT_EQ(stats.queries, batch.size());
    EXPECT_LT(stats.tasksIssued, stats.tasksPlanned);
    EXPECT_GT(stats.sharedFetches + stats.mergedPushdowns, 0u);
    EXPECT_GT(stats.wireBytesSaved, 0u);
    EXPECT_GT(stats.makespanSeconds, 0.0);

    // The same story in the sched.* counters.
    obs::MetricsRegistry &reg = shared_rig.store->obs().metrics;
    EXPECT_EQ(reg.counter("sched.batches").value(), 1u);
    EXPECT_EQ(reg.counter("sched.queries").value(), batch.size());
    EXPECT_EQ(reg.counter("sched.tasks_issued").value(),
              stats.tasksIssued);
}

TEST(SchedTest, MergedPushdownReasonInExplain)
{
    Rig rig = makeRig(3000, /*observe=*/true);
    // Two identical selective queries: their projection pushdowns merge
    // into one storage-node task with a shared reply.
    query::Query q = workload::microbenchQuery(
        "lineitem", "l_orderkey",
        rig.table.column(workload::kOrderKey), 0.02);
    sched::SharedScanScheduler scheduler(*rig.store);
    auto outcomes = scheduler.runBatch({q, q});
    ASSERT_TRUE(outcomes.isOk());

    bool merged_reason = false;
    for (const auto &outcome : outcomes.value()) {
        ASSERT_NE(outcome.explain, nullptr);
        for (const auto &pc : outcome.explain->projections)
            if (pc.reason == "merged-pushdown") {
                merged_reason = true;
                EXPECT_EQ(pc.verdict, "push");
            }
    }
    EXPECT_TRUE(merged_reason);
    EXPECT_GT(scheduler.lastBatchStats().mergedPushdowns, 0u);
}

TEST(SchedTest, OversubscribedNodeShedsLoad)
{
    Rig rig = makeRig(3000, /*observe=*/true);
    query::Query q = workload::microbenchQuery(
        "lineitem", "l_orderkey",
        rig.table.column(workload::kOrderKey), 0.02);

    sched::SchedOptions options;
    options.nodeLoadLimitSeconds = 1e-12; // any admitted work trips it
    sched::SharedScanScheduler scheduler(*rig.store, options);
    auto outcomes = scheduler.runBatch({q, q});
    ASSERT_TRUE(outcomes.isOk());

    EXPECT_GT(scheduler.lastBatchStats().loadSheds, 0u);
    bool shed_reason = false;
    for (const auto &outcome : outcomes.value()) {
        ASSERT_NE(outcome.explain, nullptr);
        for (const auto &pc : outcome.explain->projections)
            if (pc.reason == "load-shed") {
                shed_reason = true;
                EXPECT_EQ(pc.verdict, "fetch");
            }
    }
    EXPECT_TRUE(shed_reason);
    EXPECT_GT(
        rig.store->obs().metrics.counter("sched.load_sheds").value(), 0u);
}

// ---------------------------------------------------------------------
// Interaction with the coordinator hot-chunk cache: batches against a
// warm, cold or mixed cache stay bit-identical to isolated execution,
// and cache-resident chunks never reach the dedup machinery.
// ---------------------------------------------------------------------

Rig
makeCachedRig(uint64_t cache_bytes, size_t rows = 3000)
{
    Rig rig;
    sim::ClusterConfig config;
    config.numNodes = 9;
    rig.cluster = std::make_unique<sim::Cluster>(config);
    store::StoreOptions options;
    options.cacheBytes = cache_bytes;
    rig.store =
        std::make_unique<store::FusionStore>(*rig.cluster, options);
    auto file = workload::buildLineitemFile(rows, 7);
    FUSION_CHECK(file.isOk());
    rig.table = workload::makeLineitemTable(rows, 7);
    FUSION_CHECK(rig.store->put("lineitem", file.value().bytes).isOk());
    return rig;
}

/** Fetch-verdict query (quantity compresses well; high selectivity),
 *  so cold runs admit its chunks into the coordinator cache. */
query::Query
cacheableQuery(const Rig &rig, double selectivity = 0.8)
{
    return workload::microbenchQuery(
        "lineitem", "l_quantity",
        rig.table.column(workload::kQuantity), selectivity);
}

TEST(SchedCacheTest, WarmBatchSkipsDedupAndMatchesIsolatedExecution)
{
    const uint64_t cache_bytes = 64 << 20;
    Rig warm_rig = makeCachedRig(cache_bytes);
    Rig solo_rig = makeCachedRig(cache_bytes);
    query::Query q = cacheableQuery(warm_rig);

    // Cold pass on both rigs admits every projection chunk.
    ASSERT_TRUE(warm_rig.store->query(q).isOk());
    ASSERT_TRUE(solo_rig.store->query(q).isOk());
    ASSERT_GT(warm_rig.store->chunkCache().entryCount(), 0u);
    obs::MetricsRegistry &reg = warm_rig.store->obs().metrics;
    auto storage_wire = [&reg]() {
        return reg.counter("wire.filter.request_bytes").value() +
               reg.counter("wire.filter.reply_bytes").value() +
               reg.counter("wire.projection.request_bytes").value() +
               reg.counter("wire.projection.reply_bytes").value();
    };
    uint64_t storage_wire_before = storage_wire();

    std::vector<query::Query> batch{q, q, q, q};
    sched::SharedScanScheduler scheduler(*warm_rig.store);
    auto outcomes = scheduler.runBatch(batch);
    ASSERT_TRUE(outcomes.isOk());

    for (size_t i = 0; i < batch.size(); ++i) {
        // Every projection chunk is cache-resident: the planner emits
        // unkeyed local tasks, so nothing reaches the dedup table.
        EXPECT_GT(outcomes.value()[i].projectionCachedLocal, 0u);
        EXPECT_EQ(outcomes.value()[i].projectionFetches, 0u);
        EXPECT_EQ(outcomes.value()[i].projectionPushdowns, 0u);
        auto solo = solo_rig.store->query(q);
        ASSERT_TRUE(solo.isOk());
        EXPECT_EQ(resultFingerprint(outcomes.value()[i].result),
                  resultFingerprint(solo.value().result))
            << "query " << i;
    }
    const sched::BatchStats &stats = scheduler.lastBatchStats();
    EXPECT_EQ(stats.sharedFetches, 0u);
    EXPECT_EQ(stats.mergedPushdowns, 0u);
    // A fully warm batch moves no storage traffic at all — the only
    // wire left is the client request/reply exchange.
    EXPECT_EQ(storage_wire(), storage_wire_before);
}

TEST(SchedCacheTest, ColdBatchPopulatesCacheAndLaterMembersHit)
{
    // Serial batch planning warms the cache mid-batch: the first
    // member's fetch verdicts admit the chunks, and every later member
    // of the same batch plans them as cached-local — the dedup table
    // never even sees their movement.
    Rig rig = makeCachedRig(64 << 20);
    query::Query q = cacheableQuery(rig);
    std::vector<query::Query> batch{q, q, q, q};

    sched::SharedScanScheduler scheduler(*rig.store);
    auto outcomes = scheduler.runBatch(batch);
    ASSERT_TRUE(outcomes.isOk());
    EXPECT_GT(outcomes.value()[0].projectionFetches, 0u);
    EXPECT_EQ(outcomes.value()[0].projectionCachedLocal, 0u);
    for (size_t i = 1; i < batch.size(); ++i) {
        EXPECT_GT(outcomes.value()[i].projectionCachedLocal, 0u)
            << "batch member " << i;
        EXPECT_EQ(outcomes.value()[i].projectionFetches, 0u);
        EXPECT_EQ(resultFingerprint(outcomes.value()[i].result),
                  resultFingerprint(outcomes.value()[0].result));
    }
    EXPECT_GT(rig.store->chunkCache().entryCount(), 0u);
}

TEST(SchedCacheTest, ConvertedSharedFetchAdmitsChunksToCache)
{
    // A pusher (selective query) sharing chunks with a fetcher gets
    // converted to ride the shared fetch; the conversion admits the
    // chunk so the next batch plans it cached-local.
    Rig rig = makeCachedRig(64 << 20);
    query::Query pusher = cacheableQuery(rig, 0.02); // push verdict
    query::Query fetcher = cacheableQuery(rig, 0.8); // fetch verdict

    sched::SharedScanScheduler scheduler(*rig.store);
    auto cold = scheduler.runBatch({pusher, fetcher});
    ASSERT_TRUE(cold.isOk());
    EXPECT_GT(scheduler.lastBatchStats().fetchConversions, 0u);
    ASSERT_GT(rig.store->chunkCache().entryCount(), 0u);

    // Both queries now evaluate from the cache, even the one whose
    // Cost Equation said push — residency dominates.
    auto warm = scheduler.runBatch({pusher, fetcher});
    ASSERT_TRUE(warm.isOk());
    for (const auto &outcome : warm.value())
        EXPECT_GT(outcome.projectionCachedLocal, 0u);
    for (size_t i = 0; i < 2; ++i)
        EXPECT_EQ(resultFingerprint(warm.value()[i].result),
                  resultFingerprint(cold.value()[i].result));
}

TEST(SchedCacheTest, MixedCacheStateBatchMatchesIsolatedExecution)
{
    const uint64_t cache_bytes = 64 << 20;
    Rig mixed_rig = makeCachedRig(cache_bytes);
    Rig solo_rig = makeCachedRig(cache_bytes);

    // Warm only the quantity chunks on both rigs.
    ASSERT_TRUE(mixed_rig.store->query(cacheableQuery(mixed_rig)).isOk());
    ASSERT_TRUE(solo_rig.store->query(cacheableQuery(solo_rig)).isOk());

    // Batch mixes warm (quantity) and cold (extendedprice, orderkey)
    // queries; overlap among the cold ones still dedups.
    std::vector<query::Query> batch;
    batch.push_back(cacheableQuery(mixed_rig));
    batch.push_back(workload::microbenchQuery(
        "lineitem", "l_extendedprice",
        mixed_rig.table.column(workload::kExtendedPrice), 0.7));
    batch.push_back(batch.back());
    batch.push_back(workload::microbenchQuery(
        "lineitem", "l_orderkey",
        mixed_rig.table.column(workload::kOrderKey), 0.02));

    sched::SharedScanScheduler scheduler(*mixed_rig.store);
    auto outcomes = scheduler.runBatch(batch);
    ASSERT_TRUE(outcomes.isOk());
    EXPECT_GT(outcomes.value()[0].projectionCachedLocal, 0u);
    EXPECT_EQ(outcomes.value()[3].projectionCachedLocal, 0u);

    for (size_t i = 0; i < batch.size(); ++i) {
        auto solo = solo_rig.store->query(batch[i]);
        ASSERT_TRUE(solo.isOk());
        EXPECT_EQ(resultFingerprint(outcomes.value()[i].result),
                  resultFingerprint(solo.value().result))
            << "query " << i;
    }
}

// ---------------------------------------------------------------------
// Determinism across thread counts.
// ---------------------------------------------------------------------

struct SchedRun {
    std::string metricsJson;
    std::string traceJson;
    std::string explainJson;
};

SchedRun
runSchedWorkload(size_t threads)
{
    ThreadPool::setSharedThreads(threads);
    Rig rig = makeRig(3000, /*observe=*/true);
    auto batch = overlappingBatch(rig, 8, 0.5);
    sched::SharedScanScheduler scheduler(*rig.store);
    auto outcomes = scheduler.runBatch(batch);
    FUSION_CHECK(outcomes.isOk());

    SchedRun run;
    for (const auto &outcome : outcomes.value()) {
        FUSION_CHECK(outcome.explain != nullptr);
        run.explainJson += outcome.explain->toJson();
        run.explainJson += "\n";
    }
    run.metricsJson = rig.store->obs().metrics.snapshot().toJson();
    run.traceJson = rig.store->obs().tracer.toChromeJson("fusion");
    ThreadPool::setSharedThreads(1);
    return run;
}

TEST(SchedDeterminismTest, ByteIdenticalAcrossThreadCounts)
{
    SchedRun serial = runSchedWorkload(1);
    EXPECT_NE(serial.traceJson.find("\"shared_scan\""), std::string::npos);
    EXPECT_NE(serial.traceJson.find("\"sched_wait\""), std::string::npos);
    EXPECT_NE(serial.metricsJson.find("sched.batches"),
              std::string::npos);

    for (size_t threads : {2, 4}) {
        SchedRun other = runSchedWorkload(threads);
        EXPECT_EQ(serial.metricsJson, other.metricsJson)
            << "metrics diverged at FUSION_THREADS=" << threads;
        EXPECT_EQ(serial.traceJson, other.traceJson)
            << "trace diverged at FUSION_THREADS=" << threads;
        EXPECT_EQ(serial.explainJson, other.explainJson)
            << "EXPLAIN diverged at FUSION_THREADS=" << threads;
    }
}

TEST(SchedDeterminismTest, RepeatRunsAreByteIdentical)
{
    SchedRun a = runSchedWorkload(1);
    SchedRun b = runSchedWorkload(1);
    EXPECT_EQ(a.metricsJson, b.metricsJson);
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.explainJson, b.explainJson);
}

// ---------------------------------------------------------------------
// Async QueryHandle API: submit / awaitAny / awaitAll, reusable
// handles with caller tags, and runBatch as a thin wrapper.
// ---------------------------------------------------------------------

TEST(AsyncHandleTest, SubmitAwaitMatchesIsolatedExecution)
{
    Rig rig = makeRig();
    Rig solo_rig = makeRig();
    auto batch = overlappingBatch(rig, 6, 0.5);

    sched::SharedScanScheduler scheduler(*rig.store);
    for (size_t i = 0; i < batch.size(); ++i) {
        sched::QueryHandle *h = scheduler.submit(batch[i], i);
        EXPECT_TRUE(h->pending());
        EXPECT_EQ(h->tag, i);
    }
    EXPECT_EQ(scheduler.inFlight(), batch.size());

    // Harvest in completion order; every tag appears exactly once and
    // each outcome is bit-identical to isolated execution.
    std::vector<bool> seen(batch.size(), false);
    size_t harvested = 0;
    double prev_done = 0.0;
    while (sched::QueryHandle *h = scheduler.awaitAny()) {
        ASSERT_TRUE(h->done());
        ASSERT_TRUE(h->status().isOk());
        ASSERT_LT(h->tag, batch.size());
        EXPECT_FALSE(seen[h->tag]);
        seen[h->tag] = true;
        EXPECT_GT(h->sojournSeconds(), 0.0);
        EXPECT_GE(h->completionSeconds(), prev_done); // FIFO harvest
        prev_done = h->completionSeconds();
        auto solo = solo_rig.store->query(batch[h->tag]);
        ASSERT_TRUE(solo.isOk());
        EXPECT_EQ(resultFingerprint(h->outcome().result),
                  resultFingerprint(solo.value().result))
            << "tag " << h->tag;
        ++harvested;
    }
    EXPECT_EQ(harvested, batch.size());
    EXPECT_EQ(scheduler.inFlight(), 0u);

    // A window of one is store.query(): both run the store's one stage
    // DAG, so every simulated figure matches exactly.
    Rig alone_rig = makeRig();
    Rig query_rig = makeRig();
    sched::SharedScanScheduler alone(*alone_rig.store);
    for (size_t i = 0; i < batch.size(); ++i) {
        alone.submit(batch[i], i);
        sched::QueryHandle *h = alone.awaitAny();
        ASSERT_NE(h, nullptr);
        ASSERT_TRUE(h->status().isOk());
        auto solo = query_rig.store->query(batch[i]);
        ASSERT_TRUE(solo.isOk());
        const store::QueryOutcome &a = h->outcome();
        const store::QueryOutcome &b = solo.value();
        EXPECT_EQ(a.latencySeconds, b.latencySeconds) << "query " << i;
        EXPECT_EQ(a.cpuSeconds, b.cpuSeconds) << "query " << i;
        EXPECT_EQ(a.diskSeconds, b.diskSeconds) << "query " << i;
        EXPECT_EQ(a.networkSeconds, b.networkSeconds) << "query " << i;
        EXPECT_EQ(a.networkBytes, b.networkBytes) << "query " << i;
    }
}

TEST(AsyncHandleTest, IdleAwaitAndFailedSubmit)
{
    Rig rig = makeRig();
    sched::SharedScanScheduler scheduler(*rig.store);
    EXPECT_EQ(scheduler.awaitAny(), nullptr);
    scheduler.awaitAll(); // no-op on an empty window
    EXPECT_EQ(scheduler.inFlight(), 0u);

    // A statement that cannot be parsed completes its handle
    // immediately with the error; nothing enters the window.
    sched::QueryHandle *bad = scheduler.submitSql("NOT SQL", 99);
    ASSERT_NE(bad, nullptr);
    EXPECT_TRUE(bad->done());
    EXPECT_FALSE(bad->status().isOk());
    EXPECT_EQ(bad->tag, 99u);
    EXPECT_EQ(scheduler.inFlight(), 0u);
    EXPECT_EQ(scheduler.awaitAny(), bad);
}

TEST(AsyncHandleTest, HandleReuseAfterCompletion)
{
    Rig rig = makeRig();
    Rig solo_rig = makeRig();
    query::Query q1 = workload::microbenchQuery(
        "lineitem", "l_orderkey",
        rig.table.column(workload::kOrderKey), 0.02);
    query::Query q2 = workload::microbenchQuery(
        "lineitem", "l_partkey",
        rig.table.column(workload::kPartKey), 0.03);

    sched::SharedScanScheduler scheduler(*rig.store);
    sched::QueryHandle *h1 = scheduler.submit(q1, 11);
    scheduler.awaitAll();
    EXPECT_TRUE(h1->done());
    EXPECT_EQ(scheduler.completedPending(), 1u);
    EXPECT_EQ(scheduler.awaitAny(), h1);

    // The harvested handle is recycled by the next submit; its state
    // and tag are overwritten for the new query.
    sched::QueryHandle *h2 = scheduler.submit(q2, 22);
    EXPECT_EQ(h2, h1);
    EXPECT_TRUE(h2->pending());
    EXPECT_EQ(h2->tag, 22u);
    EXPECT_EQ(scheduler.awaitAny(), h2);
    EXPECT_TRUE(h2->done());
    auto solo = solo_rig.store->query(q2);
    ASSERT_TRUE(solo.isOk());
    EXPECT_EQ(resultFingerprint(h2->outcome().result),
              resultFingerprint(solo.value().result));
}

TEST(AsyncHandleTest, RunBatchIsAWrapperOverSubmitAwaitAll)
{
    Rig batch_rig = makeRig();
    Rig async_rig = makeRig();
    auto batch = overlappingBatch(batch_rig, 8, 0.5);

    sched::SharedScanScheduler batch_sched(*batch_rig.store);
    auto outcomes = batch_sched.runBatch(batch);
    ASSERT_TRUE(outcomes.isOk());

    sched::SharedScanScheduler async_sched(*async_rig.store);
    std::vector<sched::QueryHandle *> handles;
    for (size_t i = 0; i < batch.size(); ++i)
        handles.push_back(async_sched.submit(batch[i], i));
    async_sched.awaitAll();

    for (size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(resultFingerprint(handles[i]->outcome().result),
                  resultFingerprint(outcomes.value()[i].result))
            << "query " << i;
    const sched::BatchStats &a = batch_sched.lastBatchStats();
    const sched::BatchStats &b = async_sched.windowStats();
    EXPECT_EQ(a.tasksPlanned, b.tasksPlanned);
    EXPECT_EQ(a.tasksIssued, b.tasksIssued);
    EXPECT_EQ(a.sharedFetches, b.sharedFetches);
    EXPECT_EQ(a.mergedPushdowns, b.mergedPushdowns);
    EXPECT_EQ(a.wireBytesSaved, b.wireBytesSaved);
}

// ---------------------------------------------------------------------
// Continuous admission window: pre-issue joins, the issue boundary,
// conversion in place mid-window, and per-node dedup accounting.
// ---------------------------------------------------------------------

TEST(AdmissionWindowTest, LateArrivalJoinsPendingChunkEntry)
{
    Rig rig = makeRig(3000, /*observe=*/true);
    Rig solo_rig = makeRig();
    query::Query q = workload::microbenchQuery(
        "lineitem", "l_orderkey",
        rig.table.column(workload::kOrderKey), 0.02);

    // The second query arrives 100 us in — while the first query's
    // client request is still on the wire, so its planned chunk work
    // is pending (not yet issued) and the late arrival joins it.
    sched::SharedScanScheduler scheduler(*rig.store);
    sched::QueryHandle *h1 = scheduler.submit(q, 1);
    sched::QueryHandle *h2 = nullptr;
    rig.cluster->engine().scheduleAt(
        1e-4, [&scheduler, &q, &h2]() { h2 = scheduler.submit(q, 2); });
    scheduler.awaitAll();
    ASSERT_NE(h2, nullptr);
    ASSERT_TRUE(h1->done() && h2->done());
    EXPECT_GT(h2->submitSeconds(), h1->submitSeconds());

    const sched::BatchStats &stats = scheduler.windowStats();
    EXPECT_GT(stats.joinedInflight, 0u);
    EXPECT_GT(stats.mergedPushdowns, 0u); // absorbed at demand time
    EXPECT_GT(stats.wireBytesSaved, 0u);

    // The late joiner's EXPLAIN says so; the creator keeps the
    // closed-batch reason.
    ASSERT_NE(h2->outcome().explain, nullptr);
    bool joined_reason = false;
    for (const auto &pc : h2->outcome().explain->projections)
        if (pc.reason == "joined-inflight") {
            joined_reason = true;
            EXPECT_EQ(pc.verdict, "push");
        }
    EXPECT_TRUE(joined_reason);
    ASSERT_NE(h1->outcome().explain, nullptr);
    for (const auto &pc : h1->outcome().explain->projections)
        EXPECT_NE(pc.reason, "joined-inflight");

    // Joining never changes results.
    auto solo = solo_rig.store->query(q);
    ASSERT_TRUE(solo.isOk());
    for (sched::QueryHandle *h : {h1, h2})
        EXPECT_EQ(resultFingerprint(h->outcome().result),
                  resultFingerprint(solo.value().result));

    // Satellite observability: queue-wait histogram and window spans.
    std::string metrics =
        rig.store->obs().metrics.snapshot().toJson();
    EXPECT_NE(metrics.find("sched.queue_wait_seconds"),
              std::string::npos);
    EXPECT_NE(metrics.find("sched.joined_inflight"), std::string::npos);
    std::string trace = rig.store->obs().tracer.toChromeJson("fusion");
    EXPECT_NE(trace.find("\"admission_window\""), std::string::npos);
    EXPECT_NE(trace.find("\"handle_await\""), std::string::npos);
}

TEST(AdmissionWindowTest, ArrivalAfterIssueStartsNewGeneration)
{
    Rig rig = makeRig();
    query::Query q = workload::microbenchQuery(
        "lineitem", "l_orderkey",
        rig.table.column(workload::kOrderKey), 0.02);

    sched::SharedScanScheduler scheduler(*rig.store);
    sched::QueryHandle *h1 = scheduler.submit(q, 1);
    scheduler.awaitAll();
    const sched::BatchStats first = scheduler.windowStats();
    EXPECT_GT(first.tasksIssued, 0u);

    // Same query after every transfer issued and completed: nothing to
    // join — every task issues again as a fresh generation.
    sched::QueryHandle *h2 = scheduler.submit(q, 2);
    scheduler.awaitAll();
    const sched::BatchStats &second = scheduler.windowStats();
    EXPECT_EQ(second.tasksIssued, 2 * first.tasksIssued);
    EXPECT_EQ(second.mergedPushdowns, first.mergedPushdowns);
    EXPECT_EQ(second.sharedFetches, first.sharedFetches);
    EXPECT_EQ(second.joinedInflight, 0u);
    EXPECT_EQ(second.wireBytesSaved, first.wireBytesSaved);
    EXPECT_EQ(resultFingerprint(h1->outcome().result),
              resultFingerprint(h2->outcome().result));
}

TEST(AdmissionWindowTest, ConvertToSharedFetchMidWindow)
{
    Rig rig = makeCachedRig(64 << 20);
    rig.store->obs().explainEnabled = true;
    Rig solo_rig = makeCachedRig(64 << 20);
    query::Query pusher = cacheableQuery(rig, 0.02); // push verdict
    query::Query fetcher = cacheableQuery(rig, 0.8); // fetch verdict
    query::Query later = cacheableQuery(rig, 0.5);

    // The pusher is admitted alone (its chunks stay pushdowns); the
    // fetcher arrives mid-window and fetches the same chunks whole, so
    // the pending pushdowns convert in place to ride the shared fetch,
    // admitting the chunk bytes into the hot-chunk cache. The third
    // arrival then plans entirely cached-local.
    sched::SharedScanScheduler scheduler(*rig.store);
    sched::QueryHandle *hp = scheduler.submit(pusher, 1);
    sched::QueryHandle *hf = nullptr;
    sched::QueryHandle *hl = nullptr;
    sim::SimEngine &engine = rig.cluster->engine();
    engine.scheduleAt(1e-4, [&scheduler, &fetcher, &hf]() {
        hf = scheduler.submit(fetcher, 2);
    });
    engine.scheduleAt(2e-4, [&scheduler, &later, &hl]() {
        hl = scheduler.submit(later, 3);
    });
    scheduler.awaitAll();
    ASSERT_NE(hf, nullptr);
    ASSERT_NE(hl, nullptr);

    const sched::BatchStats &stats = scheduler.windowStats();
    EXPECT_GT(stats.fetchConversions, 0u);
    EXPECT_GT(stats.joinedInflight, 0u);

    // Every pending pushdown of the first query flipped to a fetch.
    EXPECT_EQ(hp->outcome().projectionPushdowns, 0u);
    EXPECT_GT(hp->outcome().projectionFetches, 0u);
    ASSERT_NE(hp->outcome().explain, nullptr);
    bool converted_reason = false;
    for (const auto &pc : hp->outcome().explain->projections)
        if (pc.reason == "shared-fetch") {
            converted_reason = true;
            EXPECT_EQ(pc.verdict, "fetch");
        }
    EXPECT_TRUE(converted_reason);
    ASSERT_NE(hf->outcome().explain, nullptr);
    bool joined_reason = false;
    for (const auto &pc : hf->outcome().explain->projections)
        if (pc.reason == "joined-inflight")
            joined_reason = true;
    EXPECT_TRUE(joined_reason);

    // Conversion landed the chunk bytes in the cache mid-stream.
    EXPECT_GT(rig.store->chunkCache().admissions(), 0u);
    EXPECT_GT(rig.store->chunkCache().entryCount(), 0u);
    EXPECT_GT(hl->outcome().projectionCachedLocal, 0u);

    for (sched::QueryHandle *h : {hp, hf, hl}) {
        auto solo = solo_rig.store->query(
            h == hp ? pusher : (h == hf ? fetcher : later));
        ASSERT_TRUE(solo.isOk());
        EXPECT_EQ(resultFingerprint(h->outcome().result),
                  resultFingerprint(solo.value().result));
    }
}

TEST(AdmissionWindowTest, PerNodeDedupStats)
{
    Rig rig = makeRig();
    auto batch = overlappingBatch(rig, 8, 0.5);
    sched::SharedScanScheduler scheduler(*rig.store);
    ASSERT_TRUE(scheduler.runBatch(batch).isOk());

    const sched::BatchStats &stats = scheduler.lastBatchStats();
    ASSERT_FALSE(stats.perNode.empty());
    size_t planned = 0, issued = 0;
    bool some_node_dedups = false;
    for (const auto &[node, ns] : stats.perNode) {
        planned += ns.tasksPlanned;
        issued += ns.tasksIssued;
        EXPECT_LE(ns.tasksIssued, ns.tasksPlanned) << "node " << node;
        if (ns.dedupRate() > 0.0)
            some_node_dedups = true;
    }
    EXPECT_EQ(planned, stats.tasksPlanned);
    EXPECT_EQ(issued, stats.tasksIssued);
    EXPECT_TRUE(some_node_dedups);
    EXPECT_GT(stats.dedupRate(), 0.0);
    EXPECT_LT(stats.dedupRate(), 1.0);
}

// Survivor reads of a degraded chunk are keyed by their byte range
// ("stripe|object|s|b|lo-hi"). Two queries on the same lost chunk move
// identical bytes and share them; two different lost chunks of one
// stripe read different ranges of the same survivor blocks and must
// not alias into one read.
TEST(AdmissionWindowTest, DegradedSurvivorReadsShareOnlyIdenticalRanges)
{
    // Find one block holding whole chunks of two different columns.
    Rig probe = makeRig();
    const store::ObjectManifest &m =
        *probe.store->manifest("lineitem").value();
    const size_t columns = m.fileMeta.schema.numColumns();
    std::map<std::pair<size_t, size_t>, std::vector<uint32_t>> by_block;
    for (uint32_t c = 0; c < m.numDataChunks(); ++c)
        if (m.chunkPieces[c].size() == 1)
            by_block[{m.chunkPieces[c][0].stripe,
                      m.chunkPieces[c][0].blockIndex}]
                .push_back(c);
    std::optional<std::pair<uint32_t, uint32_t>> pair;
    size_t stripe = 0, block = 0;
    for (const auto &[where, chunks] : by_block) {
        for (uint32_t b : chunks)
            if (!pair && b % columns != chunks[0] % columns) {
                pair.emplace(chunks[0], b);
                std::tie(stripe, block) = where;
            }
    }
    ASSERT_TRUE(pair.has_value());
    const size_t victim = m.stripeNodes[stripe][block];
    const format::Schema &schema = m.fileMeta.schema;
    auto select = [&](uint32_t chunk) {
        auto q = query::parseQuery(
            "SELECT " + schema.column(chunk % columns).name +
            " FROM lineitem");
        FUSION_CHECK(q.isOk());
        return q.value();
    };
    const query::Query qa = select(pair->first);
    const query::Query qb = select(pair->second);

    // Both plans read the same survivor blocks of that stripe, but
    // different byte ranges of them.
    probe.cluster->killNode(victim);
    auto survivor_keys = [&](const query::Query &q) {
        auto plan = probe.store->planQueryForBatch(q);
        FUSION_CHECK(plan.isOk());
        const std::string prefix =
            "stripe|lineitem|" + std::to_string(stripe) + "|";
        std::set<std::string> keys;
        for (const auto *tasks :
             {&plan.value()->filterTasks, &plan.value()->projectionTasks})
            for (const auto &t : *tasks)
                if (t.shareKey.rfind(prefix, 0) == 0)
                    keys.insert(t.shareKey);
        return keys;
    };
    const std::set<std::string> keys_a = survivor_keys(qa);
    const std::set<std::string> keys_b = survivor_keys(qb);
    ASSERT_FALSE(keys_a.empty());
    ASSERT_FALSE(keys_b.empty());
    for (const std::string &key : keys_a)
        EXPECT_EQ(keys_b.count(key), 0u) << key;

    Rig solo_rig = makeRig();
    // Runs the queries together under a crash of the victim; returns
    // how many survivor reads were absorbed by an equal in-flight read.
    auto run = [&](const std::vector<query::Query> &batch) {
        Rig rig = makeRig(3000, /*observe=*/true);
        sim::FaultSchedule schedule;
        schedule.crashAt(1e-4, victim);
        sim::FaultInjector faults(*rig.cluster, schedule);
        faults.arm();
        sched::SharedScanScheduler scheduler(*rig.store);
        std::vector<sched::QueryHandle *> handles(batch.size());
        rig.cluster->engine().scheduleAt(2e-4, [&]() {
            for (size_t i = 0; i < batch.size(); ++i)
                handles[i] = scheduler.submit(batch[i], i);
        });
        scheduler.awaitAll();
        for (size_t i = 0; i < batch.size(); ++i) {
            EXPECT_TRUE(handles[i]->status().isOk());
            auto solo = solo_rig.store->query(batch[i]);
            EXPECT_TRUE(solo.isOk());
            EXPECT_EQ(resultFingerprint(handles[i]->outcome().result),
                      resultFingerprint(solo.value().result));
        }
        size_t absorbed = 0;
        for (const auto &span : rig.store->obs().tracer.spans())
            if (std::string(span.name) == "sched_wait" &&
                span.args.find("\"key\": \"stripe|") != std::string::npos)
                ++absorbed;
        return absorbed;
    };
    EXPECT_GT(run({qa, qa}), 0u);
    EXPECT_EQ(run({qa, qb}), 0u);
}

// ---------------------------------------------------------------------
// Open-loop determinism: staggered arrivals under a crash fault
// schedule stay byte-identical across FUSION_THREADS values, and every
// result stays bit-identical to isolated execution.
// ---------------------------------------------------------------------

struct OpenLoopRun {
    std::string order; // tag@completion:fingerprint lines
    std::map<uint64_t, std::string> fingerprints;
    std::string metricsJson;
    std::string traceJson;
    std::string explainJson;
};

OpenLoopRun
runOpenLoopWorkload(size_t threads)
{
    ThreadPool::setSharedThreads(threads);
    Rig rig = makeRig(3000, /*observe=*/true);

    // Node 3 crashes while arrivals are still streaming in and comes
    // back after the window drains: later arrivals plan degraded
    // (reconstruction) paths, earlier in-flight work keeps going.
    sim::FaultSchedule schedule;
    schedule.crashAt(0.0015, 3).reviveAt(0.02, 3);
    sim::FaultInjector faults(*rig.cluster, schedule);
    faults.arm();

    auto batch = overlappingBatch(rig, 6, 0.5);
    sched::SharedScanScheduler scheduler(*rig.store);
    sim::SimEngine &engine = rig.cluster->engine();
    for (size_t i = 0; i < batch.size(); ++i)
        engine.scheduleAt(5e-4 * static_cast<double>(i),
                          [&scheduler, &batch, i]() {
                              scheduler.submit(batch[i], i);
                          });
    scheduler.awaitAll();

    OpenLoopRun run;
    while (sched::QueryHandle *h = scheduler.awaitAny()) {
        FUSION_CHECK(h->status().isOk());
        std::string fp = resultFingerprint(h->outcome().result);
        run.order += std::to_string(h->tag) + "@" +
                     std::to_string(h->completionSeconds()) + ":" + fp +
                     "\n";
        run.fingerprints[h->tag] = fp;
        if (h->outcome().explain != nullptr) {
            run.explainJson += h->outcome().explain->toJson();
            run.explainJson += "\n";
        }
    }
    run.metricsJson = rig.store->obs().metrics.snapshot().toJson();
    run.traceJson = rig.store->obs().tracer.toChromeJson("fusion");
    ThreadPool::setSharedThreads(1);
    return run;
}

TEST(OpenLoopDeterminismTest, CrashScheduleByteIdenticalAcrossThreads)
{
    OpenLoopRun serial = runOpenLoopWorkload(1);
    EXPECT_NE(serial.metricsJson.find("sched.queue_wait_seconds"),
              std::string::npos);
    EXPECT_NE(serial.traceJson.find("\"admission_window\""),
              std::string::npos);
    EXPECT_NE(serial.traceJson.find("\"handle_await\""),
              std::string::npos);
    EXPECT_EQ(serial.fingerprints.size(), 6u);

    for (size_t threads : {2, 4}) {
        OpenLoopRun other = runOpenLoopWorkload(threads);
        EXPECT_EQ(serial.order, other.order)
            << "completion order diverged at FUSION_THREADS=" << threads;
        EXPECT_EQ(serial.metricsJson, other.metricsJson)
            << "metrics diverged at FUSION_THREADS=" << threads;
        EXPECT_EQ(serial.traceJson, other.traceJson)
            << "trace diverged at FUSION_THREADS=" << threads;
        EXPECT_EQ(serial.explainJson, other.explainJson)
            << "EXPLAIN diverged at FUSION_THREADS=" << threads;
    }
    OpenLoopRun repeat = runOpenLoopWorkload(1);
    EXPECT_EQ(serial.order, repeat.order);
    EXPECT_EQ(serial.traceJson, repeat.traceJson);
}

TEST(OpenLoopDeterminismTest, ResultsMatchIsolatedExecution)
{
    OpenLoopRun run = runOpenLoopWorkload(1);
    Rig solo_rig = makeRig();
    auto batch = overlappingBatch(solo_rig, 6, 0.5);
    for (size_t i = 0; i < batch.size(); ++i) {
        auto solo = solo_rig.store->query(batch[i]);
        ASSERT_TRUE(solo.isOk());
        ASSERT_TRUE(run.fingerprints.count(i)) << "tag " << i;
        EXPECT_EQ(run.fingerprints[i],
                  resultFingerprint(solo.value().result))
            << "tag " << i;
    }
}

// ---------------------------------------------------------------------
// The data-plane memo is an experiment-speed artifact: a query sequence
// run with dropCaches() before every submit must match the same
// sequence run with the memo kept, outcome for outcome and counter for
// counter, whatever the thread count.
// ---------------------------------------------------------------------

struct MemoRun {
    std::vector<store::QueryOutcome> outcomes;
    /** cache.chunk.* and wire.* instruments at the end of the run. */
    std::map<std::string, double> instruments;
    uint64_t fetchConversions = 0;
};

MemoRun
runMemoSequence(bool fusion, size_t threads, bool drop_memo)
{
    ThreadPool::setSharedThreads(threads);
    sim::ClusterConfig config;
    config.numNodes = 9;
    sim::Cluster cluster(config);
    store::StoreOptions options;
    options.cacheBytes = 16 << 10; // below the working set: evictions
    options.compaction.enabled = false;
    std::unique_ptr<store::ObjectStore> store;
    if (fusion)
        store = std::make_unique<store::FusionStore>(cluster, options);
    else
        store = std::make_unique<store::BaselineStore>(cluster, options);
    auto file = workload::buildLineitemFile(3000, 7);
    FUSION_CHECK(file.isOk());
    FUSION_CHECK(store->put("lineitem", file.value().bytes).isOk());
    FUSION_CHECK(store->put("appended", file.value().bytes).isOk());
    FUSION_CHECK(
        store->lifecycle()
            .append("appended", workload::makeLineitemTable(300, 41))
            .isOk());

    format::Table table = workload::makeLineitemTable(3000, 7);
    const format::ColumnData &quantity = table.column(workload::kQuantity);
    const query::Query pusher =
        workload::microbenchQuery("lineitem", "l_quantity", quantity, 0.02);
    const query::Query fetcher =
        workload::microbenchQuery("lineitem", "l_quantity", quantity, 0.8);
    const query::Query later =
        workload::microbenchQuery("lineitem", "l_quantity", quantity, 0.5);
    auto parse = [](const char *sql) {
        auto q = query::parseQuery(sql);
        FUSION_CHECK(q.isOk());
        return q.value();
    };
    const query::Query avg =
        parse("SELECT AVG(l_discount), SUM(l_extendedprice), COUNT(*) "
              "FROM appended WHERE l_quantity >= 30");
    const query::Query discount =
        parse("SELECT l_discount FROM lineitem WHERE l_quantity < 30");
    // Zone maps cannot prune this equality, yet no row matches: the
    // baseline fetches (and admits) l_discount chunks the data plane
    // never decodes.
    const query::Query no_match = parse(
        "SELECT l_discount FROM lineitem WHERE l_extendedprice = 20000.01");

    MemoRun run;
    // Admission window on a cold cache: the fetcher arrives while the
    // pusher's pushdowns are pending and converts them to a shared
    // fetch, which admits the chunks.
    sched::SharedScanScheduler scheduler(*store);
    sim::SimEngine &engine = cluster.engine();
    std::vector<sched::QueryHandle *> handles;
    auto submit = [&](const query::Query &q) {
        if (drop_memo)
            store->dropCaches();
        handles.push_back(scheduler.submit(q, handles.size()));
    };
    submit(pusher);
    engine.scheduleAt(1e-4, [&]() { submit(fetcher); });
    engine.scheduleAt(2e-4, [&]() { submit(later); });
    engine.scheduleAt(3e-4, [&]() { submit(avg); });
    scheduler.awaitAll();
    for (sched::QueryHandle *h : handles) {
        FUSION_CHECK(h->status().isOk());
        run.outcomes.push_back(h->outcome());
    }
    run.fetchConversions = scheduler.windowStats().fetchConversions;

    // Then queries alone, against whatever the window left resident.
    auto solo = [&](const query::Query &q) {
        if (drop_memo)
            store->dropCaches();
        auto outcome = store->query(q);
        FUSION_CHECK(outcome.isOk());
        run.outcomes.push_back(outcome.value());
    };
    solo(pusher);
    solo(fetcher);
    solo(avg);
    solo(discount);
    solo(fetcher); // evicts l_discount chunks
    solo(no_match);
    solo(discount);
    solo(later);

    obs::MetricsRegistry &reg = store->obs().metrics;
    for (const char *name :
         {"cache.chunk.hits", "cache.chunk.misses", "cache.chunk.evictions",
          "wire.filter.request_bytes", "wire.filter.reply_bytes",
          "wire.projection.request_bytes", "wire.projection.reply_bytes",
          "wire.client.request_bytes", "wire.client.reply_bytes",
          "wire.client.reply_plain_bytes"})
        run.instruments[name] =
            static_cast<double>(reg.counter(name).value());
    run.instruments["cache.chunk.bytes"] =
        reg.gauge("cache.chunk.bytes").value();
    ThreadPool::setSharedThreads(1);
    return run;
}

void
expectSameRun(const MemoRun &got, const MemoRun &want,
              const std::string &label)
{
    EXPECT_EQ(got.instruments, want.instruments) << label;
    ASSERT_EQ(got.outcomes.size(), want.outcomes.size()) << label;
    for (size_t i = 0; i < want.outcomes.size(); ++i) {
        const store::QueryOutcome &g = got.outcomes[i];
        const store::QueryOutcome &w = want.outcomes[i];
        const std::string at = label + ", query " + std::to_string(i);
        EXPECT_EQ(g.latencySeconds, w.latencySeconds) << at;
        EXPECT_EQ(g.cpuSeconds, w.cpuSeconds) << at;
        EXPECT_EQ(g.networkBytes, w.networkBytes) << at;
        EXPECT_EQ(g.result.rowsMatched, w.result.rowsMatched) << at;
        EXPECT_EQ(g.result.rowsScanned, w.result.rowsScanned) << at;
        ASSERT_EQ(g.result.columns.size(), w.result.columns.size()) << at;
        for (size_t c = 0; c < w.result.columns.size(); ++c) {
            const query::ProjectionResult &gc = g.result.columns[c];
            const query::ProjectionResult &wc = w.result.columns[c];
            EXPECT_EQ(gc.name, wc.name) << at;
            EXPECT_EQ(gc.isAggregate, wc.isAggregate) << at;
            EXPECT_EQ(gc.aggregateValue, wc.aggregateValue) << at;
            EXPECT_TRUE(gc.values == wc.values) << at << ", " << wc.name;
        }
    }
}

TEST(MemoInvisibilityTest, DroppingTheMemoChangesNoOutcome)
{
    for (bool fusion : {true, false}) {
        const std::string store = fusion ? "fusion" : "baseline";
        MemoRun kept = runMemoSequence(fusion, 1, false);
        // The sequence exercises what the memo could leak into: cache
        // hits, an appended object with an AVG and (Fusion) a
        // mid-window conversion to a shared fetch.
        EXPECT_GT(kept.instruments.at("cache.chunk.hits"), 0.0) << store;
        EXPECT_GT(kept.outcomes[3].deltaSegmentsScanned, 0u) << store;
        EXPECT_EQ(kept.fetchConversions > 0, fusion) << store;
        for (size_t threads : {1, 4}) {
            const std::string label =
                store + " at FUSION_THREADS=" + std::to_string(threads);
            expectSameRun(runMemoSequence(fusion, threads, true), kept,
                          label + ", memo dropped");
            expectSameRun(runMemoSequence(fusion, threads, false), kept,
                          label + ", memo kept");
        }
    }
}

} // namespace
} // namespace fusion
