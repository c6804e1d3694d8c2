/**
 * @file
 * Coordinator hot-chunk cache tests: SIEVE admission/eviction order
 * against hand-computed traces, byte-capacity accounting under mixed
 * chunk sizes, edge cases (zero capacity, single entry, exact fit,
 * oversized rejection), cache.* counter correctness, store-level
 * admission on fetch verdicts with the Cost-Equation flip to
 * "cached-local", survival across the no-op dropCaches() the
 * end-to-end bench calls before every submit, and the determinism
 * contract — identical hit/miss/eviction sequences and byte-identical
 * metrics at FUSION_THREADS=1/2/4.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/chunk_cache.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "sim/cluster.h"
#include "store/fusion_store.h"
#include "workload/lineitem.h"
#include "workload/queries.h"

namespace fusion {
namespace {

// ---------------------------------------------------------------------
// SIEVE unit tests.
// ---------------------------------------------------------------------

std::vector<uint32_t>
residentChunks(const cache::ChunkCache &c, const std::string &object)
{
    std::vector<uint32_t> ids;
    for (const auto &key : c.residentKeys())
        if (key.first == object)
            ids.push_back(key.second);
    return ids;
}

TEST(CacheUnitTest, ZeroCapacityCacheIsDisabled)
{
    cache::ChunkCache c(0);
    EXPECT_FALSE(c.enabled());
    EXPECT_FALSE(c.admit("o", 0, 1));
    EXPECT_FALSE(c.contains("o", 0));
    EXPECT_EQ(c.sizeBytes(), 0u);
    EXPECT_EQ(c.entryCount(), 0u);
    EXPECT_EQ(c.evictions(), 0u);
}

TEST(CacheUnitTest, AdmitAndLookupRoundTrip)
{
    cache::ChunkCache c(100);
    ASSERT_TRUE(c.admit("o", 3, 40));
    EXPECT_EQ(c.sizeBytes(), 40u);
    EXPECT_EQ(c.entryCount(), 1u);

    EXPECT_TRUE(c.lookup("o", 3));
    EXPECT_FALSE(c.lookup("o", 4));
    EXPECT_FALSE(c.lookup("other", 3));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheUnitTest, ByteCapacityAccountingUnderMixedChunkSizes)
{
    cache::ChunkCache c(100);
    ASSERT_TRUE(c.admit("o", 0, 10));
    ASSERT_TRUE(c.admit("o", 1, 30));
    ASSERT_TRUE(c.admit("o", 2, 60)); // exactly full
    EXPECT_EQ(c.sizeBytes(), 100u);
    EXPECT_EQ(c.entryCount(), 3u);
    EXPECT_EQ(c.evictions(), 0u);

    // One more byte of demand evicts from the tail until it fits: the
    // 25-byte admission only needs chunk 0 (10) and chunk 1 (30) gone.
    ASSERT_TRUE(c.admit("o", 3, 25));
    EXPECT_EQ(c.evictions(), 2u);
    EXPECT_EQ(c.sizeBytes(), 85u);
    EXPECT_EQ(residentChunks(c, "o"), (std::vector<uint32_t>{3, 2}));
}

TEST(CacheUnitTest, ExactFitAndSingleEntryEviction)
{
    cache::ChunkCache c(100);
    ASSERT_TRUE(c.admit("o", 0, 100)); // exact fit
    EXPECT_EQ(c.sizeBytes(), 100u);
    // The next exact-fit admission must evict the only entry.
    ASSERT_TRUE(c.admit("o", 1, 100));
    EXPECT_EQ(c.evictions(), 1u);
    EXPECT_EQ(c.sizeBytes(), 100u);
    EXPECT_FALSE(c.contains("o", 0));
    EXPECT_TRUE(c.contains("o", 1));
}

TEST(CacheUnitTest, OversizedChunkRejectedWithoutEviction)
{
    cache::ChunkCache c(100);
    ASSERT_TRUE(c.admit("o", 0, 50));
    EXPECT_FALSE(c.admit("o", 1, 101));
    EXPECT_EQ(c.evictions(), 0u);
    EXPECT_TRUE(c.contains("o", 0));
    // Empty chunks are rejected too.
    EXPECT_FALSE(c.admit("o", 2, 0));
}

TEST(CacheUnitTest, SieveEvictsOldestUnvisitedAndSparesVisited)
{
    // Hand-computed trace. Queue is written newest-first below.
    cache::ChunkCache c(120);
    ASSERT_TRUE(c.admit("o", 0, 40)); // [0]
    ASSERT_TRUE(c.admit("o", 1, 40)); // [1 0]
    ASSERT_TRUE(c.admit("o", 2, 40)); // [2 1 0], full
    ASSERT_TRUE(c.lookup("o", 0)); // chunk 0 visited

    // Admit 3: the hand starts at the tail (0), spares it because it
    // was visited (clearing the bit), and evicts 1 — the oldest
    // unvisited entry.
    ASSERT_TRUE(c.admit("o", 3, 40)); // [3 2 0]
    EXPECT_EQ(c.evictions(), 1u);
    EXPECT_FALSE(c.contains("o", 1));
    EXPECT_EQ(residentChunks(c, "o"), (std::vector<uint32_t>{3, 2, 0}));
}

TEST(CacheUnitTest, HandResumesWhereThePreviousScanStopped)
{
    // Continue the trace above: after sparing 0 and evicting 1 the
    // hand rests on 2, so the next eviction takes 2 even though 0 is
    // older — its visited bit was already spent.
    cache::ChunkCache c(120);
    ASSERT_TRUE(c.admit("o", 0, 40));
    ASSERT_TRUE(c.admit("o", 1, 40));
    ASSERT_TRUE(c.admit("o", 2, 40));
    ASSERT_TRUE(c.lookup("o", 0));
    ASSERT_TRUE(c.admit("o", 3, 40)); // evicts 1, hand on 2

    ASSERT_TRUE(c.admit("o", 4, 40)); // evicts 2
    EXPECT_EQ(c.evictions(), 2u);
    EXPECT_FALSE(c.contains("o", 2));
    EXPECT_EQ(residentChunks(c, "o"), (std::vector<uint32_t>{4, 3, 0}));
}

TEST(CacheUnitTest, HandPassClearsEveryVisitedBitThenWrapsToTail)
{
    cache::ChunkCache c(120);
    ASSERT_TRUE(c.admit("o", 0, 40));
    ASSERT_TRUE(c.admit("o", 1, 40));
    ASSERT_TRUE(c.admit("o", 2, 40));
    // Every entry visited: the hand clears all three bits, wraps off
    // the head back to the tail and evicts the oldest entry.
    ASSERT_TRUE(c.lookup("o", 0));
    ASSERT_TRUE(c.lookup("o", 1));
    ASSERT_TRUE(c.lookup("o", 2));
    ASSERT_TRUE(c.admit("o", 3, 40));
    EXPECT_EQ(c.evictions(), 1u);
    EXPECT_FALSE(c.contains("o", 0));
    EXPECT_EQ(residentChunks(c, "o"), (std::vector<uint32_t>{3, 2, 1}));
}

TEST(CacheUnitTest, ReAdmissionMarksVisitedInsteadOfDuplicating)
{
    cache::ChunkCache c(120);
    ASSERT_TRUE(c.admit("o", 0, 40));
    ASSERT_TRUE(c.admit("o", 1, 40));
    ASSERT_TRUE(c.admit("o", 2, 40));
    // Re-admit 0 (a resident key keeps its size): no size change, but
    // 0 now survives the next hand pass like a lookup hit.
    ASSERT_TRUE(c.admit("o", 0, 10));
    EXPECT_EQ(c.sizeBytes(), 120u);
    EXPECT_EQ(c.entryCount(), 3u);
    ASSERT_TRUE(c.admit("o", 3, 40));
    EXPECT_TRUE(c.contains("o", 0));
    EXPECT_FALSE(c.contains("o", 1));
}

TEST(CacheUnitTest, InvalidateRemovesEntryAndKeepsEvictionOrderSane)
{
    cache::ChunkCache c(120);
    ASSERT_TRUE(c.admit("o", 0, 40));
    ASSERT_TRUE(c.admit("o", 1, 40));
    ASSERT_TRUE(c.admit("o", 2, 40));
    c.invalidate("o", 1);
    EXPECT_EQ(c.sizeBytes(), 80u);
    c.invalidate("o", 9); // absent: no-op
    EXPECT_EQ(c.entryCount(), 2u);
    EXPECT_EQ(c.evictions(), 0u); // invalidation is not an eviction

    // Eviction still works after the middle of the queue vanished.
    ASSERT_TRUE(c.admit("o", 3, 80));
    EXPECT_EQ(c.evictions(), 1u);
    EXPECT_FALSE(c.contains("o", 0));
}

TEST(CacheUnitTest, InvalidateObjectDropsOnlyThatObject)
{
    cache::ChunkCache c(1000);
    ASSERT_TRUE(c.admit("a", 0, 10));
    ASSERT_TRUE(c.admit("a", 1, 10));
    ASSERT_TRUE(c.admit("ab", 0, 10)); // prefix, distinct object
    ASSERT_TRUE(c.admit("b", 0, 10));
    c.invalidateObject("a");
    EXPECT_FALSE(c.contains("a", 0));
    EXPECT_FALSE(c.contains("a", 1));
    EXPECT_TRUE(c.contains("ab", 0));
    EXPECT_TRUE(c.contains("b", 0));
    EXPECT_EQ(c.sizeBytes(), 20u);
}

TEST(CacheUnitTest, ClearDropsEntriesButKeepsTallies)
{
    cache::ChunkCache c(100);
    ASSERT_TRUE(c.admit("o", 0, 60));
    ASSERT_TRUE(c.lookup("o", 0));
    ASSERT_TRUE(c.admit("o", 1, 60)); // evicts 0
    c.clear();
    EXPECT_EQ(c.entryCount(), 0u);
    EXPECT_EQ(c.sizeBytes(), 0u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.evictions(), 1u);
    // Still usable after clear.
    ASSERT_TRUE(c.admit("o", 2, 60));
    EXPECT_TRUE(c.contains("o", 2));
}

TEST(CacheUnitTest, BoundCountersMirrorHandComputedTrace)
{
    obs::MetricsRegistry reg;
    cache::ChunkCache c(120);
    c.bindMetrics(&reg.counter("cache.chunk.hits"),
                  &reg.counter("cache.chunk.misses"),
                  &reg.counter("cache.chunk.evictions"),
                  &reg.gauge("cache.chunk.bytes"));

    ASSERT_TRUE(c.admit("o", 0, 40));
    ASSERT_TRUE(c.admit("o", 1, 40));
    ASSERT_TRUE(c.lookup("o", 0));  // hit
    EXPECT_FALSE(c.lookup("o", 7)); // miss
    ASSERT_TRUE(c.admit("o", 2, 40)); // full, no eviction
    ASSERT_TRUE(c.admit("o", 3, 40)); // spares 0, evicts 1

    // Hand-computed: 1 hit, 1 miss, 1 eviction, 120 resident bytes.
    EXPECT_EQ(reg.counter("cache.chunk.hits").value(), 1u);
    EXPECT_EQ(reg.counter("cache.chunk.misses").value(), 1u);
    EXPECT_EQ(reg.counter("cache.chunk.evictions").value(), 1u);
    EXPECT_EQ(reg.gauge("cache.chunk.bytes").value(), 120.0);
    // Registry instruments mirror the local tallies exactly.
    EXPECT_EQ(reg.counter("cache.chunk.hits").value(), c.hits());
    EXPECT_EQ(reg.counter("cache.chunk.misses").value(), c.misses());
    EXPECT_EQ(reg.counter("cache.chunk.evictions").value(),
              c.evictions());
    EXPECT_EQ(reg.gauge("cache.chunk.bytes").value(),
              static_cast<double>(c.sizeBytes()));
}

// ---------------------------------------------------------------------
// Store-level behaviour: admission on fetch verdicts, the
// "cached-local" flip, and survival across dropCaches().
// ---------------------------------------------------------------------

struct Rig {
    std::unique_ptr<sim::Cluster> cluster;
    std::unique_ptr<store::FusionStore> store;
    format::Table table;
};

Rig
makeRig(uint64_t cache_bytes, size_t rows = 3000)
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

/** A query whose projection chunks get a fetch verdict (high
 *  selectivity x the quantity column's high compressibility), so the
 *  planner admits them into the coordinator cache. */
query::Query
fetchVerdictQuery(const Rig &rig, double selectivity = 0.8)
{
    return workload::microbenchQuery(
        "lineitem", "l_quantity",
        rig.table.column(workload::kQuantity), selectivity);
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

TEST(CacheStoreTest, FetchVerdictAdmitsAndRepeatQueryGoesCachedLocal)
{
    Rig rig = makeRig(64 << 20);
    query::Query q = fetchVerdictQuery(rig);

    auto first = rig.store->query(q);
    ASSERT_TRUE(first.isOk());
    EXPECT_GT(first.value().projectionFetches, 0u);
    EXPECT_EQ(first.value().projectionCachedLocal, 0u);
    EXPECT_GT(rig.store->chunkCache().entryCount(), 0u);
    uint64_t wire_first = totalWireBytes(*rig.store);

    auto second = rig.store->query(q);
    ASSERT_TRUE(second.isOk());
    EXPECT_GT(second.value().projectionCachedLocal, 0u);
    EXPECT_EQ(second.value().projectionFetches, 0u);
    // Identical real results either way.
    EXPECT_EQ(second.value().result.rowsMatched,
              first.value().result.rowsMatched);
    // The repeat query moved strictly fewer bytes.
    uint64_t wire_second = totalWireBytes(*rig.store) - wire_first;
    EXPECT_LT(wire_second, wire_first);
    EXPECT_GT(rig.store->obs().metrics.counter("cache.chunk.hits").value(),
              0u);
}

TEST(CacheStoreTest, DisabledCacheNeverAdmitsOrCounts)
{
    Rig rig = makeRig(0);
    query::Query q = fetchVerdictQuery(rig);
    ASSERT_TRUE(rig.store->query(q).isOk());
    auto second = rig.store->query(q);
    ASSERT_TRUE(second.isOk());
    EXPECT_EQ(second.value().projectionCachedLocal, 0u);
    EXPECT_EQ(rig.store->chunkCache().entryCount(), 0u);
    obs::MetricsRegistry &reg = rig.store->obs().metrics;
    EXPECT_EQ(reg.counter("cache.chunk.hits").value(), 0u);
    EXPECT_EQ(reg.counter("cache.chunk.misses").value(), 0u);
}

TEST(CacheStoreTest, ChunkCacheSurvivesDropCaches)
{
    Rig rig = makeRig(64 << 20);
    ASSERT_TRUE(rig.store->query(fetchVerdictQuery(rig)).isOk());
    size_t resident = rig.store->chunkCache().entryCount();
    ASSERT_GT(resident, 0u);
    rig.store->dropCaches();
    EXPECT_EQ(rig.store->chunkCache().entryCount(), resident);

    auto repeat = rig.store->query(fetchVerdictQuery(rig));
    ASSERT_TRUE(repeat.isOk());
    EXPECT_GT(repeat.value().projectionCachedLocal, 0u);
}

TEST(CacheStoreTest, DeleteObjectInvalidatesItsChunks)
{
    Rig rig = makeRig(64 << 20);
    ASSERT_TRUE(rig.store->query(fetchVerdictQuery(rig)).isOk());
    ASSERT_GT(rig.store->chunkCache().entryCount(), 0u);
    ASSERT_TRUE(rig.store->deleteObject("lineitem").isOk());
    EXPECT_EQ(rig.store->chunkCache().entryCount(), 0u);
}

// ---------------------------------------------------------------------
// Determinism: the admission/eviction/hit sequence is a function of
// the query sequence alone, not of FUSION_THREADS.
// ---------------------------------------------------------------------

struct CacheTrace {
    std::string metricsJson;
    std::vector<cache::ChunkCache::Key> resident;
    uint64_t hits = 0, misses = 0, evictions = 0;
};

CacheTrace
runCacheWorkload(size_t threads)
{
    ThreadPool::setSharedThreads(threads);
    // Capacity far below the working set so evictions churn.
    Rig rig = makeRig(16 << 10);
    // Mixed trace: repeated hot query, cold sweeps at two
    // selectivities, then the hot query again.
    std::vector<query::Query> timeline;
    timeline.push_back(fetchVerdictQuery(rig, 0.8));
    timeline.push_back(fetchVerdictQuery(rig, 0.8));
    timeline.push_back(workload::microbenchQuery(
        "lineitem", "l_extendedprice",
        rig.table.column(workload::kExtendedPrice), 0.7));
    timeline.push_back(fetchVerdictQuery(rig, 0.9));
    timeline.push_back(fetchVerdictQuery(rig, 0.8));
    for (const auto &q : timeline)
        FUSION_CHECK(rig.store->query(q).isOk());

    CacheTrace trace;
    trace.metricsJson = rig.store->obs().metrics.snapshot().toJson();
    trace.resident = rig.store->chunkCache().residentKeys();
    trace.hits = rig.store->chunkCache().hits();
    trace.misses = rig.store->chunkCache().misses();
    trace.evictions = rig.store->chunkCache().evictions();
    ThreadPool::setSharedThreads(1);
    return trace;
}

TEST(CacheDeterminismTest, SameTraceAtAnyThreadCount)
{
    CacheTrace serial = runCacheWorkload(1);
    EXPECT_GT(serial.hits, 0u);
    EXPECT_GT(serial.evictions, 0u);
    for (size_t threads : {2, 4}) {
        CacheTrace other = runCacheWorkload(threads);
        EXPECT_EQ(serial.metricsJson, other.metricsJson)
            << "metrics diverged at FUSION_THREADS=" << threads;
        EXPECT_EQ(serial.resident, other.resident)
            << "resident set diverged at FUSION_THREADS=" << threads;
        EXPECT_EQ(serial.hits, other.hits);
        EXPECT_EQ(serial.misses, other.misses);
        EXPECT_EQ(serial.evictions, other.evictions);
    }
}

TEST(CacheDeterminismTest, RepeatRunsAreByteIdentical)
{
    CacheTrace a = runCacheWorkload(1);
    CacheTrace b = runCacheWorkload(1);
    EXPECT_EQ(a.metricsJson, b.metricsJson);
    EXPECT_EQ(a.resident, b.resident);
}

} // namespace
} // namespace fusion
