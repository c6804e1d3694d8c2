/**
 * @file
 * Integration tests for src/store: Put/Get round trips on both stores,
 * fault tolerance (degraded reads, repair), query correctness (results
 * identical across stores and equal to a direct table evaluation),
 * the adaptive pushdown policy, and the latency/traffic relationships
 * the paper's evaluation depends on.
 */
#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "format/chunk_codec.h"
#include "query/parser.h"
#include "store/baseline_store.h"
#include "store/fusion_store.h"
#include "workload/lineitem.h"
#include "workload/queries.h"
#include "workload/taxi.h"

namespace fusion::store {
namespace {

using query::AggregateKind;
using query::CompareOp;

struct TestRig {
    std::unique_ptr<sim::Cluster> cluster;
    std::unique_ptr<ObjectStore> store;
};

TestRig
makeRig(bool fusion, StoreOptions options = {}, size_t nodes = 9)
{
    TestRig rig;
    sim::ClusterConfig config;
    config.numNodes = nodes;
    rig.cluster = std::make_unique<sim::Cluster>(config);
    if (fusion)
        rig.store =
            std::make_unique<FusionStore>(*rig.cluster, options);
    else
        rig.store =
            std::make_unique<BaselineStore>(*rig.cluster, options);
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

TEST(PutGetTest, RoundTripBothStores)
{
    Bytes object = lineitemBytes();
    for (bool fusion : {false, true}) {
        TestRig rig = makeRig(fusion);
        auto put = rig.store->put("lineitem", object);
        ASSERT_TRUE(put.isOk()) << put.status().toString();
        EXPECT_EQ(put.value().objectBytes, object.size());
        EXPECT_EQ(put.value().numChunks, 160u);
        auto back = rig.store->get("lineitem");
        ASSERT_TRUE(back.isOk());
        EXPECT_EQ(back.value(), object) << "fusion=" << fusion;
    }
}

TEST(PutGetTest, RangeReads)
{
    Bytes object = lineitemBytes();
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        uint64_t offset = rng.uniformInt(0, object.size() - 2);
        uint64_t size =
            rng.uniformInt(1, std::min<uint64_t>(object.size() - offset,
                                                 100000));
        auto range = rig.store->get("lineitem", offset, size);
        ASSERT_TRUE(range.isOk());
        EXPECT_TRUE(Slice(range.value()) ==
                    Slice(object).subslice(offset, size));
    }
    EXPECT_FALSE(
        rig.store->get("lineitem", object.size() - 10, 20).isOk());
}

// offset + size may wrap past 2^64: both the plain branch and the
// delta-log (merged) branch must reject such ranges, not wrap them.
TEST(PutGetTest, RangeReadsRejectOverflowingExtents)
{
    StoreOptions options;
    options.compaction.enabled = false;
    TestRig rig = makeRig(true, options);
    ASSERT_TRUE(rig.store->put("plain", lineitemBytes(1000)).isOk());
    ASSERT_TRUE(rig.store->put("appended", lineitemBytes(1000)).isOk());
    ASSERT_TRUE(
        rig.store
            ->lifecycle()
            .append("appended", workload::makeLineitemTable(50, 3))
            .isOk());
    for (const char *name : {"plain", "appended"}) {
        for (auto [offset, size] :
             {std::pair<uint64_t, uint64_t>{UINT64_MAX, 2},
              {1, UINT64_MAX},
              {UINT64_MAX, UINT64_MAX}}) {
            auto range = rig.store->get(name, offset, size);
            ASSERT_FALSE(range.isOk()) << name << " " << offset << "+"
                                       << size;
            EXPECT_EQ(range.status().code(), StatusCode::kOutOfRange)
                << name;
        }
        auto whole = rig.store->get(name);
        ASSERT_TRUE(whole.isOk());
        auto tail = rig.store->get(name, whole.value().size() - 1, 1);
        ASSERT_TRUE(tail.isOk()) << name;
        EXPECT_EQ(tail.value().back(), whole.value().back());
    }
}

TEST(PutGetTest, OpaqueObjectsSupported)
{
    TestRig rig = makeRig(true);
    Rng rng(3);
    Bytes blob(3 << 20);
    for (auto &b : blob)
        b = static_cast<uint8_t>(rng.next());
    auto put = rig.store->put("blob", blob);
    ASSERT_TRUE(put.isOk());
    // Opaque objects fall back to fixed blocks (one giant "chunk").
    EXPECT_EQ(put.value().layoutKind, fac::LayoutKind::kFixed);
    auto back = rig.store->get("blob");
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), blob);
    // ...and cannot be queried.
    EXPECT_FALSE(rig.store->querySql("SELECT a FROM blob").isOk());
}

TEST(PutGetTest, FusionLayoutKeepsChunksIntact)
{
    TestRig rig = makeRig(true);
    auto put = rig.store->put("lineitem", lineitemBytes());
    ASSERT_TRUE(put.isOk());
    EXPECT_EQ(put.value().layoutKind, fac::LayoutKind::kFac);
    EXPECT_DOUBLE_EQ(put.value().splitFraction, 0.0);
    EXPECT_LE(put.value().overheadVsOptimal, 0.02);

    const ObjectManifest &m = *rig.store->manifest("lineitem").value();
    for (uint32_t c = 0; c < m.numDataChunks(); ++c)
        EXPECT_EQ(m.nodesForChunk(c).size(), 1u) << "chunk " << c;
}

TEST(PutGetTest, BaselineSplitsChunks)
{
    StoreOptions options;
    // Block size comparable to the larger chunks of this scaled-down
    // file, mirroring the paper's 100 MB blocks on GB files.
    options.fixedBlockSize = 4 << 10;
    TestRig rig = makeRig(false, options);
    auto put = rig.store->put("lineitem", lineitemBytes());
    ASSERT_TRUE(put.isOk());
    EXPECT_EQ(put.value().layoutKind, fac::LayoutKind::kFixed);
    EXPECT_GT(put.value().splitFraction, 0.15);
}

TEST(PutGetTest, OverwriteReplacesObject)
{
    TestRig rig = makeRig(true);
    Bytes v1 = lineitemBytes(2000, 1);
    Bytes v2 = lineitemBytes(2500, 2);
    ASSERT_TRUE(rig.store->put("obj", v1).isOk());
    ASSERT_TRUE(rig.store->put("obj", v2).isOk());
    auto back = rig.store->get("obj");
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), v2);
}

TEST(PutGetTest, NamesThatSpellAnotherObjectsKeysAreRejected)
{
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("t", lineitemBytes()).isOk());
    ASSERT_TRUE(
        rig.store->lifecycle()
            .append("t", workload::makeLineitemTable(500, 9)).isOk());
    ASSERT_TRUE(rig.store->lifecycle().compactObject("t").isOk());
    auto before = rig.store->get("t");
    ASSERT_TRUE(before.isOk());
    // "t@g1" is t's generation-1 key prefix: storing it would overwrite
    // t's blocks. A '|' would split a scheduler share key.
    for (const char *name : {"", "t@g1", "t|0"})
        EXPECT_EQ(rig.store->put(name, lineitemBytes()).status().code(),
                  StatusCode::kInvalidArgument)
            << "'" << name << "'";
    auto after = rig.store->get("t");
    ASSERT_TRUE(after.isOk());
    EXPECT_EQ(after.value(), before.value());
}

TEST(PutGetTest, DeleteKeepsHeatOfPrefixNamedObjects)
{
    TestRig rig = makeRig(true);
    for (const char *name : {"a", "a#0"})
        ASSERT_TRUE(rig.store->put(name, lineitemBytes()).isOk());
    const format::Table table = workload::makeLineitemTable(4000, 7);
    ASSERT_TRUE(rig.store->query(workload::lineitemQ1("a#0", table)).isOk());
    const obs::ChunkHeatTable &heat = rig.store->obs().telemetry.heat();
    const size_t entries = heat.size();
    ASSERT_GT(entries, 0u);
    ASSERT_TRUE(rig.store->deleteObject("a").isOk());
    EXPECT_EQ(heat.size(), entries);
}

TEST(PutGetTest, StoredBytesMatchNodeAccounting)
{
    TestRig rig = makeRig(true);
    auto put = rig.store->put("lineitem", lineitemBytes());
    ASSERT_TRUE(put.isOk());
    uint64_t on_nodes = 0;
    for (size_t i = 0; i < rig.cluster->numNodes(); ++i)
        on_nodes += rig.cluster->node(i).storedBytes();
    EXPECT_EQ(on_nodes, put.value().storedBytes);
}

TEST(FaultToleranceTest, DegradedReadsUpToNMinusK)
{
    Bytes object = lineitemBytes();
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    // RS(9,6) tolerates 3 failures.
    rig.cluster->killNode(0);
    rig.cluster->killNode(3);
    rig.cluster->killNode(7);
    auto back = rig.store->get("lineitem");
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(back.value(), object);

    rig.cluster->killNode(8); // fourth failure: unrecoverable
    EXPECT_FALSE(rig.store->get("lineitem").isOk());
}

TEST(FaultToleranceTest, QueriesSurviveFailures)
{
    Bytes object = lineitemBytes();
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    auto healthy = rig.store->querySql(
        "SELECT l_orderkey FROM lineitem WHERE l_quantity < 5");
    ASSERT_TRUE(healthy.isOk());

    rig.cluster->killNode(2);
    rig.cluster->killNode(5);
    auto degraded = rig.store->querySql(
        "SELECT l_orderkey FROM lineitem WHERE l_quantity < 5");
    ASSERT_TRUE(degraded.isOk()) << degraded.status().toString();
    EXPECT_EQ(degraded.value().result.rowsMatched,
              healthy.value().result.rowsMatched);
}

TEST(FaultToleranceTest, RepairRestoresBlocks)
{
    Bytes object = lineitemBytes();
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    size_t victim = 4;
    uint64_t before = rig.cluster->node(victim).storedBytes();
    rig.cluster->killNode(victim);
    rig.cluster->node(victim).wipe(); // media loss
    rig.cluster->reviveNode(victim);

    auto rebuilt = rig.store->repairNode(victim);
    ASSERT_TRUE(rebuilt.isOk()) << rebuilt.status().toString();
    EXPECT_GT(rebuilt.value(), 0u);
    EXPECT_EQ(rig.cluster->node(victim).storedBytes(), before);

    auto back = rig.store->get("lineitem");
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), object);
    // Repair is idempotent.
    EXPECT_EQ(rig.store->repairNode(victim).value(), 0u);
}

// Reference evaluation against the raw table for correctness oracle.
uint64_t
referenceCount(const format::Table &t, size_t col, double literal)
{
    uint64_t count = 0;
    for (size_t i = 0; i < t.numRows(); ++i)
        if (t.column(col).valueAt(i).numeric() < literal)
            ++count;
    return count;
}

TEST(QueryCorrectnessTest, MatchesReferenceEvaluation)
{
    const size_t rows = 4000;
    format::Table table = workload::makeLineitemTable(rows, 7);
    Bytes object = lineitemBytes(rows, 7);

    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    auto outcome = rig.store->querySql(
        "SELECT l_extendedprice FROM lineitem WHERE l_quantity < 10");
    ASSERT_TRUE(outcome.isOk());
    uint64_t expect =
        referenceCount(table, workload::kQuantity, 10.0);
    EXPECT_EQ(outcome.value().result.rowsMatched, expect);
    ASSERT_EQ(outcome.value().result.columns.size(), 1u);
    EXPECT_EQ(outcome.value().result.columns[0].values.size(), expect);
}

TEST(QueryCorrectnessTest, BaselineAndFusionAgree)
{
    Bytes object = lineitemBytes();
    TestRig baseline = makeRig(false);
    TestRig fusion = makeRig(true);
    ASSERT_TRUE(baseline.store->put("lineitem", object).isOk());
    ASSERT_TRUE(fusion.store->put("lineitem", object).isOk());

    const char *queries[] = {
        "SELECT l_orderkey FROM lineitem WHERE l_quantity < 3",
        "SELECT l_comment FROM lineitem WHERE l_returnflag = 'R'",
        "SELECT COUNT(*) FROM lineitem WHERE l_discount >= 0.08",
        "SELECT SUM(l_extendedprice), AVG(l_discount) FROM lineitem "
        "WHERE l_shipdate < 600 AND l_quantity < 25",
        "SELECT l_shipmode FROM lineitem WHERE l_comment > 'q'",
    };
    for (const char *sql : queries) {
        auto a = baseline.store->querySql(sql);
        auto b = fusion.store->querySql(sql);
        ASSERT_TRUE(a.isOk()) << sql << ": " << a.status().toString();
        ASSERT_TRUE(b.isOk()) << sql << ": " << b.status().toString();
        EXPECT_EQ(a.value().result.rowsMatched,
                  b.value().result.rowsMatched)
            << sql;
        ASSERT_EQ(a.value().result.columns.size(),
                  b.value().result.columns.size());
        for (size_t c = 0; c < a.value().result.columns.size(); ++c) {
            const auto &ca = a.value().result.columns[c];
            const auto &cb = b.value().result.columns[c];
            EXPECT_EQ(ca.isAggregate, cb.isAggregate);
            if (ca.isAggregate)
                EXPECT_DOUBLE_EQ(ca.aggregateValue, cb.aggregateValue)
                    << sql;
            else
                EXPECT_TRUE(ca.values == cb.values) << sql;
        }
    }
}

TEST(QueryCorrectnessTest, SelectStarAndAggregates)
{
    Bytes object = lineitemBytes(2000, 9);
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", object).isOk());

    auto star =
        rig.store->querySql("SELECT * FROM lineitem WHERE l_orderkey < 50");
    ASSERT_TRUE(star.isOk());
    EXPECT_EQ(star.value().result.columns.size(), 16u);

    auto agg = rig.store->querySql(
        "SELECT COUNT(*), MIN(l_quantity), MAX(l_quantity) FROM lineitem");
    ASSERT_TRUE(agg.isOk());
    EXPECT_DOUBLE_EQ(agg.value().result.columns[1].aggregateValue, 1.0);
    EXPECT_DOUBLE_EQ(agg.value().result.columns[2].aggregateValue, 50.0);
    EXPECT_EQ(agg.value().result.rowsMatched, 2000u);
}

TEST(QueryCorrectnessTest, UnknownColumnsAndObjectsRejected)
{
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", lineitemBytes()).isOk());
    EXPECT_FALSE(rig.store->querySql("SELECT nope FROM lineitem").isOk());
    EXPECT_FALSE(
        rig.store
            ->querySql("SELECT l_orderkey FROM lineitem WHERE nope < 3")
            .isOk());
    EXPECT_EQ(
        rig.store->querySql("SELECT a FROM missing").status().code(),
        StatusCode::kNotFound);
    EXPECT_EQ(rig.store->querySql("SELECT MIN(l_comment) FROM lineitem")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
}

TEST(QueryExecutionTest, ZoneMapsSkipRowGroups)
{
    // l_orderkey is monotonically increasing, so a narrow key range
    // touches only a prefix of row groups.
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", lineitemBytes()).isOk());
    auto outcome = rig.store->querySql(
        "SELECT l_orderkey FROM lineitem WHERE l_orderkey < 10");
    ASSERT_TRUE(outcome.isOk());
    EXPECT_GE(outcome.value().rowGroupsSkipped, 8u);
    EXPECT_LE(outcome.value().rowGroupsScanned, 2u);
}

TEST(QueryExecutionTest, SelectiveQueryPushesDown)
{
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", lineitemBytes()).isOk());
    // ~1% selectivity on a modestly compressible column: push down.
    auto outcome = rig.store->querySql(
        "SELECT l_comment FROM lineitem WHERE l_quantity < 2");
    ASSERT_TRUE(outcome.isOk());
    EXPECT_GT(outcome.value().projectionPushdowns, 0u);
    EXPECT_EQ(outcome.value().projectionFetches, 0u);
    EXPECT_GT(outcome.value().filterChunkPushdowns, 0u);
}

TEST(QueryExecutionTest, HighSelectivityDisablesProjectionPushdown)
{
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", lineitemBytes()).isOk());
    // 100% selectivity on a highly compressible column (returnflag has
    // 3 distinct values): selectivity x compressibility >> 1.
    auto outcome = rig.store->querySql(
        "SELECT l_returnflag FROM lineitem WHERE l_quantity <= 50");
    ASSERT_TRUE(outcome.isOk());
    EXPECT_EQ(outcome.value().projectionPushdowns, 0u);
    EXPECT_GT(outcome.value().projectionFetches, 0u);
    // Filters are still pushed down even when projections are not.
    EXPECT_GT(outcome.value().filterChunkPushdowns, 0u);
}

TEST(QueryExecutionTest, AdaptiveOffAlwaysPushes)
{
    StoreOptions options;
    options.adaptivePushdown = false;
    TestRig rig = makeRig(true, options);
    ASSERT_TRUE(rig.store->put("lineitem", lineitemBytes()).isOk());
    auto outcome = rig.store->querySql(
        "SELECT l_returnflag FROM lineitem WHERE l_quantity <= 50");
    ASSERT_TRUE(outcome.isOk());
    EXPECT_GT(outcome.value().projectionPushdowns, 0u);
    EXPECT_EQ(outcome.value().projectionFetches, 0u);
}

TEST(QueryExecutionTest, FusionBeatsBaselineOnSelectiveQuery)
{
    Bytes object = lineitemBytes();
    StoreOptions options;
    options.fixedBlockSize = 256 << 10; // force chunk splits in baseline
    // Scale service rates down so transfer time dominates fixed RPC
    // latency, as on the paper's GB-scale files (see benchutil rigs).
    sim::ClusterConfig cluster_config;
    cluster_config.node.diskBandwidth /= 1000;
    cluster_config.node.nicBandwidth /= 1000;
    cluster_config.node.cpuRate /= 1000;
    TestRig baseline, fusion;
    baseline.cluster = std::make_unique<sim::Cluster>(cluster_config);
    baseline.store = std::make_unique<BaselineStore>(*baseline.cluster,
                                                     options);
    fusion.cluster = std::make_unique<sim::Cluster>(cluster_config);
    fusion.store = std::make_unique<FusionStore>(*fusion.cluster, options);
    ASSERT_TRUE(baseline.store->put("lineitem", object).isOk());
    ASSERT_TRUE(fusion.store->put("lineitem", object).isOk());

    const char *sql =
        "SELECT l_comment FROM lineitem WHERE l_extendedprice < 2000";
    auto b = baseline.store->querySql(sql);
    auto f = fusion.store->querySql(sql);
    ASSERT_TRUE(b.isOk());
    ASSERT_TRUE(f.isOk());
    EXPECT_LT(f.value().latencySeconds, b.value().latencySeconds);
    EXPECT_LT(f.value().networkBytes, b.value().networkBytes);
}

TEST(QueryExecutionTest, AggregatePushdownShrinksReplies)
{
    Bytes object = lineitemBytes();
    StoreOptions plain;
    StoreOptions with_agg;
    with_agg.aggregatePushdown = true;
    TestRig rig_plain = makeRig(true, plain);
    TestRig rig_agg = makeRig(true, with_agg);
    ASSERT_TRUE(rig_plain.store->put("lineitem", object).isOk());
    ASSERT_TRUE(rig_agg.store->put("lineitem", object).isOk());

    const char *sql = "SELECT SUM(l_extendedprice) FROM lineitem "
                      "WHERE l_quantity < 30";
    auto a = rig_plain.store->querySql(sql);
    auto b = rig_agg.store->querySql(sql);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_DOUBLE_EQ(a.value().result.columns[0].aggregateValue,
                     b.value().result.columns[0].aggregateValue);
    EXPECT_LT(b.value().networkBytes, a.value().networkBytes);
    EXPECT_LT(b.value().latencySeconds, a.value().latencySeconds);
}

TEST(QueryExecutionTest, AggregatePushdownExplainObeysCostEquation)
{
    // An aggregate pushdown's selectivity term is its reply tuple, so
    // every "push" row it explains satisfies the Cost Equation.
    StoreOptions options;
    options.aggregatePushdown = true;
    TestRig rig = makeRig(true, options);
    ASSERT_TRUE(rig.store->put("lineitem", lineitemBytes()).isOk());
    rig.store->obs().explainEnabled = true;
    auto outcome = rig.store->querySql(
        "SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity <= 50");
    ASSERT_TRUE(outcome.isOk()) << outcome.status().toString();
    ASSERT_NE(outcome.value().explain, nullptr);
    size_t aggregate_rows = 0;
    for (const obs::ExplainChunk &row :
         outcome.value().explain->projections) {
        if (row.reason.find("aggregate-only projection") ==
            std::string::npos)
            continue;
        ++aggregate_rows;
        EXPECT_EQ(row.verdict, "push") << "chunk " << row.chunkId;
        EXPECT_LT(row.product(), 1.0) << "chunk " << row.chunkId;
    }
    EXPECT_GT(aggregate_rows, 0u);
}

TEST(QueryExecutionTest, RepeatedQueriesAreDeterministic)
{
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", lineitemBytes()).isOk());
    const char *sql =
        "SELECT l_partkey FROM lineitem WHERE l_suppkey < 100";
    auto first = rig.store->querySql(sql);
    auto second = rig.store->querySql(sql);
    ASSERT_TRUE(first.isOk());
    ASSERT_TRUE(second.isOk());
    // Same plan on an idle cluster: identical latency and traffic
    // (up to floating-point noise from differing absolute sim times).
    EXPECT_NEAR(first.value().latencySeconds,
                second.value().latencySeconds,
                1e-9 * first.value().latencySeconds);
    EXPECT_EQ(first.value().networkBytes, second.value().networkBytes);
}

TEST(QueryExecutionTest, TaxiQuerySuiteSelectivities)
{
    const size_t rows = 8000;
    format::Table taxi = workload::makeTaxiTable(rows, 11);
    auto file = workload::buildTaxiFile(rows, 11);
    ASSERT_TRUE(file.isOk());

    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("taxi", file.value().bytes).isOk());

    auto q3 = rig.store->query(workload::taxiQ3("taxi", taxi));
    ASSERT_TRUE(q3.isOk());
    double sel3 = static_cast<double>(q3.value().result.rowsMatched) / rows;
    EXPECT_NEAR(sel3, 0.375, 0.02);

    auto q4 = rig.store->query(workload::taxiQ4("taxi", taxi));
    ASSERT_TRUE(q4.isOk());
    double sel4 = static_cast<double>(q4.value().result.rowsMatched) / rows;
    EXPECT_NEAR(sel4, 0.063, 0.01);
    // AVG(fare) is a sane dollar value.
    EXPECT_GT(q4.value().result.columns[1].aggregateValue, 2.5);
    EXPECT_LT(q4.value().result.columns[1].aggregateValue, 60.0);
}

/** Rows of column `col` where l_quantity < `limit`, in table order. */
format::ColumnData
referenceColumn(const format::Table &t, size_t col, double limit)
{
    format::ColumnData out(t.column(col).type());
    for (size_t i = 0; i < t.numRows(); ++i)
        if (t.column(workload::kQuantity).valueAt(i).numeric() < limit)
            out.appendValue(t.column(col).valueAt(i));
    return out;
}

/** Runs a planned query alone through the stage DAG, as queryAsync. */
QueryOutcome
simulatePlan(ObjectStore &store, const std::shared_ptr<QueryPlan> &plan)
{
    bool done = false;
    store.stages().simulateQuery(plan, store.cluster().engine().now(), "",
                                 nullptr, [&done]() { done = true; });
    store.cluster().engine().run();
    EXPECT_TRUE(done);
    return plan->outcome;
}

uint64_t
counterValue(ObjectStore &store, const char *name)
{
    return store.obs().metrics.counter(name).value();
}

TEST(ClientReplyTest, DictionaryColumnShipsEncoded)
{
    const size_t rows = 4000;
    format::Table table = workload::makeLineitemTable(rows, 7);
    const format::ColumnData want =
        referenceColumn(table, workload::kReturnFlag, 10.0);
    ASSERT_FALSE(want.empty());
    const uint64_t encoded = format::encodeChunk(want, {}).bytes.size();
    const uint64_t plain = want.plainEncodedSize();
    ASSERT_LT(encoded, plain);
    const double work = static_cast<double>(encoded) +
                        0.25 * static_cast<double>(plain);
    const auto q = query::parseQuery(
        "SELECT l_returnflag FROM lineitem WHERE l_quantity < 10");
    ASSERT_TRUE(q.isOk());

    for (bool fusion : {false, true}) {
        TestRig rig = makeRig(fusion);
        ASSERT_TRUE(rig.store->put("lineitem", lineitemBytes()).isOk());
        rig.store->obs().explainEnabled = true;

        auto outcome = rig.store->query(q.value());
        ASSERT_TRUE(outcome.isOk()) << outcome.status().toString();
        ASSERT_EQ(outcome.value().result.columns.size(), 1u);
        EXPECT_TRUE(outcome.value().result.columns[0].values == want)
            << "fusion=" << fusion;
        EXPECT_EQ(counterValue(*rig.store, "wire.client.reply_bytes"),
                  encoded);
        EXPECT_EQ(
            counterValue(*rig.store, "wire.client.reply_plain_bytes"),
            plain);
        if (fusion) {
            ASSERT_NE(outcome.value().explain, nullptr);
            ASSERT_EQ(outcome.value().explain->replies.size(), 1u);
            const obs::ExplainReply &line =
                outcome.value().explain->replies[0];
            EXPECT_EQ(line.column, "l_returnflag");
            EXPECT_EQ(line.encoding, "encoded:dictionary");
            EXPECT_EQ(line.bytes, encoded);
            EXPECT_EQ(line.plainBytes, plain);
            EXPECT_NE(outcome.value().explain->render().find(
                          "reply: l_returnflag  encoded:dictionary"),
                      std::string::npos);
        }

        // The same plan with the reply CPU zeroed: cpuSeconds differs
        // by exactly the coordinator encode and the client decode.
        auto planned = rig.store->planQueryForBatch(q.value());
        ASSERT_TRUE(planned.isOk());
        auto with_reply = planned.value();
        EXPECT_EQ(with_reply->clientReplyBytes, encoded);
        EXPECT_DOUBLE_EQ(with_reply->clientReplyWork, work);
        auto without = std::make_shared<QueryPlan>(*with_reply);
        without->clientReplyWork = 0.0;
        const QueryOutcome a = simulatePlan(*rig.store, with_reply);
        const QueryOutcome b = simulatePlan(*rig.store, without);
        const double rate = rig.cluster->config().node.cpuRate;
        EXPECT_EQ(a.cpuSeconds, b.cpuSeconds + work / rate + work / rate)
            << "fusion=" << fusion;
        EXPECT_GT(a.latencySeconds, b.latencySeconds);
    }
}

TEST(ClientReplyTest, PlainColumnKeepsPlainSize)
{
    format::Table table = workload::makeLineitemTable(4000, 7);
    const format::ColumnData want =
        referenceColumn(table, workload::kExtendedPrice, 10.0);
    ASSERT_FALSE(want.empty());
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", lineitemBytes()).isOk());
    rig.store->obs().explainEnabled = true;
    auto outcome = rig.store->querySql(
        "SELECT l_extendedprice FROM lineitem WHERE l_quantity < 10");
    ASSERT_TRUE(outcome.isOk());
    EXPECT_TRUE(outcome.value().result.columns[0].values == want);
    EXPECT_EQ(counterValue(*rig.store, "wire.client.reply_bytes"),
              want.plainEncodedSize());
    EXPECT_EQ(counterValue(*rig.store, "wire.client.reply_plain_bytes"),
              want.plainEncodedSize());
    ASSERT_NE(outcome.value().explain, nullptr);
    ASSERT_EQ(outcome.value().explain->replies.size(), 1u);
    EXPECT_EQ(outcome.value().explain->replies[0].encoding, "plain");
}

TEST(ClientReplyTest, ZeroRowResultShipsNothing)
{
    for (bool fusion : {false, true}) {
        TestRig rig = makeRig(fusion);
        ASSERT_TRUE(rig.store->put("lineitem", lineitemBytes()).isOk());
        auto outcome = rig.store->querySql(
            "SELECT l_returnflag, l_extendedprice FROM lineitem "
            "WHERE l_quantity < 0");
        ASSERT_TRUE(outcome.isOk()) << outcome.status().toString();
        EXPECT_EQ(outcome.value().result.rowsMatched, 0u);
        EXPECT_EQ(counterValue(*rig.store, "wire.client.reply_bytes"), 0u);
        EXPECT_EQ(
            counterValue(*rig.store, "wire.client.reply_plain_bytes"), 0u);
    }
}

TEST(MemoCounterTest, DecodeCountsOneHitOrMissPerDistinctChunk)
{
    const size_t rows = 4000;
    format::Table table = workload::makeLineitemTable(rows, 7);
    TestRig rig = makeRig(true);
    ASSERT_TRUE(rig.store->put("lineitem", lineitemBytes(rows)).isOk());
    auto first = rig.store->querySql(
        "SELECT l_extendedprice FROM lineitem WHERE l_quantity < 10");
    ASSERT_TRUE(first.isOk());

    // Every scanned row group decodes its l_quantity chunk; each one
    // with a match also decodes its l_extendedprice chunk.
    const format::FileMetadata &meta =
        rig.store->manifest("lineitem").value()->fileMeta;
    uint64_t decoded = first.value().rowGroupsScanned;
    size_t row = 0;
    for (const auto &group : meta.rowGroups) {
        bool matched = false;
        for (size_t r = row; r < row + group.numRows; ++r)
            matched = matched ||
                      table.column(workload::kQuantity).valueAt(r).numeric() <
                          10;
        decoded += matched ? 1 : 0;
        row += group.numRows;
    }
    ASSERT_EQ(row, rows);
    EXPECT_EQ(counterValue(*rig.store, "cache.decode.miss"), decoded);
    EXPECT_EQ(counterValue(*rig.store, "cache.decode.hit"), 0u);

    // A different query over the same filter column finds its filter
    // chunks already decoded.
    ASSERT_TRUE(rig.store
                    ->querySql("SELECT l_discount FROM lineitem "
                               "WHERE l_quantity < 20")
                    .isOk());
    EXPECT_GT(counterValue(*rig.store, "cache.decode.hit"), 0u);
}

} // namespace
} // namespace fusion::store
