/**
 * @file
 * Object lifecycle tests (store/delta_lifecycle.h): the append delta
 * log, background folds and the heat-driven re-stripe policy. The
 * invariants probed here are the subsystem's contract:
 *
 *   - queries against base + live delta segments return exactly what a
 *     monolithic put of the concatenated table returns;
 *   - get() of an appended object is byte-identical to the fpax file
 *     the compactor will eventually write (so compaction is
 *     unobservable through the read path);
 *   - compaction folds deterministically (generation bump, counters,
 *     byte-identity) and an aborted fold leaves the old generation and
 *     the full log untouched without keeping the DES alive;
 *   - the re-stripe decision consults real access heat and surfaces in
 *     the manifest and EXPLAIN;
 *   - deleteObject leaves no residue: delta replicas, heat entries and
 *     cache residency all drop with the object.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "format/reader.h"
#include "query/parser.h"
#include "store/fusion_store.h"
#include "workload/lineitem.h"

namespace fusion::store {
namespace {

struct TestRig {
    std::unique_ptr<sim::Cluster> cluster;
    std::unique_ptr<FusionStore> store;
};

TestRig
makeRig(StoreOptions options = {}, size_t nodes = 9)
{
    TestRig rig;
    sim::ClusterConfig config;
    config.numNodes = nodes;
    rig.cluster = std::make_unique<sim::Cluster>(config);
    rig.store = std::make_unique<FusionStore>(*rig.cluster, options);
    return rig;
}

/** Options with background compaction off, so delta logs stay live. */
StoreOptions
noCompactionOptions()
{
    StoreOptions options;
    options.compaction.enabled = false;
    return options;
}

/** Appends every row of `extra` onto a copy of `base`. */
format::Table
concatTables(const format::Table &base, const format::Table &extra)
{
    format::Table merged = base;
    for (size_t col = 0; col < merged.numColumns(); ++col)
        merged.column(col).append(extra.column(col));
    return merged;
}

/** Aggregates reduce once over base-then-delta values, the order a
 *  fresh put of the merged table scans, so every field — aggregate
 *  doubles included — must match the reference exactly. */
void
expectSameResult(const query::QueryResult &got,
                 const query::QueryResult &want)
{
    EXPECT_EQ(got.rowsMatched, want.rowsMatched);
    ASSERT_EQ(got.columns.size(), want.columns.size());
    for (size_t i = 0; i < want.columns.size(); ++i) {
        const auto &g = got.columns[i];
        const auto &w = want.columns[i];
        EXPECT_EQ(g.name, w.name);
        EXPECT_EQ(g.isAggregate, w.isAggregate);
        if (w.isAggregate) {
            EXPECT_EQ(g.aggregateValue, w.aggregateValue)
                << "aggregate " << w.name;
        } else {
            EXPECT_TRUE(g.values == w.values) << "projection " << w.name;
        }
    }
}

constexpr size_t kBaseRows = 4000;
// buildLineitemFile writes 10 row groups: 400 rows each, all full, so
// the store's baseRowGroupRows probe and this constant agree.
constexpr size_t kBaseGroupRows = 400;

// Order keys grow by at most 4 per row, so a batch of at most 250 rows
// stays below this key and zone maps skip every delta row group.
const std::string kDeltaSkipQuery =
    "SELECT l_orderkey, l_tax FROM lineitem WHERE l_orderkey > 2000";

const std::vector<std::string> &
coverageQueries()
{
    static const std::vector<std::string> queries = {
        "SELECT l_quantity, l_discount FROM lineitem WHERE l_quantity > 45",
        "SELECT l_extendedprice FROM lineitem "
        "WHERE l_quantity >= 10 AND l_quantity < 13",
        kDeltaSkipQuery,
        "SELECT COUNT(*) FROM lineitem WHERE l_quantity > 25",
        "SELECT l_orderkey FROM lineitem WHERE l_quantity < 4",
        "SELECT SUM(l_extendedprice), AVG(l_discount) FROM lineitem "
        "WHERE l_quantity >= 30",
        "SELECT COUNT(*), MIN(l_extendedprice), MAX(l_extendedprice) "
        "FROM lineitem",
        "SELECT l_comment FROM lineitem WHERE l_returnflag = 'R'",
        "SELECT * FROM lineitem WHERE l_orderkey < 40",
    };
    return queries;
}

TEST(LifecycleAppendTest, QueriesMergeDeltaSegments)
{
    TestRig rig = makeRig(noCompactionOptions());
    auto base = workload::buildLineitemFile(kBaseRows, 7);
    ASSERT_TRUE(base.isOk());
    ASSERT_TRUE(rig.store->put("lineitem", base.value().bytes).isOk());

    format::Table batch_a = workload::makeLineitemTable(120, 21);
    format::Table batch_b = workload::makeLineitemTable(250, 22);
    auto a = rig.store->lifecycle().append("lineitem", batch_a);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    EXPECT_EQ(a.value().seq, 0u);
    EXPECT_EQ(a.value().rows, 120u);
    EXPECT_EQ(a.value().replicas, kDeltaReplicas);
    EXPECT_GT(a.value().segmentBytes, 0u);
    auto b = rig.store->lifecycle().append("lineitem", batch_b);
    ASSERT_TRUE(b.isOk());
    EXPECT_EQ(b.value().seq, 1u);
    ASSERT_NE(rig.store->lifecycle().deltaLog("lineitem"), nullptr);
    EXPECT_EQ(rig.store->lifecycle().deltaLog("lineitem")->size(), 2u);

    // Reference: a monolithic put of the concatenated table, written
    // with the same row-group geometry as the appended object's base.
    TestRig ref = makeRig(noCompactionOptions());
    format::Table merged =
        concatTables(concatTables(workload::makeLineitemTable(kBaseRows, 7),
                                  batch_a),
                     batch_b);
    format::WriterOptions writer_options;
    writer_options.rowGroupRows = kBaseGroupRows;
    auto merged_file = format::writeTable(merged, writer_options);
    ASSERT_TRUE(merged_file.isOk());
    ASSERT_TRUE(
        ref.store->put("lineitem", merged_file.value().bytes).isOk());

    rig.store->obs().explainEnabled = true;
    for (const std::string &text : coverageQueries()) {
        auto got = rig.store->querySql(text);
        auto want = ref.store->querySql(text);
        ASSERT_TRUE(got.isOk()) << text << ": " << got.status().toString();
        ASSERT_TRUE(want.isOk()) << text;
        expectSameResult(got.value().result, want.value().result);
        EXPECT_EQ(got.value().deltaSegmentsScanned, 2u) << text;
        EXPECT_EQ(want.value().deltaSegmentsScanned, 0u) << text;
        // The reference's appended rows fill its last row group. Equal
        // row-group counts hold only when zone maps skip that group and
        // both delta segments' groups, leaving the same base rows.
        if (text == kDeltaSkipQuery) {
            EXPECT_EQ(got.value().rowGroupsScanned,
                      want.value().rowGroupsScanned);
            EXPECT_EQ(got.value().result.rowsScanned,
                      want.value().result.rowsScanned);
        }
        // The merge surfaces in EXPLAIN as per-segment delta rows.
        ASSERT_NE(got.value().explain, nullptr);
        bool has_delta = false;
        for (const auto &chunk : got.value().explain->projections)
            has_delta = has_delta || chunk.verdict == "delta";
        EXPECT_TRUE(has_delta) << text;
    }
    EXPECT_EQ(rig.store->obs().metrics.counter("append.appends").value(),
              2u);
    EXPECT_EQ(rig.store->obs().metrics.counter("append.rows").value(),
              370u);
    EXPECT_GT(
        rig.store->obs().metrics.counter("append.delta_scans").value(),
        0u);
}

TEST(LifecycleAppendTest, MergedReplyMatchesFreshPutReference)
{
    TestRig rig = makeRig(noCompactionOptions());
    auto base = workload::buildLineitemFile(kBaseRows, 7);
    ASSERT_TRUE(base.isOk());
    ASSERT_TRUE(rig.store->put("lineitem", base.value().bytes).isOk());
    format::Table batch = workload::makeLineitemTable(300, 41);
    ASSERT_TRUE(rig.store->lifecycle().append("lineitem", batch).isOk());

    TestRig ref = makeRig(noCompactionOptions());
    format::WriterOptions writer_options;
    writer_options.rowGroupRows = kBaseGroupRows;
    auto merged_file = format::writeTable(
        concatTables(workload::makeLineitemTable(kBaseRows, 7), batch),
        writer_options);
    ASSERT_TRUE(merged_file.isOk());
    ASSERT_TRUE(
        ref.store->put("lineitem", merged_file.value().bytes).isOk());

    // l_returnflag and l_shipmode ship encoded, l_extendedprice plain;
    // the delta rows ride inside the same encoded reply column.
    const std::string text =
        "SELECT l_returnflag, l_extendedprice, l_shipmode FROM lineitem "
        "WHERE l_quantity < 12";
    rig.store->obs().explainEnabled = true;
    ref.store->obs().explainEnabled = true;
    auto got = rig.store->querySql(text);
    auto want = ref.store->querySql(text);
    ASSERT_TRUE(got.isOk()) << got.status().toString();
    ASSERT_TRUE(want.isOk());
    EXPECT_EQ(got.value().deltaSegmentsScanned, 1u);
    expectSameResult(got.value().result, want.value().result);

    for (const char *name :
         {"wire.client.reply_bytes", "wire.client.reply_plain_bytes"})
        EXPECT_EQ(rig.store->obs().metrics.counter(name).value(),
                  ref.store->obs().metrics.counter(name).value())
            << name;
    ASSERT_NE(got.value().explain, nullptr);
    ASSERT_NE(want.value().explain, nullptr);
    const auto &got_lines = got.value().explain->replies;
    const auto &want_lines = want.value().explain->replies;
    ASSERT_EQ(got_lines.size(), 3u);
    ASSERT_EQ(want_lines.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(got_lines[i].encoding, want_lines[i].encoding);
        EXPECT_EQ(got_lines[i].bytes, want_lines[i].bytes);
        EXPECT_EQ(got_lines[i].plainBytes, want_lines[i].plainBytes);
    }
    EXPECT_EQ(got_lines[0].encoding, "encoded:dictionary");
    EXPECT_EQ(got_lines[1].encoding, "plain");
    EXPECT_EQ(got_lines[2].encoding, "encoded:dictionary");
    EXPECT_LT(got_lines[0].bytes, got_lines[0].plainBytes);
}

TEST(LifecycleAppendTest, GetReturnsMergedMaterialization)
{
    TestRig rig = makeRig(noCompactionOptions());
    auto base = workload::buildLineitemFile(kBaseRows, 7);
    ASSERT_TRUE(base.isOk());
    ASSERT_TRUE(rig.store->put("lineitem", base.value().bytes).isOk());
    format::Table batch = workload::makeLineitemTable(90, 33);
    ASSERT_TRUE(rig.store->lifecycle().append("lineitem", batch).isOk());

    format::Table merged =
        concatTables(workload::makeLineitemTable(kBaseRows, 7), batch);
    format::WriterOptions writer_options;
    writer_options.rowGroupRows = kBaseGroupRows;
    auto want = format::writeTable(merged, writer_options);
    ASSERT_TRUE(want.isOk());

    auto got = rig.store->get("lineitem");
    ASSERT_TRUE(got.isOk());
    EXPECT_TRUE(got.value() == want.value().bytes);

    // Range reads slice the same merged image.
    auto slice = rig.store->get("lineitem", 100, 4096);
    ASSERT_TRUE(slice.isOk());
    EXPECT_TRUE(slice.value() ==
                Bytes(want.value().bytes.begin() + 100,
                      want.value().bytes.begin() + 100 + 4096));
    EXPECT_FALSE(
        rig.store->get("lineitem", want.value().bytes.size(), 1).isOk());
}

TEST(LifecycleCompactionTest, SizeTriggerFoldsLogAndBumpsGeneration)
{
    StoreOptions options;
    options.compaction.maxDeltaSegments = 2;
    TestRig rig = makeRig(options);
    auto base = workload::buildLineitemFile(kBaseRows, 7);
    ASSERT_TRUE(base.isOk());
    ASSERT_TRUE(rig.store->put("lineitem", base.value().bytes).isOk());

    ASSERT_TRUE(
        rig.store->lifecycle()
            .append("lineitem", workload::makeLineitemTable(80, 41))
            .isOk());
    ASSERT_TRUE(
        rig.store->lifecycle()
            .append("lineitem", workload::makeLineitemTable(60, 42))
            .isOk());

    // The merged read before the fold is the compactor's target image.
    auto before = rig.store->get("lineitem");
    ASSERT_TRUE(before.isOk());
    auto count_before =
        rig.store->querySql("SELECT COUNT(*) FROM lineitem");
    ASSERT_TRUE(count_before.isOk());

    // The second append crossed maxDeltaSegments, so a fold is already
    // scheduled; querySql above ran the engine to completion and the
    // fold landed with it.
    auto m = rig.store->manifest("lineitem");
    ASSERT_TRUE(m.isOk());
    EXPECT_EQ(m.value()->generation, 1u);
    ASSERT_NE(rig.store->lifecycle().deltaLog("lineitem"), nullptr);
    EXPECT_TRUE(rig.store->lifecycle().deltaLog("lineitem")->empty());
    auto &metrics = rig.store->obs().metrics;
    EXPECT_EQ(metrics.counter("compaction.runs").value(), 1u);
    EXPECT_EQ(metrics.counter("compaction.aborts").value(), 0u);
    EXPECT_EQ(metrics.counter("compaction.folded_segments").value(), 2u);
    EXPECT_GT(metrics.counter("compaction.bytes_in").value(), 0u);
    EXPECT_GT(metrics.counter("compaction.bytes_out").value(), 0u);

    // Compaction must be unobservable through reads: the new base is
    // byte-identical to the pre-fold merged materialization, and the
    // delta sequence counter never rewinds.
    auto after = rig.store->get("lineitem");
    ASSERT_TRUE(after.isOk());
    EXPECT_TRUE(after.value() == before.value());
    // Both come from the copy-through fold; a full rewrite of the merged
    // table is the independent reference.
    format::WriterOptions writer_options;
    writer_options.rowGroupRows = kBaseGroupRows;
    auto want = format::writeTable(
        concatTables(
            concatTables(workload::makeLineitemTable(kBaseRows, 7),
                         workload::makeLineitemTable(80, 41)),
            workload::makeLineitemTable(60, 42)),
        writer_options);
    ASSERT_TRUE(want.isOk());
    EXPECT_TRUE(after.value() == want.value().bytes);
    auto count_after =
        rig.store->querySql("SELECT COUNT(*) FROM lineitem");
    ASSERT_TRUE(count_after.isOk());
    EXPECT_EQ(count_after.value().result.rowsMatched,
              count_before.value().result.rowsMatched);
    EXPECT_EQ(count_after.value().deltaSegmentsScanned, 0u);
    EXPECT_EQ(rig.store->lifecycle().deltaLog("lineitem")->nextSeq(), 2u);

    // A post-fold append lands in the new generation's log with the
    // next monotone sequence number.
    auto again =
        rig.store->lifecycle()
            .append("lineitem", workload::makeLineitemTable(10, 43));
    ASSERT_TRUE(again.isOk());
    EXPECT_EQ(again.value().seq, 2u);
}

TEST(LifecycleCompactionTest, AbortLeavesOldGenerationAndLogIntact)
{
    StoreOptions options;
    options.compaction.maxDeltaSegments = 2;
    TestRig rig = makeRig(options);
    auto base = workload::buildLineitemFile(kBaseRows, 7);
    ASSERT_TRUE(base.isOk());
    ASSERT_TRUE(rig.store->put("lineitem", base.value().bytes).isOk());
    ASSERT_TRUE(
        rig.store->lifecycle()
            .append("lineitem", workload::makeLineitemTable(40, 61))
            .isOk());

    // Kill n-k+1 nodes: the base can no longer be read even with
    // parity, so the scheduled fold must abort — and must NOT re-arm
    // itself (engine.run() returns instead of looping forever).
    for (size_t node = 0; node < 4; ++node)
        rig.cluster->killNode(node);
    ASSERT_TRUE(
        rig.store->lifecycle()
            .append("lineitem", workload::makeLineitemTable(40, 62))
            .isOk());
    rig.cluster->engine().run();

    auto &metrics = rig.store->obs().metrics;
    EXPECT_GE(metrics.counter("compaction.aborts").value(), 1u);
    EXPECT_EQ(metrics.counter("compaction.runs").value(), 0u);
    auto m = rig.store->manifest("lineitem");
    ASSERT_TRUE(m.isOk());
    EXPECT_EQ(m.value()->generation, 0u);
    EXPECT_EQ(rig.store->lifecycle().deltaLog("lineitem")->size(), 2u);

    // Recovery: revive the nodes; the next append re-triggers the fold
    // and it now succeeds over the full three-segment log.
    for (size_t node = 0; node < 4; ++node)
        rig.cluster->reviveNode(node);
    ASSERT_TRUE(
        rig.store->lifecycle()
            .append("lineitem", workload::makeLineitemTable(40, 63))
            .isOk());
    rig.cluster->engine().run();
    m = rig.store->manifest("lineitem");
    ASSERT_TRUE(m.isOk());
    EXPECT_EQ(m.value()->generation, 1u);
    EXPECT_TRUE(rig.store->lifecycle().deltaLog("lineitem")->empty());
    EXPECT_EQ(metrics.counter("compaction.runs").value(), 1u);

    format::Table merged = concatTables(
        concatTables(
            concatTables(workload::makeLineitemTable(kBaseRows, 7),
                         workload::makeLineitemTable(40, 61)),
            workload::makeLineitemTable(40, 62)),
        workload::makeLineitemTable(40, 63));
    format::WriterOptions writer_options;
    writer_options.rowGroupRows = kBaseGroupRows;
    auto want = format::writeTable(merged, writer_options);
    ASSERT_TRUE(want.isOk());
    auto got = rig.store->get("lineitem");
    ASSERT_TRUE(got.isOk());
    EXPECT_TRUE(got.value() == want.value().bytes);
}

TEST(LifecycleCompactionTest, FoldWithNMinusKNodesDownIsByteIdentical)
{
    TestRig rig = makeRig(noCompactionOptions());
    auto base = workload::buildLineitemFile(kBaseRows, 7);
    ASSERT_TRUE(base.isOk());
    ASSERT_TRUE(rig.store->put("lineitem", base.value().bytes).isOk());
    format::Table batch_a = workload::makeLineitemTable(150, 71);
    format::Table batch_b = workload::makeLineitemTable(520, 72);
    ASSERT_TRUE(rig.store->lifecycle().append("lineitem", batch_a).isOk());
    ASSERT_TRUE(rig.store->lifecycle().append("lineitem", batch_b).isOk());

    // RS(9,6): kill n - k = 3 nodes, sparing one replica of every delta
    // segment. The base's copied-through row groups then arrive through
    // parity rebuilds.
    std::vector<bool> spared(rig.cluster->numNodes(), false);
    for (const auto &segment :
         rig.store->lifecycle().deltaLog("lineitem")->segments())
        spared[segment.replicaNodes.front()] = true;
    size_t killed = 0;
    for (size_t node = 0; node < spared.size() && killed < 3; ++node) {
        if (!spared[node]) {
            rig.cluster->killNode(node);
            ++killed;
        }
    }
    ASSERT_EQ(killed, 3u);

    auto folded = rig.store->lifecycle().compactObject("lineitem");
    ASSERT_TRUE(folded.isOk()) << folded.toString();
    EXPECT_EQ(rig.store->manifest("lineitem").value()->generation, 1u);
    EXPECT_GE(rig.store->obs()
                  .metrics.counter("fault.degraded_chunk_reads")
                  .value(),
              1u);

    format::WriterOptions writer_options;
    writer_options.rowGroupRows = kBaseGroupRows;
    auto want = format::writeTable(
        concatTables(
            concatTables(workload::makeLineitemTable(kBaseRows, 7), batch_a),
            batch_b),
        writer_options);
    ASSERT_TRUE(want.isOk());
    auto got = rig.store->get("lineitem");
    ASSERT_TRUE(got.isOk()) << got.status().toString();
    EXPECT_TRUE(got.value() == want.value().bytes);
}

TEST(LifecycleCompactionTest, BaseWithOtherChunkOptionsKeepsItsPrefixEncoding)
{
    // A base written without dictionaries or compression: the fold
    // copies its full row groups through as they are and re-encodes
    // only the tail under the default chunk options.
    TestRig rig = makeRig(noCompactionOptions());
    const format::Table base_rows = workload::makeLineitemTable(kBaseRows, 7);
    format::WriterOptions plain_options;
    plain_options.rowGroupRows = kBaseGroupRows;
    plain_options.chunk.enableDictionary = false;
    plain_options.chunk.compression = codec::Compression::kNone;
    auto base = format::writeTable(base_rows, plain_options);
    ASSERT_TRUE(base.isOk());
    ASSERT_TRUE(rig.store->put("lineitem", base.value().bytes).isOk());
    format::Table batch = workload::makeLineitemTable(230, 81);
    ASSERT_TRUE(rig.store->lifecycle().append("lineitem", batch).isOk());
    ASSERT_TRUE(rig.store->lifecycle().compactObject("lineitem").isOk());
    EXPECT_EQ(rig.store->manifest("lineitem").value()->generation, 1u);

    auto got = rig.store->get("lineitem");
    ASSERT_TRUE(got.isOk());
    const format::FileMetadata &base_meta = base.value().metadata;
    const uint64_t footer_start =
        base_meta.rowGroups.back().chunks.back().offset +
        base_meta.rowGroups.back().chunks.back().storedSize;
    ASSERT_GE(got.value().size(), footer_start);
    EXPECT_TRUE(std::equal(base.value().bytes.begin(),
                           base.value().bytes.begin() +
                               static_cast<ptrdiff_t>(footer_start),
                           got.value().begin()));

    // Not writeTable's bytes under the default options, but the same
    // rows, and every query answers as a fresh put of the merged table.
    format::Table merged = concatTables(base_rows, batch);
    format::WriterOptions writer_options;
    writer_options.rowGroupRows = kBaseGroupRows;
    auto merged_file = format::writeTable(merged, writer_options);
    ASSERT_TRUE(merged_file.isOk());
    EXPECT_FALSE(got.value() == merged_file.value().bytes);
    auto reader = format::FileReader::open(Slice(got.value()));
    ASSERT_TRUE(reader.isOk());
    auto table = reader.value().readTable();
    ASSERT_TRUE(table.isOk());
    for (size_t col = 0; col < merged.numColumns(); ++col)
        EXPECT_TRUE(table.value().column(col) == merged.column(col));

    TestRig ref = makeRig(noCompactionOptions());
    ASSERT_TRUE(
        ref.store->put("lineitem", merged_file.value().bytes).isOk());
    for (const std::string &text : coverageQueries()) {
        auto got_q = rig.store->querySql(text);
        auto want_q = ref.store->querySql(text);
        ASSERT_TRUE(got_q.isOk()) << text << ": "
                                  << got_q.status().toString();
        ASSERT_TRUE(want_q.isOk()) << text;
        expectSameResult(got_q.value().result, want_q.value().result);
    }
}

TEST(LifecycleRestripeTest, HotColumnsColocateAndSurfaceInExplain)
{
    TestRig rig = makeRig(noCompactionOptions());
    rig.store->obs().explainEnabled = true;
    auto base = workload::buildLineitemFile(kBaseRows, 7);
    ASSERT_TRUE(base.isOk());
    ASSERT_TRUE(rig.store->put("lineitem", base.value().bytes).isOk());

    // A skewed workload: every query touches the quantity filter column
    // and the extendedprice projection column, concentrating decayed
    // heat on columns 4 and 5.
    for (int i = 0; i < 12; ++i) {
        auto outcome = rig.store->querySql(
            "SELECT l_extendedprice FROM lineitem WHERE l_quantity > 30");
        ASSERT_TRUE(outcome.isOk());
    }

    ASSERT_TRUE(
        rig.store->lifecycle()
            .append("lineitem", workload::makeLineitemTable(50, 71))
            .isOk());
    ASSERT_TRUE(rig.store->lifecycle().compactObject("lineitem").isOk());

    auto m = rig.store->manifest("lineitem");
    ASSERT_TRUE(m.isOk());
    EXPECT_EQ(m.value()->generation, 1u);
    ASSERT_FALSE(m.value()->hotChunkIds.empty());
    const size_t num_columns = workload::lineitemSchema().numColumns();
    for (uint32_t chunk : m.value()->hotChunkIds) {
        size_t column = chunk % num_columns;
        EXPECT_TRUE(column == workload::kQuantity ||
                    column == workload::kExtendedPrice)
            << "unexpectedly hot column " << column;
    }
    EXPECT_GT(rig.store->obs()
                  .metrics.counter("compaction.hot_colocated_chunks")
                  .value(),
              0u);

    // The re-stripe is visible to the planner: projections on the hot
    // column carry the co-location marker in their EXPLAIN reason.
    auto outcome = rig.store->querySql(
        "SELECT l_extendedprice FROM lineitem WHERE l_quantity > 30");
    ASSERT_TRUE(outcome.isOk());
    ASSERT_NE(outcome.value().explain, nullptr);
    bool saw_marker = false;
    for (const auto &chunk : outcome.value().explain->projections)
        saw_marker = saw_marker ||
                     chunk.reason.find("hot-colocated") !=
                         std::string::npos;
    EXPECT_TRUE(saw_marker);

    // Results over the re-striped layout still match a fresh put.
    TestRig ref = makeRig(noCompactionOptions());
    format::Table merged =
        concatTables(workload::makeLineitemTable(kBaseRows, 7),
                     workload::makeLineitemTable(50, 71));
    format::WriterOptions writer_options;
    writer_options.rowGroupRows = kBaseGroupRows;
    auto merged_file = format::writeTable(merged, writer_options);
    ASSERT_TRUE(merged_file.isOk());
    ASSERT_TRUE(
        ref.store->put("lineitem", merged_file.value().bytes).isOk());
    for (const std::string &text : coverageQueries()) {
        auto got = rig.store->querySql(text);
        auto want = ref.store->querySql(text);
        ASSERT_TRUE(got.isOk()) << text;
        ASSERT_TRUE(want.isOk()) << text;
        expectSameResult(got.value().result, want.value().result);
    }
}

TEST(LifecycleRestripeTest, UniformHeatKeepsSizeOnlyLayout)
{
    TestRig rig = makeRig(noCompactionOptions());
    auto base = workload::buildLineitemFile(kBaseRows, 7);
    ASSERT_TRUE(base.isOk());
    ASSERT_TRUE(rig.store->put("lineitem", base.value().bytes).isOk());
    // No queries => no heat: the fold must fall back to the plain FAC
    // layout with an empty co-location hint.
    ASSERT_TRUE(
        rig.store->lifecycle()
            .append("lineitem", workload::makeLineitemTable(50, 72))
            .isOk());
    ASSERT_TRUE(rig.store->lifecycle().compactObject("lineitem").isOk());
    auto m = rig.store->manifest("lineitem");
    ASSERT_TRUE(m.isOk());
    EXPECT_EQ(m.value()->generation, 1u);
    EXPECT_TRUE(m.value()->hotChunkIds.empty());
    EXPECT_EQ(rig.store->obs()
                  .metrics.counter("compaction.hot_colocated_chunks")
                  .value(),
              0u);
}

TEST(LifecycleDeleteTest, DeleteEvictsDeltaReplicasHeatAndCache)
{
    StoreOptions options = noCompactionOptions();
    options.cacheBytes = 8ULL << 20;
    TestRig rig = makeRig(options);
    auto base = workload::buildLineitemFile(kBaseRows, 7);
    ASSERT_TRUE(base.isOk());
    ASSERT_TRUE(rig.store->put("lineitem", base.value().bytes).isOk());
    ASSERT_TRUE(
        rig.store->lifecycle()
            .append("lineitem", workload::makeLineitemTable(40, 81))
            .isOk());
    // Warm heat (base chunks + the delta alias) and cache residency.
    ASSERT_TRUE(rig.store
                    ->querySql("SELECT l_extendedprice FROM lineitem "
                               "WHERE l_quantity > 30")
                    .isOk());
    double now = rig.cluster->engine().now();
    EXPECT_GT(rig.store->obs().telemetry.heat().size(), 0u);
    EXPECT_FALSE(
        rig.store->obs().telemetry.heat().hottest(now, 4).empty());

    ASSERT_TRUE(rig.store->deleteObject("lineitem").isOk());
    EXPECT_FALSE(rig.store->contains("lineitem"));
    EXPECT_EQ(rig.store->lifecycle().deltaLog("lineitem"), nullptr);
    // No stale chunks anywhere the re-stripe policy or fusion_top
    // consult, and no bytes left on any node (base stripes AND the
    // replicated delta segments are gone).
    EXPECT_EQ(rig.store->obs().telemetry.heat().size(), 0u);
    EXPECT_EQ(rig.store->chunkCache().sizeBytes(), 0u);
    uint64_t remaining = 0;
    for (size_t node = 0; node < rig.cluster->numNodes(); ++node)
        remaining += rig.cluster->node(node).storedBytes();
    EXPECT_EQ(remaining, 0u);
}

TEST(LifecycleAppendTest, ValidationRejectsBadBatches)
{
    TestRig rig = makeRig(noCompactionOptions());
    format::Table batch = workload::makeLineitemTable(10, 91);

    // Unknown object.
    EXPECT_FALSE(rig.store->lifecycle().append("missing", batch).isOk());

    // Non-fpax object.
    Bytes blob;
    for (int i = 0; i < 1024; ++i)
        blob.push_back(static_cast<uint8_t>(i & 0xff));
    ASSERT_TRUE(rig.store->put("blob", blob).isOk());
    EXPECT_EQ(rig.store->lifecycle().append("blob", batch).status().code(),
              StatusCode::kFailedPrecondition);

    auto base = workload::buildLineitemFile(kBaseRows, 7);
    ASSERT_TRUE(base.isOk());
    ASSERT_TRUE(rig.store->put("lineitem", base.value().bytes).isOk());

    // Empty batch.
    format::Table empty(workload::lineitemSchema());
    EXPECT_EQ(rig.store->lifecycle().append("lineitem", empty).status().code(),
              StatusCode::kInvalidArgument);

    // Schema mismatch.
    format::Schema narrow;
    narrow.addColumn({"only", format::PhysicalType::kInt64,
                      format::LogicalType::kNone});
    format::Table mismatched(narrow);
    mismatched.column(0).append(static_cast<int64_t>(1));
    EXPECT_EQ(rig.store->lifecycle()
                  .append("lineitem", mismatched).status().code(),
              StatusCode::kInvalidArgument);

    // Nothing slipped into the log or the counters.
    const DeltaLog *log =
        rig.store->lifecycle().deltaLog("lineitem");
    EXPECT_TRUE(log == nullptr || log->empty());
    EXPECT_EQ(rig.store->obs().metrics.counter("append.appends").value(),
              0u);
}

} // namespace
} // namespace fusion::store
