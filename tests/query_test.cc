/**
 * @file
 * Unit tests for src/query: bitmaps, predicate evaluation, zone maps,
 * row selection, aggregates, the Cost Equation and the SQL parser.
 */
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "format/column.h"
#include "query/ast.h"
#include "query/bitmap.h"
#include "query/cost.h"
#include "query/eval.h"
#include "query/parser.h"

namespace fusion::query {
namespace {

using format::ColumnData;
using format::PhysicalType;
using format::Value;

TEST(BitmapTest, SetTestCount)
{
    Bitmap b(130);
    EXPECT_EQ(b.count(), 0u);
    b.set(0);
    b.set(64);
    b.set(129);
    EXPECT_TRUE(b.test(0));
    EXPECT_TRUE(b.test(64));
    EXPECT_TRUE(b.test(129));
    EXPECT_FALSE(b.test(1));
    EXPECT_EQ(b.count(), 3u);
    b.clear(64);
    EXPECT_EQ(b.count(), 2u);
}

TEST(BitmapTest, InitialAllOnesMasksTail)
{
    Bitmap b(70, true);
    EXPECT_EQ(b.count(), 70u);
    EXPECT_DOUBLE_EQ(b.selectivity(), 1.0);
}

TEST(BitmapTest, IntersectAndUnion)
{
    Bitmap a(10), b(10);
    a.set(1);
    a.set(2);
    b.set(2);
    b.set(3);
    Bitmap i = a;
    i.intersect(b);
    EXPECT_EQ(i.count(), 1u);
    EXPECT_TRUE(i.test(2));
    Bitmap u = a;
    u.unionWith(b);
    EXPECT_EQ(u.count(), 3u);
}

TEST(BitmapTest, SerdeRoundTrip)
{
    Bitmap b(100);
    for (size_t i = 0; i < 100; i += 7)
        b.set(i);
    auto back = Bitmap::fromBytes(Slice(b.toBytes()));
    ASSERT_TRUE(back.isOk());
    EXPECT_TRUE(back.value() == b);
}

TEST(BitmapTest, CorruptTailBitsRejected)
{
    Bitmap b(65);
    Bytes bytes = b.toBytes();
    bytes.back() |= 0x80; // set a bit beyond size 65 in the last word
    EXPECT_EQ(Bitmap::fromBytes(Slice(bytes)).status().code(),
              StatusCode::kCorruption);
}

TEST(BitmapTest, SparseBitmapCompressesWell)
{
    Bitmap sparse(100000);
    sparse.set(5);
    EXPECT_LT(sparse.compressedWireSize(), 2000u);
}

ColumnData
intColumn(std::initializer_list<int64_t> values)
{
    ColumnData col(PhysicalType::kInt64);
    for (int64_t v : values)
        col.append(v);
    return col;
}

TEST(EvalTest, AllComparisonOps)
{
    ColumnData col = intColumn({1, 2, 3, 4, 5});
    struct Case {
        CompareOp op;
        size_t expect;
    };
    for (const auto &[op, expect] :
         {Case{CompareOp::kLt, 2}, Case{CompareOp::kLe, 3},
          Case{CompareOp::kGt, 2}, Case{CompareOp::kGe, 3},
          Case{CompareOp::kEq, 1}, Case{CompareOp::kNe, 4}}) {
        auto bm = evalPredicate(col, op, Value::ofInt64(3));
        ASSERT_TRUE(bm.isOk());
        EXPECT_EQ(bm.value().count(), expect)
            << compareOpName(op);
    }
}

TEST(EvalTest, StringPredicates)
{
    ColumnData col(PhysicalType::kString);
    for (const char *s : {"apple", "banana", "cherry"})
        col.append(std::string(s));
    auto bm = evalPredicate(col, CompareOp::kEq, Value::ofString("banana"));
    ASSERT_TRUE(bm.isOk());
    EXPECT_EQ(bm.value().count(), 1u);
    EXPECT_TRUE(bm.value().test(1));
    auto lt = evalPredicate(col, CompareOp::kLt, Value::ofString("b"));
    ASSERT_TRUE(lt.isOk());
    EXPECT_EQ(lt.value().count(), 1u);
}

TEST(EvalTest, CrossNumericTypes)
{
    ColumnData col(PhysicalType::kDouble);
    col.append(1.5);
    col.append(2.5);
    auto bm = evalPredicate(col, CompareOp::kGt, Value::ofInt64(2));
    ASSERT_TRUE(bm.isOk());
    EXPECT_EQ(bm.value().count(), 1u);
}

TEST(EvalTest, TypeMismatchRejected)
{
    ColumnData col = intColumn({1, 2});
    EXPECT_FALSE(
        evalPredicate(col, CompareOp::kEq, Value::ofString("x")).isOk());
    ColumnData strings(PhysicalType::kString);
    strings.append(std::string("a"));
    EXPECT_FALSE(
        evalPredicate(strings, CompareOp::kLt, Value::ofInt64(1)).isOk());
}

format::ChunkMeta
chunkWithRange(int64_t min_v, int64_t max_v)
{
    format::ChunkMeta meta;
    meta.minValue = Value::ofInt64(min_v);
    meta.maxValue = Value::ofInt64(max_v);
    return meta;
}

TEST(ZoneMapTest, PruningIsSoundAndEffective)
{
    format::ChunkMeta meta = chunkWithRange(10, 20);
    // Definitely no match.
    EXPECT_FALSE(zoneMapMayMatch(
        meta, {"c", CompareOp::kLt, Value::ofInt64(10)}));
    EXPECT_FALSE(zoneMapMayMatch(
        meta, {"c", CompareOp::kGt, Value::ofInt64(20)}));
    EXPECT_FALSE(zoneMapMayMatch(
        meta, {"c", CompareOp::kEq, Value::ofInt64(25)}));
    // Possible matches.
    EXPECT_TRUE(zoneMapMayMatch(
        meta, {"c", CompareOp::kLe, Value::ofInt64(10)}));
    EXPECT_TRUE(zoneMapMayMatch(
        meta, {"c", CompareOp::kEq, Value::ofInt64(15)}));
    EXPECT_TRUE(zoneMapMayMatch(
        meta, {"c", CompareOp::kNe, Value::ofInt64(15)}));
    // Ne on an all-equal chunk equal to the literal is prunable.
    format::ChunkMeta constant = chunkWithRange(7, 7);
    EXPECT_FALSE(zoneMapMayMatch(
        constant, {"c", CompareOp::kNe, Value::ofInt64(7)}));
}

// Zone maps must never prune a chunk that contains a matching row.
class ZoneMapProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ZoneMapProperty, NoFalseNegatives)
{
    ColumnData col = intColumn({12, 15, 18, 12, 20, 10});
    format::ChunkMeta meta = chunkWithRange(10, 20);
    int64_t literal = GetParam();
    for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                         CompareOp::kGe, CompareOp::kEq, CompareOp::kNe}) {
        Predicate pred{"c", op, Value::ofInt64(literal)};
        auto bm = evalPredicate(col, op, pred.literal);
        ASSERT_TRUE(bm.isOk());
        if (bm.value().count() > 0) {
            EXPECT_TRUE(zoneMapMayMatch(meta, pred))
                << compareOpName(op) << " " << literal;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Literals, ZoneMapProperty,
                         ::testing::Values(5, 9, 10, 12, 15, 20, 21, 30));

TEST(SelectRowsTest, PicksSetBits)
{
    ColumnData col = intColumn({10, 20, 30, 40});
    Bitmap rows(4);
    rows.set(1);
    rows.set(3);
    ColumnData out = selectRows(col, rows);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out.int64s()[0], 20);
    EXPECT_EQ(out.int64s()[1], 40);
}

TEST(AggregateTest, AllKinds)
{
    ColumnData col = intColumn({1, 2, 3, 4});
    EXPECT_DOUBLE_EQ(
        computeAggregate(AggregateKind::kCount, col).value(), 4.0);
    EXPECT_DOUBLE_EQ(computeAggregate(AggregateKind::kSum, col).value(),
                     10.0);
    EXPECT_DOUBLE_EQ(computeAggregate(AggregateKind::kAvg, col).value(),
                     2.5);
    EXPECT_DOUBLE_EQ(computeAggregate(AggregateKind::kMin, col).value(),
                     1.0);
    EXPECT_DOUBLE_EQ(computeAggregate(AggregateKind::kMax, col).value(),
                     4.0);
}

TEST(AggregateTest, StringNumericAggregateRejected)
{
    ColumnData col(PhysicalType::kString);
    col.append(std::string("a"));
    EXPECT_FALSE(computeAggregate(AggregateKind::kSum, col).isOk());
    EXPECT_TRUE(computeAggregate(AggregateKind::kCount, col).isOk());
}

TEST(CostModelTest, CostEquationBoundary)
{
    format::ChunkMeta chunk;
    chunk.plainSize = 1000;
    chunk.storedSize = 100; // compressibility 10
    EXPECT_TRUE(decidePushdown(0.05, chunk).push);  // 0.5 < 1
    EXPECT_FALSE(decidePushdown(0.15, chunk).push); // 1.5 > 1
    auto d = decidePushdown(0.2, chunk);
    EXPECT_DOUBLE_EQ(d.compressibility, 10.0);
    EXPECT_DOUBLE_EQ(d.product(), 2.0);
    EXPECT_FALSE(d.loadShed);
}

// ---------------------------------------------------------------------
// Property tests: decidePushdown against the three forms of the Cost
// Equation it replaced, copied here as reference oracles.
// ---------------------------------------------------------------------

namespace oracle {

struct ProjectionDecision {
    bool push = true;
    double selectivity = 0.0;
    double compressibility = 1.0;
};

/** The planner's per-query form. */
ProjectionDecision
decideProjectionPushdown(double selectivity, const format::ChunkMeta &chunk)
{
    ProjectionDecision decision;
    decision.selectivity = selectivity;
    decision.compressibility = chunk.compressibility();
    decision.push = selectivity * decision.compressibility < 1.0;
    return decision;
}

struct SharedPushdownDecision {
    bool push = true;
    bool loadShed = false;
    double mergedSelectivity = 0.0;
    double compressibility = 1.0;
};

/** The merged-consumer form with the load term. */
SharedPushdownDecision
decideSharedProjectionPushdown(uint64_t merged_reply_bytes,
                               const format::ChunkMeta &chunk,
                               double node_outstanding_seconds,
                               double load_limit_seconds)
{
    SharedPushdownDecision decision;
    decision.compressibility = chunk.compressibility();
    decision.mergedSelectivity =
        chunk.plainSize == 0
            ? 0.0
            : static_cast<double>(merged_reply_bytes) /
                  static_cast<double>(chunk.plainSize);
    decision.push = merged_reply_bytes < chunk.storedSize;
    if (decision.push && load_limit_seconds > 0.0 &&
        node_outstanding_seconds > load_limit_seconds) {
        decision.push = false;
        decision.loadShed = true;
    }
    return decision;
}

/** The incremental form the admission window fed one attach at a
 *  time (one reply per distinct filter signature). */
class SharedPushdownMerge
{
  public:
    explicit SharedPushdownMerge(const format::ChunkMeta &chunk)
        : chunk_(chunk)
    {
    }

    SharedPushdownDecision
    attach(const std::string &subgroup_key, uint64_t reply_bytes,
           double node_outstanding_seconds, double load_limit_seconds)
    {
        if (subgroups_.emplace(subgroup_key, reply_bytes).second)
            mergedReplyBytes_ += reply_bytes;
        return decideSharedProjectionPushdown(mergedReplyBytes_, chunk_,
                                              node_outstanding_seconds,
                                              load_limit_seconds);
    }

    uint64_t mergedReplyBytes() const { return mergedReplyBytes_; }

  private:
    format::ChunkMeta chunk_;
    uint64_t mergedReplyBytes_ = 0;
    std::map<std::string, uint64_t> subgroups_;
};

/** The admission window's former lone-pushdown branch: only the load
 *  term could flip a single pushdown. */
bool
loneShed(double node_outstanding_seconds, double load_limit_seconds)
{
    return load_limit_seconds > 0.0 &&
           node_outstanding_seconds > load_limit_seconds;
}

} // namespace oracle

format::ChunkMeta
sizedChunk(uint64_t stored, uint64_t plain)
{
    format::ChunkMeta chunk;
    chunk.storedSize = stored;
    chunk.plainSize = plain;
    return chunk;
}

/** The admission window's selectivity term for merged consumers. */
double
windowSelectivity(uint64_t merged_reply_bytes, const format::ChunkMeta &chunk)
{
    return chunk.plainSize == 0
               ? 0.0
               : static_cast<double>(merged_reply_bytes) /
                     static_cast<double>(chunk.plainSize);
}

const std::vector<uint64_t> kGridSizes = {
    0, 1, 31, 32, 33, 100, 1000, 4096, 65537, 1u << 20, 3u << 20};
const std::vector<std::pair<double, double>> kGridLoads = {
    {0.0, 0.0}, {0.5, 0.0}, {0.05, 0.1}, {0.1, 0.1}, {0.5, 0.1},
    {0.3, 0.25}};

TEST(CostEquationProperty, PlannerFormMatchesOracle)
{
    const std::vector<double> selectivities = {
        0.0, 1e-6, 0.01, 0.1, 0.25, 0.5, 0.999, 1.0, 1.001, 2.0, 10.0};
    for (uint64_t stored : kGridSizes) {
        for (uint64_t plain : kGridSizes) {
            const auto chunk = sizedChunk(stored, plain);
            for (double sel : selectivities) {
                const auto want =
                    oracle::decideProjectionPushdown(sel, chunk);
                const auto got = decidePushdown(sel, chunk);
                SCOPED_TRACE(testing::Message()
                             << "stored=" << stored << " plain=" << plain
                             << " sel=" << sel);
                EXPECT_EQ(got.push, want.push);
                EXPECT_FALSE(got.loadShed);
                EXPECT_EQ(got.selectivity, want.selectivity);
                EXPECT_EQ(got.compressibility, want.compressibility);
            }
            // A lone pushdown in the window passes selectivity 0, so
            // only the load term can flip it.
            for (const auto &[load, limit] : kGridLoads) {
                const auto got = decidePushdown(0.0, chunk, load, limit);
                EXPECT_EQ(got.loadShed, oracle::loneShed(load, limit));
                EXPECT_EQ(got.push, !got.loadShed);
            }
        }
    }
}

TEST(CostEquationProperty, MergedFormMatchesOracleExceptTheTie)
{
    size_t ties = 0;
    size_t compared = 0;
    for (uint64_t stored : kGridSizes) {
        for (uint64_t plain : kGridSizes) {
            const auto chunk = sizedChunk(stored, plain);
            std::vector<uint64_t> merged_grid = {0, 1, 32, stored,
                                                 stored + 1, 2 * stored,
                                                 1000, 1u << 20};
            if (stored > 0)
                merged_grid.push_back(stored - 1);
            for (uint64_t merged : merged_grid) {
                for (const auto &[load, limit] : kGridLoads) {
                    const auto want = oracle::decideSharedProjectionPushdown(
                        merged, chunk, load, limit);
                    const auto got = decidePushdown(
                        windowSelectivity(merged, chunk), chunk, load,
                        limit);
                    SCOPED_TRACE(testing::Message()
                                 << "stored=" << stored << " plain=" << plain
                                 << " merged=" << merged << " load=" << load
                                 << " limit=" << limit);
                    EXPECT_EQ(got.selectivity, want.mergedSelectivity);
                    EXPECT_EQ(got.compressibility, want.compressibility);
                    // The named tie: the oracle compared integers
                    // (merged < stored), the product (m/p)(p/s) may
                    // round below 1 at merged == stored.
                    if (merged == stored) {
                        ++ties;
                        continue;
                    }
                    // A zero size makes the two forms disagree on
                    // chunks the window never sees: every stored chunk
                    // has a header, and a pushed chunk has a row, whose
                    // plain size is at least 4 bytes.
                    if (stored == 0 || plain == 0)
                        continue;
                    ++compared;
                    EXPECT_EQ(got.push, want.push);
                    EXPECT_EQ(got.loadShed, want.loadShed);
                }
            }
        }
    }
    EXPECT_GT(ties, 0u);
    EXPECT_GT(compared, 1000u);
}

TEST(CostEquationProperty, IncrementalAttachesMatchMergeOracle)
{
    std::mt19937_64 rng(42);
    for (int trial = 0; trial < 200; ++trial) {
        const uint64_t stored = 64 + rng() % 8192;
        const uint64_t plain = stored + rng() % 16384;
        const auto chunk = sizedChunk(stored, plain);
        oracle::SharedPushdownMerge merge(chunk);
        std::map<std::string, size_t> members;
        std::map<std::string, uint64_t> replies;
        uint64_t merged = 0;
        size_t pushers = 0;
        bool fetched = false;
        for (int attach = 0; attach < 12; ++attach) {
            // Few signatures, so duplicates are common.
            const std::string sig = "sig" + std::to_string(rng() % 5);
            if (!replies.count(sig))
                replies[sig] = 1 + rng() % (stored / 2);
            const auto &[load, limit] = kGridLoads[rng() % kGridLoads.size()];
            const auto want = merge.attach(sig, replies[sig], load, limit);
            if (members[sig]++ == 0)
                merged += replies[sig];
            ++pushers;
            ASSERT_EQ(merged, merge.mergedReplyBytes());
            const double sel =
                pushers < 2 ? 0.0 : windowSelectivity(merged, chunk);
            const auto got = decidePushdown(sel, chunk, load, limit);
            SCOPED_TRACE(testing::Message()
                         << "trial=" << trial << " attach=" << attach);
            if (pushers < 2) {
                EXPECT_EQ(got.loadShed, oracle::loneShed(load, limit));
            } else if (merged != stored) {
                EXPECT_EQ(got.push, want.push);
                EXPECT_EQ(got.loadShed, want.loadShed);
            }
            // Without the load term, attaches only ever flip the
            // verdict from push to fetch: merged bytes never shrink.
            const bool push_by_bytes = decidePushdown(sel, chunk).push;
            if (fetched) {
                EXPECT_FALSE(push_by_bytes);
            }
            fetched = fetched || !push_by_bytes;
        }
    }
}

TEST(ParserTest, SimpleSelect)
{
    auto q = parseQuery("SELECT a, b FROM tbl WHERE c < 5 AND d = 'x'");
    ASSERT_TRUE(q.isOk()) << q.status().toString();
    EXPECT_EQ(q.value().table, "tbl");
    ASSERT_EQ(q.value().projections.size(), 2u);
    EXPECT_EQ(q.value().projections[0].column, "a");
    ASSERT_EQ(q.value().filters.size(), 2u);
    EXPECT_EQ(q.value().filters[0].op, CompareOp::kLt);
    EXPECT_TRUE(q.value().filters[0].literal == Value::ofInt64(5));
    EXPECT_TRUE(q.value().filters[1].literal == Value::ofString("x"));
}

TEST(ParserTest, Aggregates)
{
    auto q = parseQuery(
        "select count(*), avg(fare), SUM(total) from taxi");
    ASSERT_TRUE(q.isOk()) << q.status().toString();
    ASSERT_EQ(q.value().projections.size(), 3u);
    EXPECT_TRUE(q.value().projections[0].isCountStar());
    EXPECT_EQ(q.value().projections[1].aggregate, AggregateKind::kAvg);
    EXPECT_EQ(q.value().projections[1].column, "fare");
    EXPECT_EQ(q.value().projections[2].aggregate, AggregateKind::kSum);
}

TEST(ParserTest, StarProjection)
{
    auto q = parseQuery("SELECT * FROM t WHERE x >= 1.5");
    ASSERT_TRUE(q.isOk());
    ASSERT_EQ(q.value().projections.size(), 1u);
    EXPECT_EQ(q.value().projections[0].column, kStarProjection);
    EXPECT_TRUE(q.value().filters[0].literal == Value::ofDouble(1.5));
}

TEST(ParserTest, AllOperators)
{
    struct Case {
        const char *text;
        CompareOp op;
    };
    for (const auto &[text, op] :
         {Case{"<", CompareOp::kLt}, Case{"<=", CompareOp::kLe},
          Case{">", CompareOp::kGt}, Case{">=", CompareOp::kGe},
          Case{"=", CompareOp::kEq}, Case{"==", CompareOp::kEq},
          Case{"!=", CompareOp::kNe}, Case{"<>", CompareOp::kNe}}) {
        std::string sql =
            std::string("SELECT a FROM t WHERE a ") + text + " 3";
        auto q = parseQuery(sql);
        ASSERT_TRUE(q.isOk()) << sql;
        EXPECT_EQ(q.value().filters[0].op, op) << sql;
    }
}

TEST(ParserTest, NegativeAndFloatLiterals)
{
    auto q = parseQuery("SELECT a FROM t WHERE a > -42 AND b < 3.5e2");
    ASSERT_TRUE(q.isOk());
    EXPECT_TRUE(q.value().filters[0].literal == Value::ofInt64(-42));
    EXPECT_TRUE(q.value().filters[1].literal == Value::ofDouble(350.0));
}

TEST(ParserTest, SyntaxErrors)
{
    EXPECT_FALSE(parseQuery("").isOk());
    EXPECT_FALSE(parseQuery("SELECT FROM t").isOk());
    EXPECT_FALSE(parseQuery("SELECT a").isOk());
    EXPECT_FALSE(parseQuery("SELECT a FROM t WHERE").isOk());
    EXPECT_FALSE(parseQuery("SELECT a FROM t WHERE a ~ 3").isOk());
    EXPECT_FALSE(parseQuery("SELECT a FROM t WHERE a < 'open").isOk());
    EXPECT_FALSE(parseQuery("SELECT a FROM t trailing").isOk());
    EXPECT_FALSE(parseQuery("SELECT sum(*) FROM t").isOk());
}

TEST(ParserTest, KeywordsAreNotIdentifierPrefixes)
{
    // "FROMx" must not parse as FROM + x.
    EXPECT_FALSE(parseQuery("SELECT a FROMx t").isOk());
    // Columns that merely start with a keyword are fine.
    auto q = parseQuery("SELECT summary FROM t WHERE counter < 1");
    ASSERT_TRUE(q.isOk());
    EXPECT_EQ(q.value().projections[0].column, "summary");
    EXPECT_EQ(q.value().filters[0].column, "counter");
}

TEST(AstTest, ToStringRoundTripsThroughParser)
{
    auto q = parseQuery(
        "SELECT l_quantity, AVG(fare) FROM t WHERE a < 5 AND b = 'x'");
    ASSERT_TRUE(q.isOk());
    auto q2 = parseQuery(q.value().toString());
    ASSERT_TRUE(q2.isOk()) << q.value().toString();
    EXPECT_EQ(q2.value().toString(), q.value().toString());
}

TEST(AstTest, DistinctColumnLists)
{
    Query q;
    q.projections.push_back({"a", AggregateKind::kNone});
    q.projections.push_back({"a", AggregateKind::kSum});
    q.projections.push_back({"b", AggregateKind::kNone});
    q.projections.push_back({"", AggregateKind::kCount});
    q.filters.push_back({"a", CompareOp::kLt, Value::ofInt64(1)});
    q.filters.push_back({"c", CompareOp::kGt, Value::ofInt64(1)});
    q.filters.push_back({"a", CompareOp::kNe, Value::ofInt64(5)});
    EXPECT_EQ(q.projectionColumns(),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(q.filterColumns(), (std::vector<std::string>{"a", "c"}));
}

} // namespace
} // namespace fusion::query
