/**
 * @file
 * Equivalence tests for the performance layer. The optimized kernels —
 * split-table / SIMD GF(256) multiply-accumulate, tiled+pooled
 * Reed-Solomon, and the word-wise typed predicate/select/aggregate
 * kernels — must be bit-identical to their simple reference
 * implementations on every input, including unaligned lengths, zero
 * coefficients, NaN doubles, and empty columns. The thread pool must
 * leave all simulated-time query results and fault.* counters unchanged for
 * any FUSION_THREADS value.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>

#include "common/random.h"
#include "common/thread_pool.h"
#include "ec/reed_solomon.h"
#include "fault_counters.h"
#include "query/eval.h"
#include "query/parser.h"
#include "sim/fault.h"
#include "store/fusion_store.h"
#include "workload/lineitem.h"

namespace fusion {
namespace {

using ec::Gf256;
using ec::SimdLevel;
using format::ColumnData;
using format::PhysicalType;
using format::Value;
using query::Bitmap;
using query::CompareOp;

// ---------------------------------------------------------------------
// GF(256) multiply-accumulate: every kernel vs the log/exp reference.
// ---------------------------------------------------------------------

void
referenceMulAccumulate(uint8_t *dst, const uint8_t *src, size_t len,
                       uint8_t c)
{
    const Gf256 &gf = Gf256::instance();
    for (size_t i = 0; i < len; ++i)
        dst[i] = gf.add(dst[i], gf.mul(c, src[i]));
}

TEST(GfKernelTest, AllLevelsMatchReferenceOnUnalignedLengths)
{
    const Gf256 &gf = Gf256::instance();
    Rng rng(2024);
    const SimdLevel levels[] = {SimdLevel::kScalar, SimdLevel::kSsse3,
                                SimdLevel::kAvx2};
    const uint8_t coeffs[] = {0, 1, 2, 3, 0x57, 0x8e, 0xff};

    for (size_t len = 0; len <= 64; ++len) {
        for (uint8_t c : coeffs) {
            Bytes src(len), base(len);
            for (auto &b : src)
                b = static_cast<uint8_t>(rng.next());
            for (auto &b : base)
                b = static_cast<uint8_t>(rng.next());

            Bytes expect = base;
            referenceMulAccumulate(expect.data(), src.data(), len, c);
            for (SimdLevel level : levels) {
                Bytes got = base;
                gf.mulAccumulate(got.data(), src.data(), len, c, level);
                ASSERT_EQ(got, expect)
                    << "len=" << len << " c=" << int(c) << " level="
                    << ec::simdLevelName(level);
            }
        }
    }
}

TEST(GfKernelTest, LargeRandomBuffersMatchAcrossLevels)
{
    const Gf256 &gf = Gf256::instance();
    Rng rng(7);
    // Odd length: exercises the 64/32/16-byte main loops plus tails.
    const size_t len = (1 << 16) + 37;
    Bytes src(len), base(len);
    for (auto &b : src)
        b = static_cast<uint8_t>(rng.next());
    for (auto &b : base)
        b = static_cast<uint8_t>(rng.next());

    for (int trial = 0; trial < 16; ++trial) {
        uint8_t c = static_cast<uint8_t>(rng.next());
        Bytes expect = base;
        referenceMulAccumulate(expect.data(), src.data(), len, c);
        for (SimdLevel level :
             {SimdLevel::kScalar, SimdLevel::kSsse3, SimdLevel::kAvx2}) {
            Bytes got = base;
            gf.mulAccumulate(got.data(), src.data(), len, c, level);
            ASSERT_EQ(got, expect) << "c=" << int(c);
        }
    }
}

TEST(GfKernelTest, MulTableAgreesWithLogExpArithmetic)
{
    const Gf256 &gf = Gf256::instance();
    for (int a = 0; a < 256; ++a) {
        // mul via the dense table must satisfy the field axioms the
        // exp/log implementation guarantees.
        ASSERT_EQ(gf.mul(static_cast<uint8_t>(a), 0), 0);
        ASSERT_EQ(gf.mul(0, static_cast<uint8_t>(a)), 0);
        ASSERT_EQ(gf.mul(static_cast<uint8_t>(a), 1), a);
        if (a != 0) {
            ASSERT_EQ(gf.mul(static_cast<uint8_t>(a),
                             gf.inv(static_cast<uint8_t>(a))),
                      1);
        }
    }
}

TEST(GfKernelTest, RsRoundTripsAtUnalignedBlockSizes)
{
    auto rs = ec::ReedSolomon::create(9, 6).value();
    Rng rng(99);
    for (size_t base_len : {0, 1, 13, 63, 64, 1000, 32769}) {
        std::vector<Bytes> blocks(6);
        for (size_t j = 0; j < blocks.size(); ++j) {
            // Variable sizes around base_len exercise zero-extension.
            size_t len = base_len + j;
            blocks[j].resize(len);
            for (auto &b : blocks[j])
                b = static_cast<uint8_t>(rng.next());
        }
        auto stripe = ec::encodeStripe(rs, blocks).value();

        std::vector<std::optional<Bytes>> shards;
        for (const auto &block : stripe.blocks)
            shards.emplace_back(block);
        // Erase three shards: two data (zero-extended on entry), one
        // parity.
        for (size_t victim : {1, 4, 7})
            shards[victim] = std::nullopt;
        for (size_t j = 0; j < 6; ++j)
            if (shards[j].has_value())
                shards[j]->resize(stripe.blockSize, 0);

        auto data = ec::recoverStripeData(rs, std::move(shards),
                                          stripe.dataSizes,
                                          stripe.blockSize);
        ASSERT_TRUE(data.isOk()) << data.status().toString();
        for (size_t j = 0; j < blocks.size(); ++j)
            ASSERT_EQ(data.value()[j], blocks[j]) << "block " << j;
    }
}

// ---------------------------------------------------------------------
// Typed predicate kernels vs the boxed compareValues reference.
// ---------------------------------------------------------------------

const CompareOp kAllOps[] = {CompareOp::kLt, CompareOp::kLe,
                             CompareOp::kGt, CompareOp::kGe,
                             CompareOp::kEq, CompareOp::kNe};

void
expectKernelMatchesReference(const ColumnData &col, const Value &lit)
{
    for (CompareOp op : kAllOps) {
        auto fast = query::evalPredicate(col, op, lit);
        auto ref = query::evalPredicateReference(col, op, lit);
        ASSERT_EQ(fast.isOk(), ref.isOk());
        if (!fast.isOk())
            continue;
        ASSERT_TRUE(fast.value() == ref.value())
            << "op=" << query::compareOpName(op)
            << " lit=" << lit.toString() << " rows=" << col.size();
    }
}

TEST(PredicateKernelTest, IntColumnsMatchReferenceAtWordBoundaries)
{
    Rng rng(1);
    // Sizes straddling the 64-row word boundary and beyond.
    for (size_t rows : {0, 1, 63, 64, 65, 127, 128, 130, 1000}) {
        ColumnData i32(PhysicalType::kInt32);
        ColumnData i64(PhysicalType::kInt64);
        for (size_t i = 0; i < rows; ++i) {
            i32.append(static_cast<int32_t>(rng.uniformInt(-50, 50)));
            i64.append(rng.uniformInt(-50, 50));
        }
        for (int64_t lit : {-100, -50, -1, 0, 7, 50, 100}) {
            expectKernelMatchesReference(i32, Value(lit));
            expectKernelMatchesReference(i64, Value(lit));
            // Fractional double literal against integer columns.
            expectKernelMatchesReference(
                i32, Value(static_cast<double>(lit) + 0.5));
            expectKernelMatchesReference(
                i64, Value(static_cast<double>(lit) + 0.5));
        }
    }
}

TEST(PredicateKernelTest, DoubleColumnsHandleNanAndSignedZero)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    ColumnData col(PhysicalType::kDouble);
    Rng rng(5);
    for (size_t i = 0; i < 200; ++i)
        col.append(rng.uniformReal(-1.0, 1.0));
    col.append(nan);
    col.append(-0.0);
    col.append(0.0);
    col.append(inf);
    col.append(-inf);
    col.append(nan);

    for (double lit : {-0.5, 0.0, -0.0, 0.5, inf, -inf, nan})
        expectKernelMatchesReference(col, Value(lit));
}

TEST(PredicateKernelTest, StringColumnsMatchReference)
{
    Rng rng(11);
    ColumnData col(PhysicalType::kString);
    for (size_t i = 0; i < 150; ++i)
        col.append(randomString(rng, rng.uniformInt(0, 8)));
    col.append(std::string());
    for (const char *lit : {"", "a", "mmmm", "zzzzzzzzz"})
        expectKernelMatchesReference(col, Value(std::string(lit)));
}

TEST(PredicateKernelTest, IncompatibleLiteralStillRejected)
{
    ColumnData col(PhysicalType::kInt64);
    col.append(int64_t{1});
    auto r = query::evalPredicate(col, CompareOp::kEq,
                                  Value(std::string("x")));
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SelectKernelTest, WordWiseGatherMatchesNaiveSelection)
{
    Rng rng(3);
    for (size_t rows : {0, 1, 64, 65, 200, 1000}) {
        ColumnData col(PhysicalType::kInt64);
        for (size_t i = 0; i < rows; ++i)
            col.append(rng.uniformInt(0, 1 << 20));
        Bitmap bits(rows);
        for (size_t i = 0; i < rows; ++i)
            if (rng.chance(0.3))
                bits.set(i);

        ColumnData expect(PhysicalType::kInt64);
        for (size_t i = 0; i < rows; ++i)
            if (bits.test(i))
                expect.append(col.int64s()[i]);
        EXPECT_TRUE(query::selectRows(col, bits) == expect);
    }
    // Dense and empty selections.
    ColumnData strs(PhysicalType::kString);
    for (size_t i = 0; i < 130; ++i)
        strs.append(randomString(rng, 4));
    EXPECT_TRUE(query::selectRows(strs, Bitmap(130, true)) == strs);
    EXPECT_TRUE(query::selectRows(strs, Bitmap(130, false)) ==
                ColumnData(PhysicalType::kString));
}

TEST(AggregateKernelTest, TypedReductionMatchesBoxedLoop)
{
    Rng rng(13);
    ColumnData col(PhysicalType::kDouble);
    for (size_t i = 0; i < 500; ++i)
        col.append(rng.uniformReal(-10.0, 10.0));

    auto boxed = [&](query::AggregateKind kind) {
        double sum = 0.0, mn = 0.0, mx = 0.0;
        bool first = true;
        for (size_t i = 0; i < col.size(); ++i) {
            double v = col.valueAt(i).numeric();
            sum += v;
            if (first || v < mn)
                mn = v;
            if (first || v > mx)
                mx = v;
            first = false;
        }
        switch (kind) {
          case query::AggregateKind::kSum: return sum;
          case query::AggregateKind::kAvg:
            return sum / static_cast<double>(col.size());
          case query::AggregateKind::kMin: return mn;
          case query::AggregateKind::kMax: return mx;
          default: return 0.0;
        }
    };
    for (auto kind : {query::AggregateKind::kSum,
                      query::AggregateKind::kAvg,
                      query::AggregateKind::kMin,
                      query::AggregateKind::kMax}) {
        auto fast = query::computeAggregate(kind, col);
        ASSERT_TRUE(fast.isOk());
        // Identical iteration order ⇒ bit-identical doubles.
        EXPECT_EQ(fast.value(), boxed(kind));
    }
}

// ---------------------------------------------------------------------
// Thread pool: correctness and the simulator determinism contract.
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce)
{
    for (size_t threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        const size_t kCount = 10'000;
        // Test scaffolding counts raw visits, not instrumentation.
        // fusion-lint: allow(raw-atomic)
        std::vector<std::atomic<int>> hits(kCount);
        pool.parallelFor(0, kCount,
                         [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < kCount; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i;
        // Empty and single-index ranges.
        pool.parallelFor(5, 5, [](size_t) { FAIL(); });
        std::atomic<int> one{0}; // fusion-lint: allow(raw-atomic)
        pool.parallelFor(41, 42, [&](size_t i) {
            EXPECT_EQ(i, 41u);
            one.fetch_add(1);
        });
        EXPECT_EQ(one.load(), 1);
    }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    std::atomic<int> total{0}; // fusion-lint: allow(raw-atomic)
    pool.parallelFor(0, 8, [&](size_t) {
        // Nested call from a worker must degrade to serial, not hang.
        ThreadPool::shared().parallelFor(0, 16,
                                         [&](size_t) { total++; });
    });
    EXPECT_EQ(total.load(), 8 * 16);
}

struct DeterminismRun {
    std::vector<query::QueryResult> results;
    obs::MetricsSnapshot faults; // the store's fault.* counters
    double simSeconds = 0.0;
};

DeterminismRun
runWorkload(size_t threads)
{
    ThreadPool::setSharedThreads(threads);

    sim::ClusterConfig config;
    config.numNodes = 9;
    sim::Cluster cluster(config);
    store::FusionStore store(cluster, {});
    auto file = workload::buildLineitemFile(3000, 7);
    FUSION_CHECK(file.isOk());
    FUSION_CHECK(store.put("lineitem", file.value().bytes).isOk());

    // A node crashes mid-workload and comes back: exercises retry,
    // reconstruction and pushdown fallback under the thread pool.
    sim::FaultSchedule schedule;
    schedule.crashAt(0.01, 3).reviveAt(0.2, 3);
    sim::FaultInjector faults(cluster, schedule);
    faults.arm();

    const char *sqls[] = {
        "SELECT l_orderkey FROM lineitem WHERE l_quantity < 10",
        "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem "
        "WHERE l_discount < 0.05",
        "SELECT * FROM lineitem WHERE l_orderkey < 50",
        "SELECT l_comment FROM lineitem WHERE l_extendedprice < 15000",
    };
    DeterminismRun run;
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
    for (auto &outcome : captured) {
        FUSION_CHECK(outcome.has_value());
        FUSION_CHECK(outcome->isOk());
        run.results.push_back(outcome->value().result);
    }
    run.faults = testutil::faultCounters(store);
    run.simSeconds = engine.now();
    ThreadPool::setSharedThreads(1);
    return run;
}

// Acceptance: repeated runs with FUSION_THREADS > 1 leave all
// simulated-time query results and fault.* counters bit-identical
// to the single-threaded run.
TEST(ThreadPoolTest, MultiThreadedStoreRunIsBitIdenticalToSerial)
{
    DeterminismRun serial = runWorkload(1);
    for (size_t threads : {2, 4}) {
        DeterminismRun pooled = runWorkload(threads);
        ASSERT_EQ(pooled.results.size(), serial.results.size());
        for (size_t i = 0; i < serial.results.size(); ++i) {
            const query::QueryResult &a = serial.results[i];
            const query::QueryResult &b = pooled.results[i];
            EXPECT_EQ(a.rowsMatched, b.rowsMatched);
            ASSERT_EQ(a.columns.size(), b.columns.size());
            for (size_t c = 0; c < a.columns.size(); ++c) {
                EXPECT_EQ(a.columns[c].isAggregate,
                          b.columns[c].isAggregate);
                if (a.columns[c].isAggregate)
                    EXPECT_EQ(a.columns[c].aggregateValue,
                              b.columns[c].aggregateValue);
                else
                    EXPECT_TRUE(a.columns[c].values ==
                                b.columns[c].values);
            }
        }
        EXPECT_TRUE(pooled.faults == serial.faults)
            << "threads=" << threads;
        EXPECT_EQ(pooled.simSeconds, serial.simSeconds);
    }
}

// Put must place bit-identical blocks for any thread count: the same
// object stored under different FUSION_THREADS reads back identically
// and node-by-node storage matches.
TEST(ThreadPoolTest, ParallelIngestPlacesIdenticalBlocks)
{
    auto file = workload::buildLineitemFile(2000, 3);
    ASSERT_TRUE(file.isOk());

    auto ingest = [&](size_t threads) {
        ThreadPool::setSharedThreads(threads);
        sim::ClusterConfig config;
        config.numNodes = 9;
        auto cluster = std::make_unique<sim::Cluster>(config);
        auto store = std::make_unique<store::FusionStore>(
            *cluster, store::StoreOptions{});
        FUSION_CHECK(store->put("obj", file.value().bytes).isOk());
        std::vector<uint64_t> per_node;
        for (size_t i = 0; i < cluster->numNodes(); ++i)
            per_node.push_back(cluster->node(i).storedBytes());
        auto back = store->get("obj");
        FUSION_CHECK(back.isOk());
        ThreadPool::setSharedThreads(1);
        return std::make_pair(per_node, back.value());
    };
    auto serial = ingest(1);
    auto pooled = ingest(4);
    EXPECT_EQ(serial.first, pooled.first);
    EXPECT_EQ(serial.second, pooled.second);
    EXPECT_EQ(pooled.second, file.value().bytes);
}

} // namespace
} // namespace fusion
