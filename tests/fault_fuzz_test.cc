/**
 * @file
 * Seeded-random fault property tests. For any generated fault schedule
 * within the erasure-coding tolerance, Fusion's query results must be
 * identical to an in-memory reference evaluation over the source table
 * — faults may change latency and routing, never answers. And the
 * whole fault subsystem must be deterministic: the same seed yields
 * the same schedule, the same applied trace and the same counters.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "common/random.h"
#include "fault_counters.h"
#include "query/eval.h"
#include "sim/fault.h"
#include "store/fusion_store.h"
#include "workload/lineitem.h"
#include "workload/queries.h"

namespace fusion::store {
namespace {

constexpr size_t kRows = 4000;
constexpr uint64_t kDataSeed = 7;
constexpr double kHorizon = 0.06; // seconds of simulated query traffic

struct TestRig {
    std::unique_ptr<sim::Cluster> cluster;
    std::unique_ptr<ObjectStore> store;
    std::unique_ptr<sim::FaultInjector> faults;
};

TestRig
makeFusionRig()
{
    TestRig rig;
    sim::ClusterConfig config;
    config.numNodes = 9;
    rig.cluster = std::make_unique<sim::Cluster>(config);
    rig.store = std::make_unique<FusionStore>(*rig.cluster, StoreOptions{});
    return rig;
}

const format::Table &
lineitemTable()
{
    static format::Table table =
        workload::makeLineitemTable(kRows, kDataSeed);
    return table;
}

Bytes
lineitemBytes()
{
    static Bytes bytes = [] {
        auto file = workload::buildLineitemFile(kRows, kDataSeed);
        FUSION_CHECK(file.isOk());
        return file.value().bytes;
    }();
    return bytes;
}

/**
 * Schedules within tolerance: at most 2 concurrent crash outages plus
 * at most 1 slowdown (which the read timeout may classify as
 * unresponsive), so no read ever sees more than the RS(9,6) erasure
 * budget of 3 unavailable nodes.
 */
sim::FaultSchedule
randomSchedule(uint64_t seed)
{
    sim::RandomFaultOptions fopts;
    fopts.seed = seed;
    fopts.numNodes = 9;
    fopts.horizonSeconds = kHorizon;
    fopts.crashCount = 2;
    fopts.slowCount = 1;
    fopts.meanDowntimeSeconds = kHorizon / 4.0;
    fopts.maxSlowFactor = 12.0; // past the timeout threshold (~6.7)
    fopts.maxConcurrentDown = 2;
    return sim::FaultSchedule::random(fopts);
}

/** Seeded query generator: calibrated-selectivity scans over a
 *  rotating set of columns, every third one aggregated. */
std::vector<query::Query>
randomQueries(uint64_t seed, size_t count)
{
    static const size_t kColumns[] = {
        workload::kQuantity, workload::kExtendedPrice,
        workload::kDiscount, workload::kComment};
    const format::Table &table = lineitemTable();
    Rng rng(seed * 0x9e3779b9ULL + 1);
    std::vector<query::Query> queries;
    for (size_t i = 0; i < count; ++i) {
        size_t col = kColumns[rng.uniformInt(0, 3)];
        const std::string &name = table.schema().column(col).name;
        double selectivity = rng.uniformReal(0.01, 0.4);
        query::Query q = workload::microbenchQuery(
            "lineitem", name, table.column(col), selectivity);
        if (i % 3 == 2) {
            q.projections.clear();
            query::Projection count_star;
            count_star.aggregate = query::AggregateKind::kCount;
            q.projections.push_back(count_star);
            if (table.column(col).type() != format::PhysicalType::kString) {
                query::Projection sum;
                sum.column = name;
                sum.aggregate = query::AggregateKind::kSum;
                q.projections.push_back(sum);
            }
        }
        queries.push_back(std::move(q));
    }
    return queries;
}

/** In-memory reference engine: evaluates the query row-by-row over
 *  the decoded source table, independent of the store entirely. */
query::QueryResult
referenceEval(const format::Table &table, const query::Query &q)
{
    size_t rows = table.numRows();
    std::vector<bool> match(rows, true);
    for (const auto &pred : q.filters) {
        size_t col = table.schema().columnIndex(pred.column).value();
        const format::ColumnData &data = table.column(col);
        for (size_t r = 0; r < rows; ++r)
            if (match[r] && !query::compareValues(data.valueAt(r), pred.op,
                                                  pred.literal))
                match[r] = false;
    }
    query::QueryResult out;
    for (size_t r = 0; r < rows; ++r)
        if (match[r])
            ++out.rowsMatched;
    for (const auto &proj : q.projections) {
        query::ProjectionResult pr;
        if (proj.isCountStar()) {
            pr.isAggregate = true;
            pr.aggregateValue = static_cast<double>(out.rowsMatched);
            out.columns.push_back(std::move(pr));
            continue;
        }
        size_t col = table.schema().columnIndex(proj.column).value();
        const format::ColumnData &data = table.column(col);
        format::ColumnData selected(data.type());
        for (size_t r = 0; r < rows; ++r)
            if (match[r])
                selected.appendValue(data.valueAt(r));
        if (proj.aggregate == query::AggregateKind::kNone) {
            pr.values = std::move(selected);
        } else {
            pr.isAggregate = true;
            auto agg = query::computeAggregate(proj.aggregate, selected);
            FUSION_CHECK(agg.isOk());
            pr.aggregateValue = agg.value();
        }
        out.columns.push_back(std::move(pr));
    }
    return out;
}

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

std::vector<std::pair<double, query::Query>>
spreadOverHorizon(const std::vector<query::Query> &queries)
{
    std::vector<std::pair<double, query::Query>> timeline;
    for (size_t i = 0; i < queries.size(); ++i)
        timeline.emplace_back(
            kHorizon * static_cast<double>(i) /
                static_cast<double>(queries.size()),
            queries[i]);
    return timeline;
}

TEST(FaultFuzzTest, FusionAgreesWithReferenceUnderRandomFaults)
{
    const format::Table &table = lineitemTable();
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        TestRig rig = makeFusionRig();
        ASSERT_TRUE(rig.store->put("lineitem", lineitemBytes()).isOk());
        rig.faults = std::make_unique<sim::FaultInjector>(
            *rig.cluster, randomSchedule(seed));
        rig.faults->arm();

        auto queries = randomQueries(seed, 9);
        auto outcomes = runAt(*rig.store, spreadOverHorizon(queries));
        ASSERT_EQ(outcomes.size(), queries.size());
        for (size_t i = 0; i < outcomes.size(); ++i) {
            ASSERT_TRUE(outcomes[i].isOk())
                << "seed " << seed << " query " << i << " ["
                << queries[i].toString()
                << "]: " << outcomes[i].status().toString() << "\ntrace:\n"
                << rig.faults->traceString();
            query::QueryResult expect = referenceEval(table, queries[i]);
            const query::QueryResult &got = outcomes[i].value().result;
            EXPECT_EQ(got.rowsMatched, expect.rowsMatched)
                << "seed " << seed << " query " << i;
            ASSERT_EQ(got.columns.size(), expect.columns.size());
            for (size_t c = 0; c < got.columns.size(); ++c) {
                EXPECT_EQ(got.columns[c].isAggregate,
                          expect.columns[c].isAggregate);
                if (expect.columns[c].isAggregate)
                    EXPECT_DOUBLE_EQ(got.columns[c].aggregateValue,
                                     expect.columns[c].aggregateValue)
                        << "seed " << seed << " query " << i;
                else
                    EXPECT_TRUE(got.columns[c].values ==
                                expect.columns[c].values)
                        << "seed " << seed << " query " << i;
            }
        }
        // Every schedule actually fired.
        EXPECT_FALSE(rig.faults->applied().empty()) << "seed " << seed;
    }
}

TEST(FaultFuzzTest, SameSeedYieldsSameScheduleAndTrace)
{
    const uint64_t seed = 0xdecaf;
    // Schedule generation is a pure function of the seed.
    EXPECT_EQ(randomSchedule(seed).toString(),
              randomSchedule(seed).toString());

    std::string traces[2];
    std::string schedules[2];
    obs::MetricsSnapshot stats[2];
    std::vector<double> latencies[2];
    for (int round = 0; round < 2; ++round) {
        TestRig rig = makeFusionRig();
        ASSERT_TRUE(rig.store->put("lineitem", lineitemBytes()).isOk());
        sim::FaultSchedule schedule = randomSchedule(seed);
        schedules[round] = schedule.toString();
        rig.faults =
            std::make_unique<sim::FaultInjector>(*rig.cluster, schedule);
        rig.faults->arm();

        auto outcomes =
            runAt(*rig.store, spreadOverHorizon(randomQueries(seed, 9)));
        for (const auto &outcome : outcomes) {
            ASSERT_TRUE(outcome.isOk());
            latencies[round].push_back(outcome.value().latencySeconds);
        }
        traces[round] = rig.faults->traceString();
        stats[round] = testutil::faultCounters(*rig.store);
    }
    EXPECT_EQ(schedules[0], schedules[1]);
    EXPECT_EQ(traces[0], traces[1]);
    EXPECT_TRUE(stats[0] == stats[1]);
    EXPECT_EQ(latencies[0], latencies[1]);
    // And the trace is non-trivial: events actually applied.
    EXPECT_NE(traces[0].find("crash"), std::string::npos);
}

TEST(FaultFuzzTest, DifferentSeedsYieldDifferentSchedules)
{
    EXPECT_NE(randomSchedule(11).toString(),
              randomSchedule(12).toString());
}

TEST(FaultFuzzTest, RandomSchedulesRespectConcurrencyBound)
{
    for (uint64_t seed = 100; seed < 120; ++seed) {
        sim::FaultSchedule schedule = randomSchedule(seed);
        // Replay crash/revive events in time order and track how many
        // nodes are simultaneously down.
        auto events = schedule.events();
        std::sort(events.begin(), events.end(),
                  [](const sim::FaultEvent &a, const sim::FaultEvent &b) {
                      return a.time < b.time;
                  });
        int down = 0;
        for (const auto &event : events) {
            if (event.kind == sim::FaultKind::kCrash)
                EXPECT_LE(++down, 2) << "seed " << seed;
            else if (event.kind == sim::FaultKind::kRevive)
                --down;
        }
        EXPECT_EQ(down, 0) << "seed " << seed;
    }
}

} // namespace
} // namespace fusion::store
