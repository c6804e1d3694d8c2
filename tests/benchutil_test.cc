/**
 * @file
 * Tests for the benchmark harness itself, plus a pinned end-to-end
 * "headline claim" regression: on the paper-calibrated rig, Fusion must
 * beat the baseline by a healthy margin on a selective query over a
 * large column, while moving several times less data. If a change to
 * the stores or the simulator breaks the reproduction, this fails in
 * ctest rather than silently skewing the bench outputs.
 */
#include <cstdio>
#include <map>

#include <gtest/gtest.h>

#include "benchutil/gate.h"
#include "benchutil/harness.h"
#include "benchutil/rigs.h"
#include "workload/lineitem.h"
#include "workload/queries.h"

namespace fusion::benchutil {
namespace {

TEST(HarnessTest, LatencyReductionPct)
{
    EXPECT_DOUBLE_EQ(latencyReductionPct(2.0, 1.0), 50.0);
    EXPECT_DOUBLE_EQ(latencyReductionPct(1.0, 2.0), -100.0);
    EXPECT_DOUBLE_EQ(latencyReductionPct(0.0, 1.0), 0.0);
}

TEST(HarnessTest, ScaledNodeConfigDividesRates)
{
    sim::NodeConfig base;
    sim::NodeConfig scaled = scaledNodeConfig(base, 1000, 10000.0);
    EXPECT_DOUBLE_EQ(scaled.diskBandwidth, base.diskBandwidth / 10);
    EXPECT_DOUBLE_EQ(scaled.nicBandwidth, base.nicBandwidth / 10);
    EXPECT_DOUBLE_EQ(scaled.cpuRate, base.cpuRate / 10);
    // Latencies are not scaled.
    EXPECT_DOUBLE_EQ(scaled.rpcLatency, base.rpcLatency);
    EXPECT_DOUBLE_EQ(scaled.diskSeekLatency, base.diskSeekLatency);
}

class RigFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        RigOptions options;
        options.rows = 20000;
        options.copies = 3;
        pair_ = new StorePair(makeStorePair(Dataset::kLineitem, options));
    }

    static void
    TearDownTestSuite()
    {
        delete pair_;
        pair_ = nullptr;
    }

    static StorePair *pair_;
};

StorePair *RigFixture::pair_ = nullptr;

TEST_F(RigFixture, RigStoresAllCopiesInBothStores)
{
    ASSERT_EQ(pair_->objects.size(), 3u);
    for (const auto &name : pair_->objects) {
        EXPECT_TRUE(pair_->baseline->contains(name));
        EXPECT_TRUE(pair_->fusion->contains(name));
    }
    // onCopy rotates deterministically.
    query::Query q;
    q.table = "x";
    EXPECT_EQ(pair_->onCopy(q, 0).table, pair_->objects[0]);
    EXPECT_EQ(pair_->onCopy(q, 4).table, pair_->objects[1]);
}

TEST_F(RigFixture, ClosedLoopRunsAllQueries)
{
    query::Query q = workload::microbenchQuery(
        "x", "l_extendedprice",
        pair_->table.column(workload::kExtendedPrice), 0.01);
    RunConfig config;
    config.totalQueries = 40;
    config.clients = 4;
    RunStats stats = runClosedLoop(*pair_->fusion, config, [&](size_t i) {
        return pair_->onCopy(q, i);
    });
    EXPECT_EQ(stats.latency.count(), 40u);
    EXPECT_GT(stats.latency.p50(), 0.0);
    EXPECT_GT(stats.networkBytes, 0u);
    EXPECT_GT(stats.wallSimSeconds, 0.0);
}

TEST_F(RigFixture, OpenLoopPacesArrivals)
{
    query::Query q = workload::microbenchQuery(
        "x", "l_linenumber", pair_->table.column(workload::kLineNumber),
        0.01);
    RunConfig config;
    config.totalQueries = 20;
    config.openLoopQps = 100.0;
    RunStats stats = runClosedLoop(*pair_->fusion, config, [&](size_t i) {
        return pair_->onCopy(q, i);
    });
    EXPECT_EQ(stats.latency.count(), 20u);
    // 20 arrivals at 100 qps span at least 0.19 simulated seconds.
    EXPECT_GE(stats.wallSimSeconds, 0.19);
}

TEST_F(RigFixture, HeadlineClaimFusionWinsSelectiveQueries)
{
    // The reproduction's core claim (paper Figs 13/15): on a selective
    // query over a large column, Fusion cuts p50 latency by a healthy
    // margin and moves several times fewer bytes.
    query::Query q = workload::microbenchQuery(
        "x", "l_extendedprice",
        pair_->table.column(workload::kExtendedPrice), 0.01);
    RunConfig config;
    config.totalQueries = 60;
    Comparison cmp = compareStores(*pair_, config, [&](size_t) {
        return q;
    });
    EXPECT_GT(cmp.p50ReductionPct(), 15.0)
        << "Fusion's latency advantage regressed";
    EXPECT_GT(cmp.trafficRatio(), 5.0)
        << "Fusion's traffic advantage regressed";
    // Results identical across stores (spot check via counts).
    EXPECT_EQ(cmp.baseline.latency.count(), cmp.fusion.latency.count());
}

TEST(TablePrinterTest, AlignsAndPrints)
{
    TablePrinter table({"a", "long header"});
    table.addRow({"1", "2"});
    table.addRow({"333333", "4"});
    testing::internal::CaptureStdout();
    table.print();
    std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("| a      | long header |"), std::string::npos);
    EXPECT_NE(out.find("| 333333 | 4           |"), std::string::npos);
}

TEST(FmtTest, FormatsLikePrintf)
{
    EXPECT_EQ(fmt("%.2f%%", 12.345), "12.35%");
    EXPECT_EQ(fmt("%d-%s", 7, "x"), "7-x");
}

/** checkMetrics with its per-metric lines captured. */
int
check(const std::map<std::string, double> &baseline, const Metrics &current)
{
    testing::internal::CaptureStdout();
    int failures = checkMetrics(baseline, current, 0.05);
    testing::internal::GetCapturedStdout();
    return failures;
}

TEST(GateTest, MissingBaselineMetricFails)
{
    EXPECT_EQ(check({{"a_ratio", 2.0}, {"b_ratio", 3.0}}, {{"a_ratio", 2.0}}),
              1);
}

TEST(GateTest, ValueBelowFloorFails)
{
    EXPECT_EQ(check({{"a_ratio", 10.0}}, {{"a_ratio", 9.49}}), 1);
}

TEST(GateTest, ValueAtFloorPasses)
{
    const double floor = 10.0 * (1.0 - 0.05);
    EXPECT_EQ(check({{"a_ratio", 10.0}}, {{"a_ratio", floor}}), 0);
    // Metrics the baseline does not name are not gated.
    EXPECT_EQ(check({{"a_ratio", 10.0}}, {{"a_ratio", 11.0}, {"new", 0.0}}),
              0);
}

TEST(GateTest, WriterOutputRoundTripsThroughReader)
{
    const std::string path = testing::TempDir() + "gate_roundtrip.json";
    const Metrics written = {
        {"c4_o50_wire_ratio", 1.14159}, {"hit_rate", 0.25}, {"zero", 0.0},
        {"big", 123456}, {"negative", -2.5}};
    writeBenchJson(path, "roundtrip",
                   {{"quick", "true"}, {"simd_level", "\"avx2\""}},
                   written);
    std::map<std::string, double> read;
    ASSERT_TRUE(readBenchMetrics(path, read));
    const std::map<std::string, double> expected(written.begin(),
                                                 written.end());
    EXPECT_EQ(read, expected);
    std::remove(path.c_str());

    std::map<std::string, double> none;
    EXPECT_FALSE(readBenchMetrics(path, none));
}

} // namespace
} // namespace fusion::benchutil
