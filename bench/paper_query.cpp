/**
 * @file
 * bench_paper's query figures: Figs 4b, 10b, 13a-d, 14a-d and 15 and
 * the aggregate, cost-model, Bloom, ingest and fault ablations. Each
 * drives stores on the simulated cluster, so every cell repeats
 * exactly for any FUSION_THREADS.
 */
#include <algorithm>

#include "benchutil/rigs.h"
#include "common/random.h"
#include "format/writer.h"
#include "paper.h"
#include "sim/fault.h"
#include "workload/lineitem.h"
#include "workload/queries.h"
#include "workload/taxi.h"

namespace fusion::paper {

using namespace fusion::benchutil;

namespace {

/** The latency rig every lineitem figure shares: 60 K rows, 4 copies. */
RigOptions
lineitemRig()
{
    RigOptions options;
    options.rows = 60000;
    options.copies = 4;
    return options;
}

/** The 1%-selectivity (or `sel`) microbenchmark on lineitem column c. */
query::Query
microbench(const StorePair &pair, size_t c, double sel = 0.01)
{
    return workload::microbenchQuery(
        "x", workload::lineitemSchema().column(c).name, pair.table.column(c),
        sel);
}

Comparison
compareOn(StorePair &pair, size_t queries, const query::Query &q)
{
    RunConfig config;
    config.totalQueries = queries;
    return compareStores(pair, config, [&](size_t) { return q; });
}

void
breakdownRow(TablePrinter &table, const char *system, const char *column,
             const RunStats &stats)
{
    double total =
        stats.diskSeconds + stats.cpuSeconds + stats.networkSeconds;
    table.addRow({column, system,
                  fmt("%.1f", stats.diskSeconds / total * 100),
                  fmt("%.1f", stats.cpuSeconds / total * 100),
                  fmt("%.1f", stats.networkSeconds / total * 100),
                  fmt("%s", formatBytes(stats.networkBytes).c_str())});
}

double
networkShare(const RunStats &stats)
{
    return stats.networkSeconds /
           (stats.diskSeconds + stats.cpuSeconds + stats.networkSeconds) *
           100;
}

format::Table
makeEventTable(size_t rows)
{
    format::Schema schema(
        {{"user_id", format::PhysicalType::kInt64,
          format::LogicalType::kNone},
         {"payload", format::PhysicalType::kString,
          format::LogicalType::kNone},
         {"amount", format::PhysicalType::kDouble,
          format::LogicalType::kNone}});
    format::Table t(schema);
    Rng rng(11);
    for (size_t i = 0; i < rows; ++i) {
        t.column(0).append(rng.uniformInt(0, 1 << 24) * 2); // even ids
        t.column(1).append(randomString(rng, 40));
        t.column(2).append(rng.uniformReal(0.0, 500.0));
    }
    return t;
}

RigOptions
faultRig()
{
    RigOptions options;
    options.rows = 20000;
    options.copies = 3;
    return options;
}

std::function<query::Query(size_t)>
faultQueryMix(const StorePair &pair)
{
    // Alternate the paper's projection-heavy Q1 and filter-heavy Q2;
    // onCopy rewrites the table name per issued query. Every third
    // query is a microbenchmark scan with a rotating literal so fresh
    // (uncached) data planes keep executing throughout the run and
    // degraded reads actually happen while faults are active.
    query::Query q1 = workload::lineitemQ1("lineitem", pair.table);
    query::Query q2 = workload::lineitemQ2("lineitem", pair.table);
    const format::Table *table = &pair.table;
    return [q1, q2, table](size_t i) {
        if (i % 3 == 2) {
            // Rotate across every column so (copy, column) chunks keep
            // being first-decoded throughout the run, not just at t=0.
            size_t col = i % table->numColumns();
            return workload::microbenchQuery(
                "lineitem", table->schema().column(col).name,
                table->column(col),
                0.01 + static_cast<double>(i % 40) * 0.005);
        }
        return i % 3 == 0 ? q1 : q2;
    };
}

sim::RandomFaultOptions
faultOptions(size_t crashes, double horizon)
{
    sim::RandomFaultOptions fopts;
    fopts.seed = 0xfa017 + crashes;
    fopts.numNodes = 9;
    fopts.horizonSeconds = horizon;
    fopts.crashCount = crashes;
    // A slow factor past the read-timeout threshold makes the node
    // unresponsive, so cap concurrent crashes (2) + slowdowns (1) at
    // the RS(9,6) erasure tolerance of 3.
    fopts.slowCount = crashes > 1 ? 1 : 0;
    fopts.meanDowntimeSeconds = horizon / 6.0;
    fopts.maxSlowFactor = 16.0;
    fopts.maxConcurrentDown = 2;
    return fopts;
}

} // namespace

/**
 * Fig 4b: latency breakdown of the 1%-selectivity microbenchmark on
 * the baseline (chunk-splitting) store. Paper: ~50% of the time is
 * network reassembly and disk is a small fraction. Shares here are
 * resource-seconds, which weigh parallel disk reads at face value
 * (EXPERIMENTS.md known deviation 2), so only the ordering is claimed.
 */
void
fig4b(Claims &claims)
{
    RigOptions options = lineitemRig();
    StorePair pair = makeStorePair(Dataset::kLineitem, options);
    query::Query q = microbench(pair, workload::kExtendedPrice);

    RunConfig config;
    config.totalQueries = 400;
    RunStats stats = runClosedLoop(*pair.baseline, config, [&](size_t i) {
        return pair.onCopy(q, i);
    });

    double total =
        stats.diskSeconds + stats.cpuSeconds + stats.networkSeconds;
    double other = std::max(0.0, stats.latency.sum() - total);
    double denom = total + other;

    TablePrinter table({"component", "share of query time (%)"});
    table.addRow({"disk read", fmt("%.1f", stats.diskSeconds / denom * 100)});
    table.addRow(
        {"data processing", fmt("%.1f", stats.cpuSeconds / denom * 100)});
    table.addRow({"network overhead",
                  fmt("%.1f", stats.networkSeconds / denom * 100)});
    table.addRow({"other (queueing)", fmt("%.1f", other / denom * 100)});
    table.print();
    claims.fact("network_above_disk",
                stats.networkSeconds > stats.diskSeconds);
}

/**
 * Fig 10b: p50 improvement of an always-push Fusion (no Cost
 * Equation) over the baseline, per lineitem column (c5, c0, c4, c7 in
 * rising compressibility) and selectivity. Paper: the improvement
 * fades and turns negative toward high selectivity x compressibility,
 * which motivates adaptive pushdown.
 */
void
fig10b(Claims &claims)
{
    RigOptions options = lineitemRig();
    options.store.adaptivePushdown = false; // always push (the trade-off)
    StorePair pair = makeStorePair(Dataset::kLineitem, options);

    const size_t columns[] = {workload::kExtendedPrice, workload::kOrderKey,
                              workload::kQuantity, workload::kTax};
    const double selectivities[] = {0.01, 0.05, 0.2, 0.5, 1.0};

    // Header: compressibility of each column (row group 0).
    const auto &meta = pair.file.metadata;
    std::vector<std::string> headers = {"selectivity \\ column"};
    for (size_t c : columns)
        headers.push_back(fmt("%s (%.0fx)", meta.schema.column(c).name.c_str(),
                              meta.chunk(0, c).compressibility()));

    TablePrinter table(headers);
    double low_sel_min = 1e9, full_sel_max = -1e9, tax_max = -1e9;
    for (double sel : selectivities) {
        std::vector<std::string> row = {fmt("%.0f%%", sel * 100)};
        for (size_t c : columns) {
            double gain =
                compareOn(pair, 200, microbench(pair, c, sel))
                    .p50ReductionPct();
            row.push_back(fmt("%+.0f", gain));
            if (sel == 0.01 && c != workload::kTax)
                low_sel_min = std::min(low_sel_min, gain);
            if (sel == 1.0)
                full_sel_max = std::max(full_sel_max, gain);
            if (c == workload::kTax)
                tax_max = std::max(tax_max, gain);
        }
        table.addRow(std::move(row));
    }
    table.print();
    claims.atLeast("low_compressibility_gain_at_1pct", low_sel_min, 10.0);
    claims.atMost("max_gain_at_100pct", full_sel_max, 0.0);
    claims.atMost("tax_16x_max_gain", tax_max, 0.0);
}

/**
 * Figs 13a/13b: p50/p99 latency reduction of Fusion vs the baseline
 * for the 1%-selectivity microbenchmark on each lineitem column.
 * Paper: up to 65%/81% on the large, split columns and modest gains —
 * never a loss — on the small, highly compressed ones: every column
 * keeps p50 >= -5% and p99 >= -10%.
 */
void
fig13ab(Claims &claims)
{
    StorePair pair = makeStorePair(Dataset::kLineitem, lineitemRig());

    TablePrinter table({"column id", "name", "p50 reduction (%)",
                        "p99 reduction (%)", "traffic x lower"});
    const format::Schema schema = workload::lineitemSchema();
    double large_p50 = 1e9, large_p99 = 1e9, large_traffic = 1e9;
    for (size_t c = 0; c < schema.numColumns(); ++c) {
        Comparison cmp = compareOn(pair, 300, microbench(pair, c));
        table.addRow({std::to_string(c), schema.column(c).name,
                      fmt("%.1f", cmp.p50ReductionPct()),
                      fmt("%.1f", cmp.p99ReductionPct()),
                      fmt("%.1f", cmp.trafficRatio())});
        std::string key = fmt("c%zu", c);
        claims.atLeast(key + "_p50", cmp.p50ReductionPct(), -5.0);
        claims.atLeast(key + "_p99", cmp.p99ReductionPct(), -10.0);
        if (c == workload::kPartKey || c == workload::kSuppKey ||
            c == workload::kExtendedPrice || c == workload::kComment) {
            large_p50 = std::min(large_p50, cmp.p50ReductionPct());
            large_p99 = std::min(large_p99, cmp.p99ReductionPct());
            large_traffic = std::min(large_traffic, cmp.trafficRatio());
        }
    }
    table.print();
    claims.atLeast("large_columns_min_p50", large_p50, 20.0);
    claims.atLeast("large_columns_min_p99", large_p99, 30.0);
    claims.atLeast("large_columns_min_traffic_x", large_traffic, 10.0);
}

/**
 * Figs 13c/13d: latency breakdown of the microbenchmark on c5 (large
 * chunks the baseline reassembles across nodes) and the small,
 * compressed stand-in for c9. Paper: on c5 the baseline spends ~57% on
 * network vs Fusion's <4%; the small column moves little in either
 * system.
 */
void
fig13cd(Claims &claims)
{
    StorePair pair = makeStorePair(Dataset::kLineitem, lineitemRig());

    TablePrinter table({"column", "system", "disk (%)", "processing (%)",
                        "network (%)", "bytes moved"});
    // c5 is the paper's showcase column. Our c9 (l_linestatus) cannot
    // express a 1% selectivity (2 distinct values), so the tiny,
    // highly compressed l_quantity column stands in for the
    // "both-systems-cheap" case.
    Comparison c5 = compareOn(pair, 300, microbench(pair, 5));
    breakdownRow(table, "baseline", "c5", c5.baseline);
    breakdownRow(table, "fusion", "c5", c5.fusion);
    Comparison c4 =
        compareOn(pair, 300, microbench(pair, workload::kQuantity));
    breakdownRow(table, "baseline", "c4 (stands in for c9)", c4.baseline);
    breakdownRow(table, "fusion", "c4 (stands in for c9)", c4.fusion);
    table.print();
    claims.atMost("c5_fusion_network_pct", networkShare(c5.fusion), 4.0);
    claims.atLeast("c5_network_share_ratio",
                   networkShare(c5.baseline) / networkShare(c5.fusion), 5.0);
    claims.atLeast("c5_traffic_x", c5.trafficRatio(), 10.0);
    claims.fact("c4_network_below_c5_baseline",
                std::max(networkShare(c4.baseline),
                         networkShare(c4.fusion)) <
                    networkShare(c5.baseline));
}

/**
 * Figs 14a/14b: latency reduction vs selectivity on c5 (good for
 * Fusion) and the small, compressed stand-in for c9. Paper: gains
 * shrink with selectivity; at 75-100% on c5 the Cost Equation turns
 * projection pushdown off (fetch compressed chunks) and Fusion still
 * does not lose. The cutover sits where selectivity x compressibility
 * crosses 1: 75% on c5, 20% on l_quantity (5.2x compressible).
 */
void
fig14ab(Claims &claims)
{
    StorePair pair = makeStorePair(Dataset::kLineitem, lineitemRig());
    const double selectivities[] = {0.001, 0.01, 0.05, 0.1,
                                    0.2,   0.5,  0.75, 1.0};

    // The paper sweeps its best column (c5) and a worst-performing
    // column (c9). Our c9 (l_linestatus) has only two distinct values,
    // so selectivity is not sweepable; l_quantity plays the role of the
    // modest, highly compressed column instead.
    for (size_t c : {workload::kExtendedPrice, workload::kQuantity}) {
        const bool c5 = c == workload::kExtendedPrice;
        std::printf("\n%s (%s):\n",
                    c5 ? "column 5 (best case)"
                       : "column 4 (modest, stands in for c9)",
                    workload::lineitemSchema().column(c).name.c_str());
        TablePrinter table({"selectivity (%)", "p50 reduction (%)",
                            "p99 reduction (%)", "fusion pushdowns",
                            "fusion fetches"});
        // The first selectivity whose projections are all fetched; a
        // single cutover means every later cell fetches too.
        double cutover = 1000, min_p50 = 1e9, low_sel_min_p50 = 1e9;
        bool single_cutover = true;
        for (double sel : selectivities) {
            Comparison cmp = compareOn(pair, 250, microbench(pair, c, sel));
            table.addRow({fmt("%.1f", sel * 100.0),
                          fmt("%.1f", cmp.p50ReductionPct()),
                          fmt("%.1f", cmp.p99ReductionPct()),
                          std::to_string(cmp.fusion.projectionPushdowns),
                          std::to_string(cmp.fusion.projectionFetches)});
            bool fetched = cmp.fusion.projectionPushdowns == 0;
            if (cutover < 1000 && !fetched)
                single_cutover = false;
            if (fetched && cutover == 1000)
                cutover = sel * 100.0;
            min_p50 = std::min(min_p50, cmp.p50ReductionPct());
            if (sel <= 0.1)
                low_sel_min_p50 =
                    std::min(low_sel_min_p50, cmp.p50ReductionPct());
            if (!c5 && sel == 0.2)
                claims.atLeast("c4_p50_at_20pct", cmp.p50ReductionPct(),
                               -5.0);
        }
        table.print();
        const std::string key = c5 ? "c5_" : "c4_";
        claims.fact(key + "single_cutover", single_cutover);
        if (c5) {
            claims.within("c5_cutover_pct", cutover, 75.0, 100.0);
            claims.atLeast("c5_min_p50_to_10pct", low_sel_min_p50, 20.0);
            claims.atLeast("c5_min_p50", min_p50, -5.0);
        } else {
            claims.equals("c4_cutover_pct", cutover, 20.0);
        }
    }
}

/**
 * Fig 14c: c5 microbenchmark under 10 / 25 / 100 Gbps NICs. Paper:
 * Fusion's edge grows as the network gets slower.
 */
void
fig14c(Claims &claims)
{
    TablePrinter table({"NIC bandwidth", "p50 reduction (%)",
                        "p99 reduction (%)", "baseline p50", "fusion p50"});
    std::vector<Comparison> cmps;
    for (double gbps : {10.0, 25.0, 100.0}) {
        RigOptions options = lineitemRig();
        options.node.nicBandwidth = gbps * 1e9 / 8;
        StorePair pair = makeStorePair(Dataset::kLineitem, options);
        Comparison cmp =
            compareOn(pair, 250, microbench(pair, workload::kExtendedPrice));
        table.addRow({fmt("%.0f Gbps", gbps),
                      fmt("%.1f", cmp.p50ReductionPct()),
                      fmt("%.1f", cmp.p99ReductionPct()),
                      formatSeconds(cmp.baseline.latency.p50()),
                      formatSeconds(cmp.fusion.latency.p50())});
        cmps.push_back(std::move(cmp));
    }
    table.print();
    claims.fact("p50_gain_grows_as_network_slows",
                cmps[0].p50ReductionPct() > cmps[1].p50ReductionPct() &&
                    cmps[1].p50ReductionPct() > cmps[2].p50ReductionPct());
    claims.fact("p99_gain_10g_above_25g",
                cmps[0].p99ReductionPct() > cmps[1].p99ReductionPct());
}

/**
 * Fig 14d: average storage-node CPU utilization under a fixed query
 * load. Paper: Fusion uses less CPU than the baseline at the same
 * throughput because it moves less data through the network stack.
 * The tiny l_linestatus column moves almost nothing in either system
 * and carries no claim.
 */
void
fig14d(Claims &claims)
{
    TablePrinter table({"column", "baseline util (%)", "fusion util (%)",
                        "baseline cpu-s/query", "fusion cpu-s/query"});
    for (size_t c : {workload::kOrderKey, workload::kExtendedPrice,
                     workload::kLineStatus, workload::kComment}) {
        StorePair pair = makeStorePair(Dataset::kLineitem, lineitemRig());
        RunConfig config;
        config.totalQueries = 300;
        config.openLoopQps = 5.0; // fixed load, as in the paper's setup
        query::Query q = microbench(pair, c);
        Comparison cmp =
            compareStores(pair, config, [&](size_t) { return q; });
        const std::string name = workload::lineitemSchema().column(c).name;
        table.addRow(
            {name, fmt("%.2f", cmp.baseline.meanStorageCpuUtilization * 100),
             fmt("%.2f", cmp.fusion.meanStorageCpuUtilization * 100),
             fmt("%.4f", cmp.baseline.cpuSeconds / config.totalQueries),
             fmt("%.4f", cmp.fusion.cpuSeconds / config.totalQueries)});
        if (c != workload::kLineStatus)
            claims.fact(name + "_fusion_util_lower",
                        cmp.fusion.meanStorageCpuUtilization <
                            cmp.baseline.meanStorageCpuUtilization);
    }
    table.print();
}

/**
 * Figs 15a/15b: latency reduction and traffic for the four real-world
 * queries of Table 4. Paper: Q1/Q2 up to 48%/40% (p50/p99), taxi
 * queries up to 32%/48%, traffic up to 8.9x lower; Q4's fare
 * projection is not pushed yet Fusion still wins via the date column.
 */
void
fig15(Claims &claims)
{
    StorePair lineitem = makeStorePair(Dataset::kLineitem, lineitemRig());
    RigOptions taxi_options = lineitemRig();
    taxi_options.rows = 64000;
    StorePair taxi = makeStorePair(Dataset::kTaxi, taxi_options);

    struct Row {
        const char *name;
        StorePair *pair;
        query::Query query;
    };
    Row rows[] = {
        {"Q1 (projection heavy)", &lineitem,
         workload::lineitemQ1("x", lineitem.table)},
        {"Q2 (filter heavy)", &lineitem,
         workload::lineitemQ2("x", lineitem.table)},
        {"Q3 (high selectivity)", &taxi, workload::taxiQ3("x", taxi.table)},
        {"Q4 (low selectivity)", &taxi, workload::taxiQ4("x", taxi.table)},
    };

    TablePrinter table({"query", "p50 reduction (%)", "p99 reduction (%)",
                        "traffic x lower", "fusion pushdowns",
                        "fusion fetches"});
    double min_traffic = 1e9;
    for (auto &row : rows) {
        Comparison cmp = compareOn(*row.pair, 300, row.query);
        table.addRow({row.name, fmt("%.1f", cmp.p50ReductionPct()),
                      fmt("%.1f", cmp.p99ReductionPct()),
                      fmt("%.1f", cmp.trafficRatio()),
                      std::to_string(cmp.fusion.projectionPushdowns),
                      std::to_string(cmp.fusion.projectionFetches)});
        std::string key = std::string(row.name, 2);
        min_traffic = std::min(min_traffic, cmp.trafficRatio());
        if (&row != &rows[3]) {
            claims.atLeast(key + "_p50", cmp.p50ReductionPct(), 30.0);
            claims.atLeast(key + "_p99", cmp.p99ReductionPct(), 30.0);
            continue;
        }
        claims.atLeast("Q4_p50", cmp.p50ReductionPct(), 0.0);
        claims.fact("Q4_date_pushed_fare_fetched",
                    cmp.fusion.projectionPushdowns > 0 &&
                        cmp.fusion.projectionFetches > 0);
    }
    table.print();
    claims.atLeast("min_traffic_x", min_traffic, 1.5);
}

/**
 * Ablation A2: aggregate pushdown (the paper's future work, §5 "SQL
 * Support"). Pure-aggregate projections reply with scalars instead of
 * value streams: traffic falls at least 3x further for every query,
 * and latency falls most where adaptive Fusion would otherwise fetch
 * compressed chunks (50% selectivity).
 */
void
ablationAggregate(Claims &claims)
{
    RigOptions agg_options = lineitemRig();
    agg_options.store.aggregatePushdown = true;
    StorePair plain = makeStorePair(Dataset::kLineitem, lineitemRig());
    StorePair with_agg = makeStorePair(Dataset::kLineitem, agg_options);

    struct Row {
        const char *name;
        const char *sql; // table is a placeholder rewritten per copy
    };
    Row rows[] = {
        {"SUM price, 10% sel",
         "SELECT SUM(l_extendedprice) FROM t WHERE l_suppkey < 1000"},
        {"AVG price, 50% sel",
         "SELECT AVG(l_extendedprice) FROM t WHERE l_quantity < 26"},
        {"COUNT + SUM, full scan",
         "SELECT COUNT(*), SUM(l_quantity) FROM t WHERE l_orderkey > 0"},
    };

    RunConfig config;
    config.totalQueries = 200;

    TablePrinter table({"query", "fusion p50", "fusion+aggpush p50",
                        "latency reduction (%)", "traffic x lower"});
    double min_traffic = 1e9;
    for (const auto &row : rows) {
        auto parsed = query::parseQuery(row.sql);
        FUSION_CHECK(parsed.isOk());
        RunStats a = runClosedLoop(*plain.fusion, config, [&](size_t i) {
            return plain.onCopy(parsed.value(), i);
        });
        RunStats b = runClosedLoop(*with_agg.fusion, config, [&](size_t i) {
            return with_agg.onCopy(parsed.value(), i);
        });
        double reduction =
            latencyReductionPct(a.latency.p50(), b.latency.p50());
        double traffic = static_cast<double>(a.networkBytes) /
                         std::max<uint64_t>(b.networkBytes, 1);
        table.addRow({row.name, formatSeconds(a.latency.p50()),
                      formatSeconds(b.latency.p50()),
                      fmt("%.1f", reduction), fmt("%.1f", traffic)});
        min_traffic = std::min(min_traffic, traffic);
        if (&row == &rows[1])
            claims.atLeast("avg_50pct_p50_reduction", reduction, 10.0);
    }
    table.print();
    claims.atLeast("min_traffic_x", min_traffic, 3.0);
}

/**
 * Ablation A4: value of the Cost Equation. Adaptive, always-push and
 * the fetch-everything baseline on AVG over the ~16x compressible
 * l_discount, with l_suppkey setting selectivity. Aggregates keep the
 * client reply tiny, so the policies differ only in how projection
 * data crosses the storage network: adaptive equals always-push below
 * cost product 1 and stays flat beyond it, where always-push ships
 * large uncompressed replies.
 */
void
ablationCostModel(Claims &claims)
{
    RigOptions always_options = lineitemRig();
    always_options.store.adaptivePushdown = false;
    StorePair adaptive = makeStorePair(Dataset::kLineitem, lineitemRig());
    StorePair always = makeStorePair(Dataset::kLineitem, always_options);

    RunConfig config;
    config.totalQueries = 250;

    TablePrinter table({"selectivity (%)", "cost product", "adaptive p50",
                        "always-push p50", "baseline p50",
                        "adaptive traffic (KiB/q)",
                        "always-push traffic (KiB/q)"});
    double compressibility =
        adaptive.file.metadata.chunk(0, workload::kDiscount)
            .compressibility();
    bool equal_below_1 = true, beats_baseline = true, less_traffic = true;
    double always_over_adaptive_at_100 = 0;
    for (double sel : {0.01, 0.05, 0.2, 0.5, 1.0}) {
        // AVG over the compressible discount column; the filter column
        // (suppkey) controls selectivity.
        query::Query q;
        q.projections.push_back({"l_discount", query::AggregateKind::kAvg});
        q.filters.push_back(
            {"l_suppkey", query::CompareOp::kLe,
             workload::quantileLiteral(
                 adaptive.table.column(workload::kSuppKey), sel)});
        auto on = [&q](StorePair &pair) {
            return [&pair, &q](size_t i) { return pair.onCopy(q, i); };
        };
        RunStats a = runClosedLoop(*adaptive.fusion, config, on(adaptive));
        RunStats b = runClosedLoop(*always.fusion, config, on(always));
        RunStats c = runClosedLoop(*adaptive.baseline, config, on(adaptive));
        table.addRow(
            {fmt("%.0f", sel * 100), fmt("%.2f", sel * compressibility),
             formatSeconds(a.latency.p50()), formatSeconds(b.latency.p50()),
             formatSeconds(c.latency.p50()),
             fmt("%.1f", static_cast<double>(a.networkBytes) /
                             config.totalQueries / 1024),
             fmt("%.1f", static_cast<double>(b.networkBytes) /
                             config.totalQueries / 1024)});
        if (sel * compressibility < 1)
            equal_below_1 &= a.latency.p50() == b.latency.p50() &&
                             a.networkBytes == b.networkBytes;
        beats_baseline &= a.latency.p50() < c.latency.p50();
        less_traffic &= a.networkBytes <= b.networkBytes;
        if (sel == 1.0)
            always_over_adaptive_at_100 = b.latency.p50() / a.latency.p50();
    }
    table.print();
    // The committed stdout golden ends with this line.
    std::printf("\nexpected: identical until the cost product crosses 1; "
                "beyond it, always-push ships large uncompressed replies "
                "while adaptive fetches the compressed chunk and stays "
                "flat\n");
    claims.fact("adaptive_equals_always_below_product_1", equal_below_1);
    claims.fact("adaptive_beats_baseline_everywhere", beats_baseline);
    claims.fact("adaptive_traffic_never_above_always", less_traffic);
    claims.atLeast("always_over_adaptive_p50_at_100pct",
                   always_over_adaptive_at_100, 3.0);
}

/**
 * Ablation A6: Bloom-filter chunk skipping (extension). Point lookups
 * on unsorted columns defeat min/max zone maps; per-chunk Bloom
 * filters let absent-key lookups skip nearly every row group, cutting
 * their latency and traffic for a modest footer cost.
 */
void
ablationBloom(Claims &claims)
{
    const size_t rows = 64000;
    format::Table table = makeEventTable(rows);

    TablePrinter results({"filters", "footer size", "hit p50", "miss p50",
                          "miss rg scanned", "miss traffic (KiB/q)"});
    double miss_p50[2], miss_rg[2], miss_kib[2];
    for (bool bloom : {false, true}) {
        format::WriterOptions writer_options;
        writer_options.rowGroupRows = rows / 16;
        writer_options.chunk.enableBloomFilter = bloom;
        auto file = format::writeTable(table, writer_options);
        FUSION_CHECK(file.isOk());

        sim::ClusterConfig cluster_config;
        cluster_config.node = scaledNodeConfig(
            cluster_config.node, file.value().bytes.size(), 10e9);
        sim::Cluster cluster(cluster_config);
        store::FusionStore store(cluster, store::StoreOptions{});
        FUSION_CHECK(store.put("events", file.value().bytes).isOk());

        // Footer (metadata) size difference = the filters' cost.
        uint64_t footer_size = file.value().metadata.serialize().size();

        Rng rng(21);
        SampleHistogram hit_latency, miss_latency;
        double miss_rg_scanned = 0;
        uint64_t miss_traffic = 0;
        const int lookups = 100;
        for (int i = 0; i < lookups; ++i) {
            // Present id: a random row's value. Absent id: odd number.
            int64_t present = table.column(0).int64s()[rng.pickIndex(rows)];
            auto hit = store.querySql(
                "SELECT amount FROM events WHERE user_id = " +
                std::to_string(present));
            FUSION_CHECK(hit.isOk());
            hit_latency.add(hit.value().latencySeconds);

            uint64_t before = store.cluster().totalNetworkBytes();
            auto miss = store.querySql(
                "SELECT amount FROM events WHERE user_id = " +
                std::to_string(rng.uniformInt(0, 1 << 24) * 2 + 1));
            FUSION_CHECK(miss.isOk());
            FUSION_CHECK(miss.value().result.rowsMatched == 0);
            miss_latency.add(miss.value().latencySeconds);
            miss_rg_scanned += miss.value().rowGroupsScanned;
            miss_traffic += store.cluster().totalNetworkBytes() - before;
        }

        miss_p50[bloom] = miss_latency.p50();
        miss_rg[bloom] = miss_rg_scanned / lookups;
        miss_kib[bloom] =
            static_cast<double>(miss_traffic) / lookups / 1024;
        results.addRow({bloom ? "bloom + zone maps" : "zone maps only",
                        formatBytes(footer_size),
                        formatSeconds(hit_latency.p50()),
                        formatSeconds(miss_latency.p50()),
                        fmt("%.1f", miss_rg[bloom]),
                        fmt("%.1f", miss_kib[bloom])});
    }
    results.print();
    claims.atMost("bloom_miss_rg_scanned", miss_rg[1], 1.0);
    claims.atLeast("miss_p50_speedup", miss_p50[0] / miss_p50[1], 10.0);
    claims.atLeast("miss_traffic_cut_x", miss_kib[0] / miss_kib[1], 4.0);
}

/**
 * Ablation A7: the 1%-selectivity microbenchmark while a writer
 * streams 40 fresh objects through the simulated cluster, against the
 * idle cluster. Ingest inflates query latency through the shared NICs
 * and disks. The FAC layout share of the Put is host wall clock over
 * simulated time and carries no claim.
 */
void
ablationIngest(Claims &claims)
{
    SampleHistogram idle, busy, put_latency;
    double layout_seconds = 0.0;
    double put_seconds = 0.0;

    for (bool with_ingest : {false, true}) {
        StorePair pair = makeStorePair(Dataset::kLineitem, lineitemRig());
        query::Query q = microbench(pair, workload::kExtendedPrice);

        size_t puts_done = 0;
        std::function<void()> keep_putting = [&]() {
            if (!with_ingest || puts_done >= 40)
                return;
            std::string name = "ingest#" + std::to_string(puts_done++);
            pair.fusion->putAsync(
                name, pair.file.bytes,
                [&](Result<store::PutResult> result) {
                    FUSION_CHECK(result.isOk());
                    put_latency.add(result.value().simulatedPutSeconds);
                    layout_seconds += result.value().layoutSeconds;
                    put_seconds += result.value().simulatedPutSeconds;
                    keep_putting();
                });
        };
        keep_putting();

        RunConfig config;
        config.totalQueries = 300;
        RunStats stats =
            runClosedLoop(*pair.fusion, config,
                          [&](size_t i) { return pair.onCopy(q, i); });
        (with_ingest ? busy : idle) = stats.latency;
    }

    TablePrinter table({"condition", "query p50", "query p99"});
    table.addRow({"idle cluster", formatSeconds(idle.p50()),
                  formatSeconds(idle.p99())});
    table.addRow({"40 concurrent puts", formatSeconds(busy.p50()),
                  formatSeconds(busy.p99())});
    table.print();
    claims.fact("ingest_raises_p50", busy.p50() > idle.p50());
    claims.fact("ingest_raises_p99", busy.p99() > idle.p99());

    std::printf("\nput p50 %s over the simulated cluster; FAC layout "
                "computation totalled %s = %.4f%% of simulated put time "
                "(paper: 0.0015%% on real hardware)\n",
                formatSeconds(put_latency.p50()).c_str(),
                formatSeconds(layout_seconds).c_str(),
                layout_seconds / put_seconds * 100.0);
}

/**
 * Ablation A6: degraded reads under deterministic fault injection.
 * Sweeps the crash/slow event count over the run's makespan and
 * reports retries, parity reconstructions, pushdown fallbacks and the
 * latency both stores pay. Faulted chunks reroute to coordinator-side
 * evaluation more often as faults grow, lost blocks are rebuilt from
 * parity, and the same seed replays the identical fault trace and
 * metrics on a fresh rig.
 */
void
ablationFaults(Claims &claims)
{
    RunConfig run;
    run.clients = 4;
    run.totalQueries = 240;

    // Fault-free reference run; Fusion's makespan becomes the fault
    // horizon so every sweep level lands its events inside the part of
    // the run both stores are still executing.
    StorePair clean_pair = makeStorePair(Dataset::kLineitem, faultRig());
    Comparison clean =
        compareStores(clean_pair, run, faultQueryMix(clean_pair));
    double horizon = clean.fusion.wallSimSeconds;

    TablePrinter table({"crash events", "fusion p50", "fusion p99",
                        "retries", "EC rebuilds", "pushdown fallbacks",
                        "baseline p99"});
    // Robustness counters come from the Fusion store's metrics registry
    // (the fault.* instruments). Each sweep level runs on a fresh rig
    // with faults armed only during the measured runs, so cumulative
    // counts == run counts.
    uint64_t last_fallbacks = 0, rebuilds = 0;
    bool fallbacks_grow = true;
    auto add_row = [&](size_t crashes, const Comparison &c,
                       const store::FusionStore &fusion) {
        obs::MetricsSnapshot snap = fusion.obs().metrics.snapshot();
        auto count = [&](const char *name) -> uint64_t {
            auto it = snap.values.find(name);
            return it == snap.values.end() ? 0 : it->second.count;
        };
        table.addRow({std::to_string(crashes),
                      fmt("%.3f ms", c.fusion.latency.p50() * 1e3),
                      fmt("%.3f ms", c.fusion.latency.p99() * 1e3),
                      std::to_string(count("fault.read_retries")),
                      std::to_string(count("fault.parity_reconstructions")),
                      std::to_string(count("fault.pushdown_fallbacks")),
                      fmt("%.3f ms", c.baseline.latency.p99() * 1e3)});
        fallbacks_grow &= count("fault.pushdown_fallbacks") >= last_fallbacks;
        last_fallbacks = count("fault.pushdown_fallbacks");
        rebuilds = count("fault.parity_reconstructions");
    };
    add_row(0, clean, *clean_pair.fusion);

    for (size_t crashes : {1, 2, 4, 8}) {
        StorePair pair = makeStorePair(Dataset::kLineitem, faultRig());
        pair.armFaults(
            sim::FaultSchedule::random(faultOptions(crashes, horizon)));
        Comparison faulted = compareStores(pair, run, faultQueryMix(pair));
        add_row(crashes, faulted, *pair.fusion);
    }
    table.print();
    claims.fact("fallbacks_grow_with_faults", fallbacks_grow);
    claims.atLeast("rebuilds_at_8_crashes", static_cast<double>(rebuilds),
                   1.0);

    // Determinism spot check: identical seed, fresh rig — the applied
    // fault trace and the full metrics snapshot (every fault/cache/wire
    // counter and the latency histogram) must match byte for byte.
    std::string traces[2];
    obs::MetricsSnapshot snaps[2];
    double p99[2];
    for (int round = 0; round < 2; ++round) {
        StorePair pair = makeStorePair(Dataset::kLineitem, faultRig());
        pair.armFaults(sim::FaultSchedule::random(faultOptions(4, horizon)));
        RunStats fusion_run =
            runClosedLoop(*pair.fusion, run, [&pair, next = faultQueryMix(pair)](
                                                 size_t i) {
                return pair.onCopy(next(i), i);
            });
        traces[round] = pair.fusionFaults->traceString();
        snaps[round] = pair.fusion->obs().metrics.snapshot();
        p99[round] = fusion_run.latency.p99();
    }
    bool same_metrics = snaps[0].toJson() == snaps[1].toJson();
    std::printf("\ndeterminism (seed %#x, 2 runs): traces %s, metrics "
                "%s, p99 %s\n",
                0xfa017 + 4, traces[0] == traces[1] ? "equal" : "DIFFER",
                same_metrics ? "equal" : "DIFFER",
                p99[0] == p99[1] ? "equal" : "DIFFER");
    claims.fact("same_seed_replays_identically",
                traces[0] == traces[1] && same_metrics && p99[0] == p99[1]);
}

} // namespace fusion::paper
