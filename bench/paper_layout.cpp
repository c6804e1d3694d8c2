/**
 * @file
 * bench_paper's dataset, layout and FAC figures: Tables 3 and 4, Figs
 * 4a, 4c, 4d, 6, 10a, 12, 16a and 16b/c, the (n,k), threshold and
 * recovery ablations and the deployment study. Placement and overhead
 * experiments run on paper-scale chunk-size models (only the chunk
 * list matters to them); none drives a store.
 */
#include <algorithm>
#include <cmath>

#include "benchutil/harness.h"
#include "common/random.h"
#include "common/units.h"
#include "common/walltime.h"
#include "ec/lrc.h"
#include "fac/constructors.h"
#include "paper.h"
#include "query/eval.h"
#include "workload/chunk_models.h"
#include "workload/lineitem.h"
#include "workload/queries.h"
#include "workload/taxi.h"
#include "workload/textsets.h"

namespace fusion::paper {

using benchutil::fmt;
using benchutil::TablePrinter;

namespace {

/** The four paper-scale chunk models, one seed for all. */
struct ModelRow {
    const char *name;
    const char *key; // claim-name prefix
    std::vector<fac::ChunkExtent> model;
};

std::vector<ModelRow>
datasetModels(uint64_t seed)
{
    return {{"tpc-h lineitem", "lineitem", workload::lineitemChunkModel(seed)},
            {"taxi", "taxi", workload::taxiChunkModel(seed)},
            {"recipeNLG", "recipe", workload::recipeChunkModel(seed)},
            {"uk pp", "ukpp", workload::ukppChunkModel(seed)}};
}

double
measuredSelectivity(const format::Table &t, const query::Query &q)
{
    uint64_t matched = 0;
    for (size_t i = 0; i < t.numRows(); ++i) {
        bool all = true;
        for (const auto &pred : q.filters) {
            size_t col = t.schema().columnIndex(pred.column).value();
            all &= query::compareValues(t.column(col).valueAt(i), pred.op,
                                        pred.literal);
        }
        matched += all ? 1 : 0;
    }
    return static_cast<double>(matched) / t.numRows();
}

std::vector<double>
normalizedChunkSizes(const format::FileMetadata &meta)
{
    std::vector<double> sizes;
    uint64_t max_size = 0;
    for (const auto *chunk : meta.allChunks())
        max_size = std::max(max_size, chunk->storedSize);
    for (const auto *chunk : meta.allChunks())
        sizes.push_back(static_cast<double>(chunk->storedSize) /
                        static_cast<double>(max_size));
    std::sort(sizes.begin(), sizes.end());
    return sizes;
}

double
quantile(const std::vector<double> &sorted, double q)
{
    size_t idx = static_cast<size_t>(q * (sorted.size() - 1));
    return sorted[idx];
}

// Chunk lists from benign (many similar chunks) to pathological (one
// giant chunk plus dust), controlling how hard FAC's worst case bites.
std::vector<fac::ChunkExtent>
pathologicalChunks(size_t dust_chunks, uint64_t giant, uint64_t dust)
{
    std::vector<fac::ChunkExtent> chunks;
    uint64_t offset = 0;
    chunks.push_back({0, offset, giant});
    offset += giant;
    for (size_t i = 0; i < dust_chunks; ++i) {
        chunks.push_back({static_cast<uint32_t>(i + 1), offset, dust});
        offset += dust;
    }
    return chunks;
}

/** Bytes read to rebuild every block of one failed node, assuming the
 *  node held `fraction` of each stripe's blocks on average and repair
 *  reads `reads_per_block` surviving blocks of the stripe size. */
uint64_t
repairTraffic(const fac::ObjectLayout &layout, size_t n,
              size_t reads_per_block)
{
    // Expected blocks of a random node: each stripe places its n blocks
    // on n distinct nodes of a 10-node cluster, so a node holds a block
    // of a stripe with probability n/10; repairing it reads
    // reads_per_block blocks of ~blockSize bytes.
    uint64_t total = 0;
    for (const auto &stripe : layout.stripes)
        total += stripe.blockSize() * reads_per_block;
    // Scale by the probability the failed node held one of the
    // stripe's blocks.
    return static_cast<uint64_t>(static_cast<double>(total) *
                                 static_cast<double>(n) / 10.0);
}

/**
 * Median wall time of `reps` calls of `fn`. One call of a layout
 * construction lasts microseconds, so a single timer pair around it
 * measures mostly timer and cache noise.
 */
template <typename Fn>
double
medianSeconds(size_t reps, const Fn &fn)
{
    std::vector<double> samples;
    for (size_t i = 0; i < reps; ++i) {
        double t0 = walltime::monotonicSeconds();
        fn();
        samples.push_back(walltime::monotonicSeconds() - t0);
    }
    std::nth_element(samples.begin(), samples.begin() + reps / 2,
                     samples.end());
    return samples[reps / 2];
}

/**
 * Synthesizes one object's chunk list. Object sizes follow a heavy
 * lognormal (median ~1.6 GB, long tail) per the trace shape; chunk
 * counts and sizes derive from the object size the way Parquet row
 * groups would.
 */
std::vector<fac::ChunkExtent>
traceObjectChunks(Rng &rng)
{
    double size_gb = std::exp(rng.normal() * 1.2 + 0.5); // lognormal
    size_gb = std::min(size_gb, 50.0);
    uint64_t object_bytes = static_cast<uint64_t>(size_gb * 1e9);
    // Row groups of ~1 GB, 8-24 columns with skewed shares.
    size_t row_groups =
        std::max<size_t>(1, object_bytes / 1'000'000'000);
    size_t columns = 8 + rng.pickIndex(17);
    std::vector<double> shares(columns);
    double total = 0;
    for (auto &share : shares) {
        share = std::exp(rng.normal() * 1.5);
        total += share;
    }
    std::vector<fac::ChunkExtent> chunks;
    uint64_t offset = 0;
    uint32_t id = 0;
    for (size_t rg = 0; rg < row_groups; ++rg) {
        for (size_t c = 0; c < columns; ++c) {
            uint64_t size = static_cast<uint64_t>(
                static_cast<double>(object_bytes) / row_groups *
                shares[c] / total);
            size = std::max<uint64_t>(size, 4096);
            chunks.push_back({id++, offset, size});
            offset += size;
        }
    }
    return chunks;
}

} // namespace

/**
 * Table 3: columns, chunk counts and file sizes of the four datasets,
 * at the generated (scaled) size and the paper-scale chunk model.
 * Column and chunk counts must match the paper's table.
 */
void
table3(Claims &claims)
{
    struct Row {
        const char *name;
        const char *key;
        Result<format::WrittenFile> file;
        std::vector<fac::ChunkExtent> model;
        double paperGb;
        size_t paperColumns, paperChunks;
    };
    Row rows[] = {
        {"tpc-h lineitem", "lineitem", workload::buildLineitemFile(60000, 1),
         workload::lineitemChunkModel(1), 10.0, 16, 160},
        {"taxi", "taxi", workload::buildTaxiFile(64000, 1),
         workload::taxiChunkModel(1), 8.4, 20, 320},
        {"recipeNLG", "recipe", workload::buildRecipeFile(24000, 1),
         workload::recipeChunkModel(1), 0.98, 7, 84},
        {"uk pp", "ukpp", workload::buildUkppFile(30000, 1),
         workload::ukppChunkModel(1), 1.5, 16, 240},
    };

    TablePrinter table({"dataset", "num columns", "num chunks",
                        "generated size", "paper-scale model",
                        "paper size (GB)"});
    for (auto &row : rows) {
        FUSION_CHECK(row.file.isOk());
        const auto &meta = row.file.value().metadata;
        table.addRow({row.name, std::to_string(meta.schema.numColumns()),
                      std::to_string(meta.numChunks()),
                      formatBytes(row.file.value().bytes.size()),
                      fmt("%.2f GB",
                          workload::modelTotalBytes(row.model) / 1e9),
                      fmt("%.2f", row.paperGb)});
        std::string key = row.key;
        claims.equals(key + "_columns",
                      static_cast<double>(meta.schema.numColumns()),
                      static_cast<double>(row.paperColumns));
        claims.equals(key + "_chunks",
                      static_cast<double>(meta.numChunks()),
                      static_cast<double>(row.paperChunks));
    }
    table.print();
}

/**
 * Table 4: filter and projection counts plus the measured selectivity
 * of Q1-Q4 on the generated datasets. Counts match the paper's table
 * and each selectivity lies within half a point of the paper's.
 */
void
table4(Claims &claims)
{
    const size_t rows = 60000;
    format::Table lineitem = workload::makeLineitemTable(rows, 42);
    format::Table taxi = workload::makeTaxiTable(rows, 42);

    struct Row {
        const char *name;
        const char *dataset;
        query::Query query;
        const format::Table *table;
        double paperSelectivity;
        size_t paperFilters, paperProjections;
    };
    Row queries[] = {
        {"Q1 (projection heavy)", "tpc-h",
         workload::lineitemQ1("lineitem", lineitem), &lineitem, 0.014, 1,
         6},
        {"Q2 (filter heavy)", "tpc-h",
         workload::lineitemQ2("lineitem", lineitem), &lineitem, 0.054, 3,
         2},
        {"Q3 (high selectivity)", "taxi", workload::taxiQ3("taxi", taxi),
         &taxi, 0.375, 1, 1},
        {"Q4 (low selectivity)", "taxi", workload::taxiQ4("taxi", taxi),
         &taxi, 0.063, 1, 2},
    };

    TablePrinter table({"query", "dataset", "num filters",
                        "num projections", "selectivity", "paper"});
    for (const auto &row : queries) {
        double selectivity = measuredSelectivity(*row.table, row.query);
        table.addRow({row.name, row.dataset,
                      std::to_string(row.query.filters.size()),
                      std::to_string(row.query.projections.size()),
                      fmt("%.1f%%", selectivity * 100.0),
                      fmt("%.1f%%", row.paperSelectivity * 100.0)});
        std::string key = std::string(row.name, 2);
        claims.equals(key + "_filters",
                      static_cast<double>(row.query.filters.size()),
                      static_cast<double>(row.paperFilters));
        claims.equals(key + "_projections",
                      static_cast<double>(row.query.projections.size()),
                      static_cast<double>(row.paperProjections));
        claims.within(key + "_selectivity_pct", selectivity * 100.0,
                      row.paperSelectivity * 100.0 - 0.5,
                      row.paperSelectivity * 100.0 + 0.5);
    }
    table.print();
    std::printf("\nSQL:\n");
    for (const auto &row : queries)
        std::printf("  %-22s %s\n", row.name, row.query.toString().c_str());
}

/**
 * Fig 4a: % of column chunks split under RS(9,6) fixed-block coding
 * from 100 KB to 100 MB blocks. Paper: every chunk splits at small
 * blocks, and even at 100 MB blocks ~40% (lineitem) and ~24% (taxi)
 * do.
 */
void
fig4a(Claims &claims)
{
    const uint64_t block_sizes[] = {100'000, 1'000'000, 10'000'000,
                                    100'000'000};
    TablePrinter table(
        {"block size", "tpc-h lineitem split %", "taxi split %"});
    for (uint64_t block : block_sizes) {
        double split[2];
        int i = 0;
        for (auto model : {workload::lineitemChunkModel(7),
                           workload::taxiChunkModel(7)}) {
            fac::ObjectLayout layout =
                fac::buildFixedLayout(model, 9, 6, block);
            FUSION_CHECK(layout.validate(model).isOk());
            split[i++] = layout.splitFraction(model.size()) * 100.0;
        }
        table.addRow({formatBytes(block), fmt("%.1f", split[0]),
                      fmt("%.1f", split[1])});
        if (block == 100'000) {
            claims.equals("lineitem_split_100kb_pct", split[0], 100.0);
            claims.equals("taxi_split_100kb_pct", split[1], 100.0);
        } else if (block == 100'000'000) {
            claims.within("lineitem_split_100mb_pct", split[0], 30, 50);
            claims.within("taxi_split_100mb_pct", split[1], 14, 34);
        }
    }
    table.print();
}

/**
 * Fig 4c: CDF of normalized column chunk sizes. Paper: lineitem is
 * extremely skewed (median near 0, giant comment chunks); taxi is
 * comparatively uniform.
 */
void
fig4c(Claims &claims)
{
    struct Row {
        const char *name;
        Result<format::WrittenFile> file;
    };
    Row rows[] = {
        {"tpc-h lineitem", workload::buildLineitemFile(60000, 3)},
        {"taxi", workload::buildTaxiFile(64000, 3)},
        {"recipeNLG", workload::buildRecipeFile(24000, 3)},
        {"uk pp", workload::buildUkppFile(30000, 3)},
    };

    TablePrinter table({"dataset", "p10", "p25", "p50", "p75", "p90",
                        "p100 (normalized size)"});
    std::vector<std::vector<double>> all_sizes;
    for (auto &row : rows) {
        FUSION_CHECK(row.file.isOk());
        auto sizes = normalizedChunkSizes(row.file.value().metadata);
        table.addRow({row.name, fmt("%.3f", quantile(sizes, .1)),
                      fmt("%.3f", quantile(sizes, .25)),
                      fmt("%.3f", quantile(sizes, .5)),
                      fmt("%.3f", quantile(sizes, .75)),
                      fmt("%.3f", quantile(sizes, .9)), "1.000"});
        all_sizes.push_back(std::move(sizes));
    }
    table.print();
    claims.atMost("lineitem_p50", quantile(all_sizes[0], .5), 0.1);
    claims.fact("taxi_p75_above_lineitem",
                quantile(all_sizes[1], .75) > quantile(all_sizes[0], .75));
    claims.atLeast("taxi_p90", quantile(all_sizes[1], .9), 0.9);
}

/**
 * Fig 4d: storage overhead (w.r.t. optimal) of the padding approach
 * (Adams et al.) under RS(9,6) and RS(14,10). Paper: tens of percent
 * for every dataset, past 100% for some.
 */
void
fig4d(Claims &claims)
{
    const uint64_t block = 100'000'000; // paper block size
    TablePrinter table(
        {"dataset", "RS(9,6) overhead %", "RS(14,10) overhead %"});
    double lowest = 1e9, highest = 0;
    for (const auto &row : datasetModels(4)) {
        fac::ObjectLayout rs96 =
            fac::buildPaddingLayout(row.model, 9, 6, block);
        fac::ObjectLayout rs1410 =
            fac::buildPaddingLayout(row.model, 14, 10, block);
        FUSION_CHECK(rs96.validate(row.model).isOk());
        FUSION_CHECK(rs1410.validate(row.model).isOk());
        table.addRow({row.name,
                      fmt("%.1f", rs96.overheadVsOptimal() * 100.0),
                      fmt("%.1f", rs1410.overheadVsOptimal() * 100.0)});
        for (double o :
             {rs96.overheadVsOptimal(), rs1410.overheadVsOptimal()}) {
            lowest = std::min(lowest, o * 100.0);
            highest = std::max(highest, o * 100.0);
        }
    }
    table.print();
    claims.atLeast("min_overhead_pct", lowest, 10.0);
    claims.atLeast("max_overhead_pct", highest, 100.0);
}

/**
 * Fig 6: average compression ratio of each lineitem column. Paper:
 * max 63.5 on a flag/status column; comment and price columns low.
 */
void
fig6(Claims &claims)
{
    auto file = workload::buildLineitemFile(120000, 6);
    FUSION_CHECK(file.isOk());
    const auto &meta = file.value().metadata;

    TablePrinter table(
        {"column id", "name", "compression ratio", "stored bytes"});
    std::vector<double> ratios;
    for (size_t c = 0; c < meta.schema.numColumns(); ++c) {
        double plain = 0, stored = 0;
        for (size_t rg = 0; rg < meta.numRowGroups(); ++rg) {
            plain += static_cast<double>(meta.chunk(rg, c).plainSize);
            stored += static_cast<double>(meta.chunk(rg, c).storedSize);
        }
        double ratio = plain / stored;
        ratios.push_back(ratio);
        table.addRow({std::to_string(c), meta.schema.column(c).name,
                      fmt("%.1f", ratio),
                      formatBytes(static_cast<uint64_t>(stored))});
    }
    table.print();
    claims.atMost("price_comment_max_ratio",
                  std::max(ratios[workload::kExtendedPrice],
                           ratios[workload::kComment]),
                  3.0);
    claims.atLeast("flag_status_min_ratio",
                   std::min(ratios[workload::kReturnFlag],
                            ratios[workload::kLineStatus]),
                   15.0);

    std::sort(ratios.begin(), ratios.end());
    claims.within("max_ratio", ratios.back(), 50.0, 80.0);
    std::printf("\nmedian ratio %.1f (paper ~9.3), max %.1f (paper ~63.5)\n",
                ratios[ratios.size() / 2], ratios.back());
}

/**
 * Fig 10a: the exact solver's effort explodes with the number of
 * chunks (paper: Gurobi >3 h at 35 chunks). The branch-and-bound
 * oracle has a deterministic node budget (40 M nodes for its 2 s), so
 * the status and node columns repeat exactly; the solve and FAC time
 * columns are wall clock and carry no claim.
 */
void
fig10a(Claims &claims)
{
    const double time_limit = 2.0; // seconds per instance
    TablePrinter table({"num chunks", "solve time", "status",
                        "nodes explored", "FAC time"});
    bool optimal_to_30 = true;
    double nodes21 = 0, nodes30 = 0;
    for (size_t count : {6, 9, 12, 15, 18, 21, 24, 30, 36}) {
        auto chunks = workload::zipfChunkModel(count, 0.0, 100 + count);
        double t0 = walltime::monotonicSeconds();
        fac::ObjectLayout greedy = fac::buildFacLayout(chunks, 9, 6);
        double fac_seconds = walltime::monotonicSeconds() - t0;
        (void)greedy;
        fac::OracleResult oracle =
            fac::buildOracleLayout(chunks, 9, 6, time_limit);
        table.addRow({std::to_string(count),
                      formatSeconds(oracle.solveSeconds),
                      oracle.optimal ? "optimal" : "TIMEOUT (budget 2 s)",
                      std::to_string(oracle.nodesExplored),
                      formatSeconds(fac_seconds)});
        double nodes = static_cast<double>(oracle.nodesExplored);
        if (count <= 30)
            optimal_to_30 &= oracle.optimal;
        if (count == 21)
            nodes21 = nodes;
        if (count == 30)
            nodes30 = nodes;
        if (count == 36) {
            claims.fact("timeout_at_36", !oracle.optimal);
            claims.atLeast("nodes_at_36", nodes, 40e6);
        }
    }
    table.print();
    claims.fact("optimal_up_to_30", optimal_to_30);
    claims.atLeast("nodes_30_over_21", nodes30 / nodes21, 1000.0);
}

/**
 * Fig 12: average number of storage nodes a lineitem chunk spans in
 * the baseline (100 MB blocks, RS(9,6)). Paper: the ~386 MB comment
 * chunks span ~5 nodes; tiny columns ~1.
 */
void
fig12(Claims &claims)
{
    // Paper-scale model; average over several placements.
    const int kRuns = 5;
    std::vector<double> span_sum(16, 0.0);
    std::vector<double> size_sum(16, 0.0);
    for (int run = 0; run < kRuns; ++run) {
        auto model = workload::lineitemChunkModel(50 + run);
        fac::ObjectLayout layout =
            fac::buildFixedLayout(model, 9, 6, 100'000'000);
        auto spans = layout.chunkSpans(model.size());
        // Chunks are laid out row-group-major: chunk id % 16 = column.
        for (size_t i = 0; i < model.size(); ++i) {
            span_sum[i % 16] += spans[i];
            size_sum[i % 16] += static_cast<double>(model[i].size);
        }
    }

    format::Schema schema = workload::lineitemSchema();
    TablePrinter table(
        {"column id", "name", "avg chunk size (MB)", "avg num nodes"});
    const double denom = kRuns * 10.0; // 10 row groups per run
    double tiny_max = 0;
    for (size_t c = 0; c < 16; ++c) {
        table.addRow({std::to_string(c), schema.column(c).name,
                      fmt("%.0f", size_sum[c] / denom / 1e6),
                      fmt("%.1f", span_sum[c] / denom)});
        if (size_sum[c] / denom < 10e6)
            tiny_max = std::max(tiny_max, span_sum[c] / denom);
    }
    table.print();
    claims.within("comment_chunk_mb", size_sum[15] / denom / 1e6, 350, 420);
    claims.within("comment_nodes", span_sum[15] / denom, 4.0, 6.0);
    claims.atMost("tiny_columns_max_nodes", tiny_max, 1.2);
}

/**
 * Fig 16a: FAC storage overhead vs the number of chunks (1-100 MB)
 * for Zipf skews 0, 0.5 and 0.99, averaged over 100 runs. Paper: ~3%
 * at 100 chunks, 0.8% at 500, approaching 0 beyond.
 */
void
fig16a(Claims &claims)
{
    const int kRuns = 100; // paper: averaged over 100 dataset runs
    const double thetas[] = {0.0, 0.5, 0.99};
    TablePrinter table(
        {"num chunks", "zipf 0 (%)", "zipf 0.5 (%)", "zipf 0.99 (%)"});
    double previous[3] = {1e9, 1e9, 1e9};
    bool decreasing = true;
    double worst_at_100 = 0, worst_at_500 = 0;
    for (size_t count : {25, 50, 100, 200, 500, 1000}) {
        std::vector<std::string> row = {std::to_string(count)};
        for (int t = 0; t < 3; ++t) {
            double total = 0.0;
            for (int run = 0; run < kRuns; ++run) {
                auto chunks = workload::zipfChunkModel(count, thetas[t],
                                                       1000 * count + run);
                total += fac::buildFacLayout(chunks, 9, 6)
                             .overheadVsOptimal() *
                         100.0;
            }
            double mean = total / kRuns;
            row.push_back(fmt("%.2f", mean));
            decreasing &= mean < previous[t];
            previous[t] = mean;
            if (count == 100)
                worst_at_100 = std::max(worst_at_100, mean);
            if (count == 500)
                worst_at_500 = std::max(worst_at_500, mean);
        }
        table.addRow(std::move(row));
    }
    table.print();
    claims.atMost("worst_at_100_pct", worst_at_100, 5.0);
    claims.atMost("worst_at_500_pct", worst_at_500, 1.0);
    claims.fact("falls_with_chunk_count", decreasing);
}

/**
 * Figs 16b/16c: storage overhead and runtime overhead (relative to the
 * Put latency) of the oracle, padding and FAC on the four paper-scale
 * models. Paper: FAC within the 2% overhead threshold; padding tens of
 * percent; oracle runtime prohibitive. The runtime table is wall clock
 * (padding and FAC: the median of repeated calls): its claim is only
 * that FAC runs orders of magnitude faster than the budget-exhausting
 * oracle.
 */
void
fig16bc(Claims &claims)
{
    // Put-latency model for the runtime-overhead denominator: uploading
    // the object at the paper's 25 Gbps shaped NIC.
    const double nic_bw = 25e9 / 8;
    const double oracle_budget = 2.0; // bounded stand-in for Gurobi
    // Padding and FAC runtimes are the median of this many calls.
    constexpr size_t kLayoutTimingReps = 101;

    TablePrinter storage(
        {"dataset", "oracle (%)", "padding (%)", "fac (%)"});
    TablePrinter runtime(
        {"dataset", "put latency", "oracle (%)", "padding (%)", "fac (%)"});
    for (const auto &row : datasetModels(9)) {
        double put_seconds =
            static_cast<double>(workload::modelTotalBytes(row.model)) /
            nic_bw;

        fac::OracleResult oracle =
            fac::buildOracleLayout(row.model, 9, 6, oracle_budget);
        double oracle_seconds = oracle.solveSeconds;

        // The tables use the layouts of the last timed calls.
        fac::ObjectLayout padding, fac_layout;
        double padding_seconds = medianSeconds(kLayoutTimingReps, [&] {
            padding = fac::buildPaddingLayout(row.model, 9, 6, 100'000'000);
        });
        double fac_seconds = medianSeconds(kLayoutTimingReps, [&] {
            fac_layout = fac::buildFacLayout(row.model, 9, 6);
        });

        storage.addRow(
            {row.name,
             fmt("%.2f%s", oracle.layout.overheadVsOptimal() * 100.0,
                 oracle.optimal ? "" : " (timeout)"),
             fmt("%.1f", padding.overheadVsOptimal() * 100.0),
             fmt("%.2f", fac_layout.overheadVsOptimal() * 100.0)});
        runtime.addRow(
            {row.name, formatSeconds(put_seconds),
             fmt("%.2f%s", oracle_seconds / put_seconds * 100.0,
                 oracle.optimal ? "" : "+ (timeout)"),
             fmt("%.4f", padding_seconds / put_seconds * 100.0),
             fmt("%.4f", fac_seconds / put_seconds * 100.0)});

        std::string key = row.key;
        claims.atMost(key + "_fac_storage_pct",
                      fac_layout.overheadVsOptimal() * 100.0, 2.0);
        claims.atLeast(key + "_padding_storage_pct",
                       padding.overheadVsOptimal() * 100.0, 10.0);
        claims.fact(key + "_oracle_timeout", !oracle.optimal);
        claims.atLeast(key + "_oracle_over_fac_runtime",
                       oracle_seconds / fac_seconds, 1000.0);
    }
    std::printf("Fig 16b: additional storage overhead w.r.t optimal\n");
    storage.print();
    std::printf("\nFig 16c: runtime overhead relative to Put latency\n");
    runtime.print();
}

/**
 * Ablation A1: FAC vs fixed vs padding across RS(6,4), (9,6) and
 * (14,10) on the paper-scale lineitem model. Paper §6.3: RS(14,10)
 * behaves like RS(9,6) — FAC never splits and stays within its 2%
 * threshold for every code, while padding costs tens of percent.
 */
void
ablationNk(Claims &claims)
{
    auto model = workload::lineitemChunkModel(21);
    TablePrinter table({"code", "fac overhead (%)", "fac split (%)",
                        "padding overhead (%)", "fixed overhead (%)",
                        "fixed split (%)"});
    struct Config {
        size_t n, k;
    };
    for (auto [n, k] : {Config{6, 4}, Config{9, 6}, Config{14, 10}}) {
        fac::ObjectLayout fac_layout = fac::buildFacLayout(model, n, k);
        fac::ObjectLayout padding =
            fac::buildPaddingLayout(model, n, k, 100'000'000);
        fac::ObjectLayout fixed =
            fac::buildFixedLayout(model, n, k, 100'000'000);
        table.addRow(
            {fmt("RS(%zu,%zu)", n, k),
             fmt("%.2f", fac_layout.overheadVsOptimal() * 100),
             fmt("%.1f", fac_layout.splitFraction(model.size()) * 100),
             fmt("%.1f", padding.overheadVsOptimal() * 100),
             fmt("%.2f", fixed.overheadVsOptimal() * 100),
             fmt("%.1f", fixed.splitFraction(model.size()) * 100)});
        std::string code = fmt("rs%zu_%zu", n, k);
        claims.equals(code + "_fac_split_pct",
                      fac_layout.splitFraction(model.size()) * 100, 0.0);
        claims.atMost(code + "_fac_overhead_pct",
                      fac_layout.overheadVsOptimal() * 100, 2.0);
        claims.atLeast(code + "_padding_overhead_pct",
                       padding.overheadVsOptimal() * 100, 10.0);
        claims.atLeast(code + "_fixed_split_pct",
                       fixed.splitFraction(model.size()) * 100, 10.0);
    }
    table.print();
}

/**
 * Ablation A3: the storage-overhead threshold fallback (paper §4.2)
 * over objects with worsening chunk-size pathology. Realistic objects
 * keep FAC at the paper's 2% threshold; one giant chunk plus dust
 * falls back to fixed blocks at every threshold.
 */
void
ablationThreshold(Claims &claims)
{
    struct Workload {
        const char *name;
        std::vector<fac::ChunkExtent> chunks;
    };
    Workload workloads[] = {
        {"realistic (lineitem model)", workload::lineitemChunkModel(31)},
        {"mild skew (1 giant + 100 x 10MB)",
         pathologicalChunks(100, 500'000'000, 10'000'000)},
        {"pathological (1 giant + 30 x 1MB)",
         pathologicalChunks(30, 1'000'000'000, 1'000'000)},
    };

    TablePrinter table({"workload", "threshold (%)", "chosen layout",
                        "overhead (%)", "split chunks (%)"});
    size_t pathological_fixed = 0;
    for (const auto &w : workloads) {
        for (double threshold : {0.005, 0.02, 0.10, 0.50, 3.0}) {
            fac::FusionLayoutOptions options;
            options.overheadThreshold = threshold;
            options.fallbackBlockSize = 100'000'000;
            fac::ObjectLayout layout =
                fac::buildFusionLayout(w.chunks, options);
            table.addRow(
                {w.name, fmt("%.1f", threshold * 100),
                 fac::layoutKindName(layout.kind),
                 fmt("%.2f", layout.overheadVsOptimal() * 100),
                 fmt("%.1f", layout.splitFraction(w.chunks.size()) * 100)});
            bool fixed = layout.kind == fac::LayoutKind::kFixed;
            if (&w == &workloads[0] && threshold == 0.02)
                claims.fact("realistic_fac_at_2pct", !fixed);
            if (&w == &workloads[2])
                pathological_fixed += fixed ? 1 : 0;
        }
    }
    table.print();
    claims.equals("pathological_fixed_thresholds",
                  static_cast<double>(pathological_fixed), 5.0);
}

/**
 * Ablation A5: single-node repair traffic by layout x code at paper
 * scale (lineitem model). FAC's repair traffic stays within ~3% of
 * fixed blocks, and LRC(6,2,2) roughly halves it under either layout:
 * the code choice is orthogonal to FAC (§7).
 */
void
ablationRecovery(Claims &claims)
{
    auto model = workload::lineitemChunkModel(77);
    uint64_t object_bytes = workload::modelTotalBytes(model);

    fac::ObjectLayout fac_layout = fac::buildFacLayout(model, 9, 6);
    fac::ObjectLayout fixed_layout =
        fac::buildFixedLayout(model, 9, 6, 100'000'000);
    // LRC(6,2,2) has n = 10 blocks per stripe; rebuild the FAC layout
    // with matching k = 6 (stripe shapes are identical; only parity
    // count differs).
    auto lrc = ec::LrcCode::create(6, 2, 2).value();

    TablePrinter table({"layout + code", "stripes", "repair reads/block",
                        "repair traffic", "vs object size"});
    struct Row {
        const char *name;
        const fac::ObjectLayout *layout;
        size_t n;
        size_t reads;
    };
    Row rows[] = {
        {"fixed + RS(9,6)", &fixed_layout, 9, 6},
        {"FAC + RS(9,6)", &fac_layout, 9, 6},
        {"fixed + LRC(6,2,2)", &fixed_layout, 10, lrc.repairReadCount(0)},
        {"FAC + LRC(6,2,2)", &fac_layout, 10, lrc.repairReadCount(0)},
    };
    double traffic[4];
    for (size_t i = 0; i < 4; ++i) {
        const Row &row = rows[i];
        uint64_t bytes = repairTraffic(*row.layout, row.n, row.reads);
        traffic[i] = static_cast<double>(bytes);
        table.addRow({row.name, std::to_string(row.layout->stripes.size()),
                      std::to_string(row.reads), formatBytes(bytes),
                      fmt("%.2fx", traffic[i] /
                                       static_cast<double>(object_bytes))});
    }
    table.print();
    claims.atMost("fac_over_fixed_rs_traffic", traffic[1] / traffic[0],
                  1.05);
    claims.atMost("lrc_over_rs_fixed_traffic", traffic[2] / traffic[0],
                  0.6);
    claims.atMost("lrc_over_rs_fac_traffic", traffic[3] / traffic[1], 0.6);

    std::printf("\nstripe block-size distribution (drives repair reads):\n");
    auto describe = [&](const char *name, const fac::ObjectLayout &layout) {
        SampleHistogram sizes;
        for (const auto &stripe : layout.stripes)
            sizes.add(static_cast<double>(stripe.blockSize()));
        std::printf("  %-6s %3zu stripes, block size p50 %s, max %s\n",
                    name, layout.stripes.size(),
                    formatBytes(static_cast<uint64_t>(sizes.p50())).c_str(),
                    formatBytes(static_cast<uint64_t>(sizes.max())).c_str());
    };
    describe("fixed", fixed_layout);
    describe("FAC", fac_layout);
}

/**
 * Deployment study: §6.3 argues Fusion adds little storage overhead in
 * production because large multi-chunk objects dominate capacity. 200
 * objects with a trace-like lognormal size distribution go through
 * Fusion's threshold policy, fixed blocks and padding. The
 * capacity-dominating >10 GB class keeps FAC within its 2% threshold,
 * and the population beats fixed blocks on overhead and splits.
 */
void
deploymentStudy(Claims &claims)
{
    const int kObjects = 200;
    Rng rng(404);

    struct Totals {
        size_t objects = 0;
        uint64_t data = 0;
        uint64_t extra = 0; // padding + parity
        size_t chunks = 0;
        size_t split = 0;
        size_t fallbacks = 0;
    };
    // Size classes: <1 GB, 1-10 GB, >10 GB (the cited trace: >60% of
    // objects exceed 1 GB, and large objects dominate capacity).
    const char *kClassNames[] = {"< 1 GB", "1-10 GB", "> 10 GB"};
    Totals fusion_by_class[3], fixed_totals, padding_totals;

    for (int i = 0; i < kObjects; ++i) {
        auto chunks = traceObjectChunks(rng);
        uint64_t object_bytes = workload::modelTotalBytes(chunks);
        size_t size_class = object_bytes < 1'000'000'000    ? 0
                            : object_bytes < 10'000'000'000 ? 1
                                                            : 2;

        fac::FusionLayoutOptions fusion_options; // 2% threshold
        fac::ObjectLayout fusion_layout =
            fac::buildFusionLayout(chunks, fusion_options);
        fac::ObjectLayout fixed =
            fac::buildFixedLayout(chunks, 9, 6, 100'000'000);
        fac::ObjectLayout padding =
            fac::buildPaddingLayout(chunks, 9, 6, 100'000'000);

        auto add = [&](Totals &t, const fac::ObjectLayout &layout) {
            ++t.objects;
            t.data += layout.dataBytes;
            t.extra += layout.paddingBytes + layout.parityBytes();
            t.chunks += chunks.size();
            auto spans = layout.chunkSpans(chunks.size());
            for (uint32_t s : spans)
                t.split += s > 1 ? 1 : 0;
            t.fallbacks += layout.kind == fac::LayoutKind::kFixed ? 1 : 0;
        };
        add(fusion_by_class[size_class], fusion_layout);
        add(fixed_totals, fixed);
        add(padding_totals, padding);
    }

    auto overhead_pct = [](const Totals &t) {
        double optimal = static_cast<double>(t.data) * 0.5;
        return (static_cast<double>(t.extra) - optimal) / optimal * 100.0;
    };
    auto split_pct = [](const Totals &t) {
        return 100.0 * t.split / t.chunks;
    };

    TablePrinter table({"population slice", "objects", "data",
                        "overhead vs optimal (%)", "chunks split (%)",
                        "FAC fallbacks"});
    Totals fusion_all;
    for (int c = 0; c < 3; ++c) {
        const Totals &t = fusion_by_class[c];
        table.addRow({std::string("fusion, ") + kClassNames[c],
                      std::to_string(t.objects), formatBytes(t.data),
                      fmt("%.2f", overhead_pct(t)),
                      fmt("%.1f", split_pct(t)),
                      std::to_string(t.fallbacks)});
        fusion_all.objects += t.objects;
        fusion_all.data += t.data;
        fusion_all.extra += t.extra;
        fusion_all.chunks += t.chunks;
        fusion_all.split += t.split;
        fusion_all.fallbacks += t.fallbacks;
    }
    table.addRow({"fusion, all", std::to_string(fusion_all.objects),
                  formatBytes(fusion_all.data),
                  fmt("%.2f", overhead_pct(fusion_all)),
                  fmt("%.1f", split_pct(fusion_all)),
                  std::to_string(fusion_all.fallbacks)});
    for (const auto &[name, t] :
         {std::pair<const char *, const Totals &>{"fixed 100MB, all",
                                                   fixed_totals},
          {"padding 100MB, all", padding_totals}})
        table.addRow({name, std::to_string(t.objects), formatBytes(t.data),
                      fmt("%.2f", overhead_pct(t)),
                      fmt("%.1f", split_pct(t)), "-"});
    table.print();

    claims.atMost("large_overhead_pct", overhead_pct(fusion_by_class[2]),
                  2.0);
    claims.fact("overhead_below_fixed",
                overhead_pct(fusion_all) < overhead_pct(fixed_totals));
    claims.fact("splits_below_fixed",
                split_pct(fusion_all) < split_pct(fixed_totals));
    claims.fact("overhead_below_padding",
                overhead_pct(fusion_all) < overhead_pct(padding_totals));
}

} // namespace fusion::paper
