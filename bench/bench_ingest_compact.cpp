/**
 * @file
 * Object-lifecycle benchmark: a lineitem object ingests a steady
 * append stream while closed-loop clients query it, with background
 * compaction on vs off (store/delta_lifecycle.h). The query mix is
 * skewed to the quantity/extendedprice columns, so the compaction-on rig's
 * heat-driven re-stripe co-locates those chunks in leading stripes.
 *
 * Per cell the bench reports storage wire bytes (wire.filter.* +
 * wire.projection.* — the delta-merge fetches land in the projection
 * family), p50/p99 query latency, delta segments scanned, and the
 * compaction counters. With compaction off every query re-ships every
 * live delta segment off a replica; with compaction on the log stays
 * bounded and folded rows are served from the FAC base — the gap this
 * bench quantifies.
 *
 * Everything runs in simulation, so every number is deterministic and
 * the JSON output can be gated byte-for-byte-stable in CI. Writes
 * BENCH_ingest_compact.json and, with --check, exits nonzero when any
 * baseline metric is missing or regressed more than 5% vs the
 * checked-in baseline,
 * when compaction-on fails to beat compaction-off on both p99 latency
 * and storage wire bytes, or when the re-striped layout shows no
 * hot-colocated chunk in EXPLAIN.
 *
 * Usage:
 *   bench_ingest_compact [--quick] [--out=PATH] [--check=BASELINE]
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/gate.h"
#include "benchutil/harness.h"
#include "format/writer.h"
#include "query/parser.h"
#include "sim/cluster.h"
#include "store/fusion_store.h"
#include "workload/lineitem.h"

using namespace fusion;

namespace {

/** Every gated number is simulated, so the gate allows 5% drift. */
constexpr double kTolerance = 0.05;

constexpr const char *kHotSql =
    "SELECT l_extendedprice FROM lineitem WHERE l_quantity > 30";
constexpr const char *kColdSql =
    "SELECT l_shipmode FROM lineitem WHERE l_discount < 0.03";

struct Rig {
    std::unique_ptr<sim::Cluster> cluster;
    std::unique_ptr<store::FusionStore> store;
};

Rig
makeRig(bool compaction_enabled)
{
    Rig rig;
    sim::ClusterConfig config;
    config.numNodes = 9;
    rig.cluster = std::make_unique<sim::Cluster>(config);
    store::StoreOptions options;
    options.compaction.enabled = compaction_enabled;
    // Fold every four appended batches: several generations roll over
    // within the run, so both the fold path and the re-stripe decision
    // are exercised repeatedly.
    options.compaction.maxDeltaSegments = 4;
    rig.store =
        std::make_unique<store::FusionStore>(*rig.cluster, options);
    if (benchutil::obsOptions().enabled())
        rig.store->obs().tracer.setEnabled(true);
    return rig;
}

uint64_t
storageWireBytes(store::ObjectStore &store)
{
    obs::MetricsRegistry &reg = store.obs().metrics;
    return reg.counter("wire.filter.request_bytes").value() +
           reg.counter("wire.filter.reply_bytes").value() +
           reg.counter("wire.projection.request_bytes").value() +
           reg.counter("wire.projection.reply_bytes").value();
}

struct CellResult {
    uint64_t wireBytes = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    uint64_t deltaScans = 0;   // append.delta_scans (segment merges)
    uint64_t compactionRuns = 0;
    uint64_t foldedSegments = 0;
    uint64_t hotColocated = 0; // chunks the re-stripe co-located
    uint64_t generation = 0;   // final base generation
    /** hot-colocated markers in a post-run EXPLAIN of the hot query. */
    size_t explainColocated = 0;
};

/**
 * One ingest-while-query cell: `appends` pre-built batches arrive on a
 * fixed simulated-time schedule while the closed-loop clients drain
 * `queries` requests (4 hot : 1 cold). Identical schedules and
 * identical rows on both cells — only the compaction policy differs.
 */
CellResult
runCell(bool compaction_enabled, size_t base_rows, size_t appends,
        size_t batch_rows, size_t queries)
{
    Rig rig = makeRig(compaction_enabled);
    auto base = workload::buildLineitemFile(base_rows, 7);
    FUSION_CHECK(base.isOk());
    FUSION_CHECK(rig.store->put("lineitem", base.value().bytes).isOk());

    // The append stream: batch i lands at (i+1) x 4 ms, spanning the
    // whole query makespan.
    sim::SimEngine &engine = rig.cluster->engine();
    auto store = rig.store.get();
    for (size_t i = 0; i < appends; ++i) {
        format::Table batch =
            workload::makeLineitemTable(batch_rows, 100 + i);
        engine.scheduleAt(
            0.004 * static_cast<double>(i + 1),
            [store, batch = std::move(batch)]() {
                store->appendAsync("lineitem", batch,
                                   [](Result<store::AppendResult> r) {
                                       FUSION_CHECK_MSG(
                                           r.isOk(),
                                           r.status().toString());
                                   });
            });
    }

    auto hot = query::parseQuery(kHotSql);
    auto cold = query::parseQuery(kColdSql);
    FUSION_CHECK(hot.isOk() && cold.isOk());
    benchutil::RunConfig config;
    config.clients = 4;
    config.totalQueries = queries;
    benchutil::RunStats stats = benchutil::runClosedLoop(
        *rig.store, config, [&](size_t i) {
            return i % 5 == 4 ? cold.value() : hot.value();
        });

    CellResult cell;
    cell.wireBytes = storageWireBytes(*rig.store);
    cell.p50 = stats.latency.p50();
    cell.p99 = stats.latency.p99();
    obs::MetricsRegistry &reg = rig.store->obs().metrics;
    cell.deltaScans = reg.counter("append.delta_scans").value();
    cell.compactionRuns = reg.counter("compaction.runs").value();
    cell.foldedSegments = reg.counter("compaction.folded_segments").value();
    cell.hotColocated =
        reg.counter("compaction.hot_colocated_chunks").value();
    auto manifest = rig.store->manifest("lineitem");
    FUSION_CHECK(manifest.isOk());
    cell.generation = manifest.value()->generation;

    // Is the co-location visible to the planner? One EXPLAIN probe of
    // the hot query against the final (re-striped) layout.
    rig.store->obs().explainEnabled = true;
    auto probe = rig.store->querySql(kHotSql);
    FUSION_CHECK_MSG(probe.isOk(), probe.status().toString());
    FUSION_CHECK(probe.value().explain != nullptr);
    for (const auto &chunk : probe.value().explain->projections)
        if (chunk.reason.find("hot-colocated") != std::string::npos)
            ++cell.explainColocated;
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::obsInit(argc, argv);
    benchutil::GateFlags flags;
    flags.out = "BENCH_ingest_compact.json";
    if (!benchutil::parseGateFlags(argc, argv, flags))
        return 2;
    const bool quick = flags.quick;

    benchutil::banner("ingest-compact",
                      "Append stream vs queries, compaction on/off");

    const size_t base_rows = quick ? 2000 : 4000;
    const size_t appends = quick ? 16 : 32;
    const size_t batch_rows = quick ? 150 : 250;
    const size_t queries = quick ? 300 : 800;
    std::printf("base rows=%zu appends=%zu x %zu rows queries=%zu\n\n",
                base_rows, appends, batch_rows, queries);

    CellResult off =
        runCell(false, base_rows, appends, batch_rows, queries);
    CellResult on = runCell(true, base_rows, appends, batch_rows, queries);

    benchutil::TablePrinter table(
        {"compaction", "wire MB", "p50 ms", "p99 ms", "delta scans",
         "folds", "folded segs", "hot chunks", "final gen"});
    for (const auto &[label, cell] :
         {std::pair<const char *, const CellResult &>{"off", off},
          {"on", on}})
        table.addRow(
            {label,
             benchutil::fmt("%.2f",
                            static_cast<double>(cell.wireBytes) / 1e6),
             benchutil::fmt("%.3f", cell.p50 * 1e3),
             benchutil::fmt("%.3f", cell.p99 * 1e3),
             benchutil::fmt("%llu", static_cast<unsigned long long>(
                                        cell.deltaScans)),
             benchutil::fmt("%llu", static_cast<unsigned long long>(
                                        cell.compactionRuns)),
             benchutil::fmt("%llu", static_cast<unsigned long long>(
                                        cell.foldedSegments)),
             benchutil::fmt("%llu", static_cast<unsigned long long>(
                                        cell.hotColocated)),
             benchutil::fmt("%llu", static_cast<unsigned long long>(
                                        cell.generation))});
    table.print();

    double wire_ratio = static_cast<double>(off.wireBytes) /
                        static_cast<double>(on.wireBytes);
    double p99_ratio = off.p99 / on.p99;
    double scan_ratio = static_cast<double>(off.deltaScans) /
                        static_cast<double>(on.deltaScans);
    std::printf("\ncompaction-on: %.2fx fewer wire bytes, %.2fx lower "
                "p99, %.1fx fewer delta scans, %zu hot-colocated "
                "chunk(s) in EXPLAIN\n",
                wire_ratio, p99_ratio, scan_ratio, on.explainColocated);

    benchutil::Metrics metrics;
    metrics.emplace_back("wire_ratio", wire_ratio);
    metrics.emplace_back("p99_ratio", p99_ratio);
    metrics.emplace_back("delta_scan_ratio", scan_ratio);
    metrics.emplace_back("compaction_runs",
                         static_cast<double>(on.compactionRuns));
    metrics.emplace_back("hot_colocated_chunks",
                         static_cast<double>(on.hotColocated));
    int failures =
        benchutil::writeAndCheck(flags, "ingest_compact",
                                 {{"quick", quick ? "true" : "false"}},
                                 metrics, kTolerance);
    // Acceptance: compaction must pay for itself on this workload —
    // lower tail latency AND fewer storage wire bytes than letting the
    // log grow, with the heat-driven re-stripe visible to the planner.
    if (on.p99 >= off.p99 || on.wireBytes >= off.wireBytes) {
        std::fprintf(stderr,
                     "ACCEPTANCE FAIL: compaction-on p99 %.4f ms / wire "
                     "%llu must beat off p99 %.4f ms / wire %llu\n",
                     on.p99 * 1e3,
                     static_cast<unsigned long long>(on.wireBytes),
                     off.p99 * 1e3,
                     static_cast<unsigned long long>(off.wireBytes));
        ++failures;
    }
    if (on.compactionRuns == 0 || on.generation == 0) {
        std::fprintf(stderr,
                     "ACCEPTANCE FAIL: no fold landed (runs=%llu "
                     "generation=%llu)\n",
                     static_cast<unsigned long long>(on.compactionRuns),
                     static_cast<unsigned long long>(on.generation));
        ++failures;
    }
    if (on.explainColocated == 0) {
        std::fprintf(stderr, "ACCEPTANCE FAIL: no hot-colocated chunk "
                             "in the post-run EXPLAIN\n");
        ++failures;
    }
    if (off.compactionRuns != 0 || off.generation != 0) {
        std::fprintf(stderr, "ACCEPTANCE FAIL: compaction-off rig "
                             "folded anyway\n");
        ++failures;
    }

    if (failures > 0) {
        std::fprintf(stderr, "%d ingest-compact check(s) failed\n",
                     failures);
        return 1;
    }
    std::printf("all ingest-compact checks passed\n");
    return 0;
}
