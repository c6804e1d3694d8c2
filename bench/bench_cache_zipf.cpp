/**
 * @file
 * Coordinator hot-chunk cache benchmark. Sweeps Zipf skew (theta) over
 * a population of lineitem objects x coordinator cache size (as a
 * fraction of the fetch-verdict working set) and compares, per cell,
 * the cache-enabled store against an identical cache-off rig:
 *
 *   - storage wire bytes (the four wire.filter.* / wire.projection.*
 *     counters — client request/reply bytes are byte-identical across
 *     cells by construction, since every cell answers the same query
 *     stream with the same results, so they are excluded),
 *   - p50/p99 query latency,
 *   - cache hit rate and evictions.
 *
 * The query template is calibrated to a fetch verdict (selectivity x
 * compressibility >= 1), so without a cache every query re-moves the
 * chunk bytes over the wire; with a cache, resident chunks plan as
 * "cached-local" and pay no storage traffic. Skew concentrates the
 * reference stream on few objects, so even a small cache bends the
 * Cost Equation for most queries — the effect this bench quantifies.
 *
 * Everything runs in simulation, so every number is deterministic and
 * the JSON output can be gated byte-for-byte-stable in CI. Writes
 * BENCH_cache_zipf.json and, with --check, exits nonzero when any
 * baseline metric is missing or regressed more than 5% vs the
 * checked-in baseline or when the high-skew/10%-cache cell misses the
 * acceptance bound (>= 30% wire-byte reduction and a lower p99 than
 * cache-off).
 *
 * Usage:
 *   bench_cache_zipf [--quick] [--out=PATH] [--check=BASELINE]
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/gate.h"
#include "benchutil/harness.h"
#include "common/random.h"
#include "obs/timeseries.h"
#include "sim/cluster.h"
#include "store/fusion_store.h"
#include "workload/lineitem.h"
#include "workload/queries.h"

using namespace fusion;

namespace {

/** Every gated number is simulated, so the gate allows 5% drift. */
constexpr double kTolerance = 0.05;

struct Rig {
    std::unique_ptr<sim::Cluster> cluster;
    std::unique_ptr<store::FusionStore> store;
    std::vector<std::string> objects;
    std::vector<query::Query> templates; // one fetch-verdict query/object
    uint64_t workingSetBytes = 0;        // stored quantity chunks, summed
};

/**
 * Builds `num_objects` lineitem objects (distinct seeds, identical
 * schema) and one calibrated fetch-verdict query per object. The
 * working set is the stored size of every l_quantity chunk across the
 * population — the byte population the cache competes over, since the
 * query template touches only that column.
 */
Rig
makeRig(size_t num_objects, size_t rows, uint64_t cache_bytes)
{
    Rig rig;
    sim::ClusterConfig config;
    config.numNodes = 9;
    rig.cluster = std::make_unique<sim::Cluster>(config);
    store::StoreOptions options;
    options.cacheBytes = cache_bytes;
    rig.store =
        std::make_unique<store::FusionStore>(*rig.cluster, options);
    if (benchutil::obsOptions().enabled())
        rig.store->obs().tracer.setEnabled(true);

    const format::Schema schema = workload::lineitemSchema();
    const std::string column = schema.column(workload::kQuantity).name;
    for (size_t i = 0; i < num_objects; ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "lineitem_%02zu", i);
        uint64_t seed = 7 + i;
        auto file = workload::buildLineitemFile(rows, seed);
        FUSION_CHECK(file.isOk());
        FUSION_CHECK(rig.store->put(name, file.value().bytes).isOk());
        format::Table table = workload::makeLineitemTable(rows, seed);
        // Selectivity 0.8 on the narrow-domain quantity column keeps
        // selectivity x compressibility >= 1: a guaranteed fetch
        // verdict, i.e. cacheable wire traffic.
        rig.templates.push_back(workload::microbenchQuery(
            name, column, table.column(workload::kQuantity), 0.8));
        rig.objects.emplace_back(name);

        auto manifest = rig.store->manifest(name);
        FUSION_CHECK(manifest.isOk());
        const format::FileMetadata &meta = manifest.value()->fileMeta;
        for (size_t rg = 0; rg < meta.numRowGroups(); ++rg)
            rig.workingSetBytes +=
                meta.chunk(rg, workload::kQuantity).storedSize;
    }
    return rig;
}

/** Coordinator-to-storage traffic only; see the file comment for why
 *  client wire bytes are excluded. */
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
    double hitRate = 0.0;
    uint64_t evictions = 0;
    /** Decayed-heat top chunks, captured before the rig dies. */
    std::vector<obs::ChunkHeatTable::HotChunk> hottest;
};

/**
 * Runs `queries` closed-loop requests against a fresh rig whose object
 * choice per request follows the pre-drawn Zipf rank trace (identical
 * across every cache size at a given theta, so cells differ only in
 * cache capacity).
 */
CellResult
runCell(size_t num_objects, size_t rows, uint64_t cache_bytes,
        const std::vector<size_t> &trace)
{
    Rig rig = makeRig(num_objects, rows, cache_bytes);
    benchutil::RunConfig config;
    config.clients = 8;
    config.totalQueries = trace.size();
    benchutil::RunStats stats = benchutil::runClosedLoop(
        *rig.store, config,
        [&](size_t i) { return rig.templates[trace[i]]; });

    CellResult cell;
    cell.wireBytes = storageWireBytes(*rig.store);
    cell.p50 = stats.latency.p50();
    cell.p99 = stats.latency.p99();
    const cache::ChunkCache &cache = rig.store->chunkCache();
    uint64_t looked = cache.hits() + cache.misses();
    cell.hitRate =
        looked == 0 ? 0.0
                    : static_cast<double>(cache.hits()) /
                          static_cast<double>(looked);
    cell.evictions = cache.evictions();
    cell.hottest = rig.store->obs().telemetry.heat().hottest(
        rig.cluster->engine().now(), 8);
    return cell;
}

/** Renders the decayed-heat leaderboard the telemetry layer keeps per
 *  (object, chunk) — the skew the cache exploits, as the heat table
 *  sees it. */
void
printHeatReport(const CellResult &cell, double theta, double frac)
{
    std::printf("hottest chunks (decayed heat, theta=%.2f cache=%.0f%% "
                "of working set):\n",
                theta, frac * 100.0);
    benchutil::TablePrinter heat({"object", "chunk", "heat"});
    for (const auto &hot : cell.hottest)
        heat.addRow({hot.object, benchutil::fmt("%u", hot.chunk),
                     benchutil::fmt("%.2f", hot.heat)});
    heat.print();
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::obsInit(argc, argv);
    benchutil::GateFlags flags;
    flags.out = "BENCH_cache_zipf.json";
    if (!benchutil::parseGateFlags(argc, argv, flags))
        return 2;
    const bool quick = flags.quick;

    benchutil::banner("cache-zipf",
                      "Coordinator hot-chunk cache under Zipf skew");

    const size_t num_objects = 32;
    const size_t rows = quick ? 1000 : 4000;
    const size_t queries = quick ? 400 : 1500;
    const double thetas[] = {0.0, 0.8, 0.99, 1.2};
    const double cache_fracs[] = {0.05, 0.10, 0.25};

    // The working set depends only on (num_objects, rows), not on the
    // cache; size the fractional caches off a throwaway probe rig.
    const uint64_t working_set =
        makeRig(num_objects, rows, 0).workingSetBytes;
    std::printf("objects=%zu rows=%zu queries=%zu working set=%.2f MB\n\n",
                num_objects, rows, queries,
                static_cast<double>(working_set) / 1e6);

    benchutil::Metrics metrics;
    benchutil::TablePrinter table(
        {"theta", "cache %ws", "off wire MB", "on wire MB",
         "wire saved %", "off p50 ms", "on p50 ms", "off p99 ms",
         "on p99 ms", "hit rate", "evictions"});

    int acceptance_failures = 0;
    CellResult heat_cell; // the acceptance cell's heat leaderboard
    for (double theta : thetas) {
        // One rank trace per theta, shared by every cache size so the
        // cells see byte-identical reference streams.
        Rng rng(42);
        ZipfSampler zipf(num_objects, theta);
        std::vector<size_t> trace(queries);
        for (size_t i = 0; i < queries; ++i)
            trace[i] = zipf.sample(rng) - 1; // ranks are 1-based

        CellResult off = runCell(num_objects, rows, 0, trace);
        for (double frac : cache_fracs) {
            uint64_t cache_bytes = static_cast<uint64_t>(
                frac * static_cast<double>(working_set));
            CellResult on =
                runCell(num_objects, rows, cache_bytes, trace);

            double wire_ratio = static_cast<double>(off.wireBytes) /
                                static_cast<double>(on.wireBytes);
            double p99_ratio = off.p99 / on.p99;

            char cell[32];
            std::snprintf(cell, sizeof(cell), "t%03d_c%02d",
                          static_cast<int>(theta * 100.0 + 0.5),
                          static_cast<int>(frac * 100.0 + 0.5));
            metrics.emplace_back(std::string(cell) + "_wire_ratio",
                                 wire_ratio);
            metrics.emplace_back(std::string(cell) + "_p99_ratio",
                                 p99_ratio);
            metrics.emplace_back(std::string(cell) + "_hit_rate",
                                 on.hitRate);

            table.addRow(
                {benchutil::fmt("%.2f", theta),
                 benchutil::fmt("%.0f", frac * 100.0),
                 benchutil::fmt("%.2f",
                                static_cast<double>(off.wireBytes) / 1e6),
                 benchutil::fmt("%.2f",
                                static_cast<double>(on.wireBytes) / 1e6),
                 benchutil::fmt("%.1f", 100.0 * (1.0 - 1.0 / wire_ratio)),
                 benchutil::fmt("%.2f", off.p50 * 1e3),
                 benchutil::fmt("%.2f", on.p50 * 1e3),
                 benchutil::fmt("%.2f", off.p99 * 1e3),
                 benchutil::fmt("%.2f", on.p99 * 1e3),
                 benchutil::fmt("%.2f", on.hitRate),
                 benchutil::fmt("%llu", static_cast<unsigned long long>(
                                            on.evictions))});

            if (theta == 0.99 && frac == 0.10)
                heat_cell = on;

            // Acceptance: high skew with a cache a tenth of the working
            // set must cut wire bytes >= 30% and lower the tail.
            if (theta == 0.99 && frac == 0.10 &&
                (static_cast<double>(on.wireBytes) >
                     0.70 * static_cast<double>(off.wireBytes) ||
                 on.p99 >= off.p99)) {
                std::fprintf(
                    stderr,
                    "ACCEPTANCE FAIL %s: wire %llu vs %llu, "
                    "p99 %.4f ms vs %.4f ms\n",
                    cell, static_cast<unsigned long long>(on.wireBytes),
                    static_cast<unsigned long long>(off.wireBytes),
                    on.p99 * 1e3, off.p99 * 1e3);
                ++acceptance_failures;
            }
        }
    }
    table.print();

    if (!heat_cell.hottest.empty()) {
        std::printf("\n");
        printHeatReport(heat_cell, 0.99, 0.10);
    }

    if (benchutil::writeAndCheck(flags, "cache_zipf",
                                 {{"quick", quick ? "true" : "false"}},
                                 metrics, kTolerance) > 0)
        return 1;
    if (acceptance_failures > 0) {
        std::fprintf(stderr,
                     "%d cell(s) failed the cache acceptance bound\n",
                     acceptance_failures);
        return 1;
    }
    return 0;
}
