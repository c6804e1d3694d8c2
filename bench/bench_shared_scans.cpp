/**
 * @file
 * Shared-scan scheduler benchmark, two modes.
 *
 * Closed-loop (default): sweeps concurrent client count x batch
 * overlap factor and compares, per cell, the shared-scan scheduler
 * (one deduplicated batch) against serial isolated execution of the
 * same queries on an identical rig:
 *
 *   - total wire bytes (all six wire.* counters),
 *   - mean per-query latency (serial latency is cumulative from batch
 *     admission, since a lone store serves queries one at a time),
 *   - batch makespan and task dedup ratio.
 *
 * Open-loop (--open-loop): the headline rig for the continuous
 * admission window. A Poisson client process submits queries through
 * the async QueryHandle API at `mult` x the closed-batch arrival rate
 * (closed rate = reference batch size / its makespan), sweeping rate
 * multiplier x overlap. Per cell it reports the sustained (peak and
 * mean) in-flight query count, window dedup rate vs the closed batch,
 * wire bytes vs serial, and p50/p99/mean sojourn against an analytic
 * serial baseline (c_i = max(arrival_i, c_{i-1}) + isolated service),
 * and enforces the admission-window acceptance bound: at 8x the
 * closed-batch rate the window must sustain >= 1000 in-flight
 * queries, hold its dedup rate within 10% of the closed batch, and
 * deliver a lower mean sojourn than serial execution.
 *
 * Everything runs in simulation, so every number is deterministic and
 * the JSON output can be gated byte-for-byte-stable in CI. Writes
 * BENCH_shared_scans.json (or BENCH_shared_scans_openloop.json) and,
 * with --check, exits nonzero when any baseline metric is missing or
 * regressed more than 5% vs the checked-in baseline or when an
 * acceptance bound fails.
 *
 * Usage:
 *   bench_shared_scans [--quick] [--open-loop] [--out=PATH]
 *                      [--check=BASELINE]
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/gate.h"
#include "benchutil/harness.h"
#include "common/random.h"
#include "sched/scheduler.h"
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
    format::Table table;
};

Rig
makeRig(size_t rows)
{
    Rig rig;
    sim::ClusterConfig config;
    config.numNodes = 9;
    rig.cluster = std::make_unique<sim::Cluster>(config);
    rig.store = std::make_unique<store::FusionStore>(
        *rig.cluster, store::StoreOptions{});
    if (benchutil::obsOptions().enabled())
        rig.store->obs().tracer.setEnabled(true);
    auto file = workload::buildLineitemFile(rows, 7);
    FUSION_CHECK(file.isOk());
    rig.table = workload::makeLineitemTable(rows, 7);
    FUSION_CHECK(rig.store->put("lineitem", file.value().bytes).isOk());
    return rig;
}

/**
 * First ceil(overlap * clients) clients issue one shared template
 * query; the rest are pairwise-distinct (column and selectivity vary
 * per client), so overlap 0 means no cross-query sharing at all.
 */
std::vector<query::Query>
overlappingBatch(const Rig &rig, size_t clients, double overlap)
{
    std::vector<query::Query> batch;
    size_t shared =
        static_cast<size_t>(overlap * static_cast<double>(clients) + 0.5);
    const format::Schema schema = workload::lineitemSchema();
    auto make = [&](size_t col, double sel) {
        return workload::microbenchQuery("lineitem",
                                         schema.column(col).name,
                                         rig.table.column(col), sel);
    };
    query::Query tmpl = make(workload::kOrderKey, 0.02);
    const size_t cols[] = {workload::kPartKey, workload::kSuppKey,
                           workload::kQuantity, workload::kExtendedPrice};
    for (size_t c = 0; c < clients; ++c) {
        if (c < shared)
            batch.push_back(tmpl);
        else
            batch.push_back(make(cols[c % std::size(cols)],
                                 0.01 + 0.002 * static_cast<double>(c)));
    }
    return batch;
}

uint64_t
totalWireBytes(store::ObjectStore &store)
{
    obs::MetricsRegistry &reg = store.obs().metrics;
    return reg.counter("wire.filter.request_bytes").value() +
           reg.counter("wire.filter.reply_bytes").value() +
           reg.counter("wire.projection.request_bytes").value() +
           reg.counter("wire.projection.reply_bytes").value() +
           reg.counter("wire.client.request_bytes").value() +
           reg.counter("wire.client.reply_bytes").value();
}

// ---- open-loop (Poisson client) mode -------------------------------

/**
 * Finite query-template pool for the open-loop arrival stream:
 * pool[0] is the shared template every "overlapping" arrival issues,
 * pool[1..4] are the distinct variants. A finite pool models hot
 * dashboard templates: even the non-shared arrivals repeat, which is
 * what gives the admission window something to join mid-flight.
 */
std::vector<query::Query>
templatePool(const Rig &rig)
{
    const format::Schema schema = workload::lineitemSchema();
    auto make = [&](size_t col, double sel) {
        return workload::microbenchQuery("lineitem",
                                         schema.column(col).name,
                                         rig.table.column(col), sel);
    };
    std::vector<query::Query> pool;
    pool.push_back(make(workload::kOrderKey, 0.02));
    const size_t cols[] = {workload::kPartKey, workload::kSuppKey,
                           workload::kQuantity, workload::kExtendedPrice};
    for (size_t k = 0; k < std::size(cols); ++k)
        pool.push_back(make(cols[k], 0.01 + 0.01 * double(k)));
    return pool;
}

/** Which pool template arrival i draws: Bresenham-interleaved so an
 *  `overlap` fraction of arrivals issue the shared template pool[0]
 *  and the rest cycle the distinct variants. */
size_t
poolIndexFor(size_t i, double overlap)
{
    double a = double(i) * overlap;
    double b = double(i + 1) * overlap;
    if (std::floor(b) > std::floor(a))
        return 0;
    return 1 + i % 4;
}

struct OpenLoopCell {
    size_t arrivals = 0;
    size_t peakInflight = 0;
    double meanInflight = 0.0;
    double dedupClosed = 0.0; // closed reference batch dedupRate()
    double dedupOpen = 0.0;   // open-loop window dedupRate()
    double openWireMb = 0.0;
    double wireRatio = 0.0;   // analytic serial wire / open wire
    double p50Ms = 0.0, p99Ms = 0.0, meanMs = 0.0;
    double serialMeanMs = 0.0; // analytic serial mean sojourn
    double sojournGain = 0.0;  // serial mean / open mean
};

/**
 * One open-loop cell: closed reference batch fixes the base arrival
 * rate (ref queries / makespan) and the dedup yardstick, a solo rig
 * measures isolated per-template service times for the analytic
 * serial baseline, then `n` Poisson arrivals at `mult` x the base
 * rate stream through scheduler.submit() as engine events.
 */
OpenLoopCell
runOpenLoopCell(size_t rows, size_t n, size_t mult, double overlap)
{
    OpenLoopCell cell;
    cell.arrivals = n;

    // Closed-batch reference: a barrier batch of kRefBatch queries
    // drawn from the same template mix. Its steady throughput —
    // kRefBatch / makespan, the rate a closed-loop driver sustains by
    // admitting such batches back to back — is the base arrival rate
    // the multiplier scales, and its dedup rate is the yardstick the
    // open-loop window is held to (a barrier sees every overlap; the
    // window only sees overlaps that land before issue).
    const size_t kRefBatch = 128;
    double closed_rate;
    {
        Rig rig = makeRig(rows);
        auto pool = templatePool(rig);
        std::vector<query::Query> batch;
        for (size_t i = 0; i < kRefBatch; ++i)
            batch.push_back(pool[poolIndexFor(i, overlap)]);
        sched::SharedScanScheduler scheduler(*rig.store);
        auto outcomes = scheduler.runBatch(batch);
        FUSION_CHECK(outcomes.isOk());
        const sched::BatchStats &stats = scheduler.lastBatchStats();
        cell.dedupClosed = stats.dedupRate();
        FUSION_CHECK(stats.makespanSeconds > 0.0);
        closed_rate = double(kRefBatch) / stats.makespanSeconds;
    }

    // Isolated service time and wire bytes per template, for the
    // analytic serial baseline.
    double service[8] = {0};
    uint64_t wire[8] = {0};
    {
        Rig rig = makeRig(rows);
        auto pool = templatePool(rig);
        for (size_t k = 0; k < pool.size(); ++k) {
            uint64_t before = totalWireBytes(*rig.store);
            auto outcome = rig.store->query(pool[k]);
            FUSION_CHECK(outcome.isOk());
            service[k] = outcome.value().latencySeconds;
            wire[k] = totalWireBytes(*rig.store) - before;
        }
    }

    // Poisson arrivals at mult x the closed-batch rate, submitted from
    // inside engine events (submit never advances simulated time).
    const double lambda = double(mult) * closed_rate;
    Rng rng(0xf05500ULL + mult * 131 + uint64_t(overlap * 100.0));
    std::vector<double> arrival(n);
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
        t += -std::log(1.0 - rng.uniform()) / lambda;
        arrival[i] = t;
    }

    Rig rig = makeRig(rows);
    auto pool = templatePool(rig);
    sched::SharedScanScheduler scheduler(*rig.store);
    sim::SimEngine &engine = rig.store->cluster().engine();
    size_t peak = 0;
    double inflight_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        engine.scheduleAt(arrival[i], [&, i] {
            scheduler.submit(pool[poolIndexFor(i, overlap)], i);
            size_t f = scheduler.inFlight();
            peak = std::max(peak, f);
            inflight_sum += double(f);
        });
    }
    scheduler.awaitAll();
    cell.peakInflight = peak;
    cell.meanInflight = inflight_sum / double(n);
    cell.dedupOpen = scheduler.windowStats().dedupRate();
    uint64_t open_wire = totalWireBytes(*rig.store);
    cell.openWireMb = double(open_wire) / 1e6;

    std::vector<double> sojourn(n, 0.0);
    while (sched::QueryHandle *h = scheduler.awaitAny()) {
        FUSION_CHECK(h->status().isOk());
        sojourn[h->tag] = h->sojournSeconds();
    }
    std::vector<double> sorted = sojourn;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (double s : sorted)
        sum += s;
    cell.p50Ms = sorted[n / 2] * 1e3;
    cell.p99Ms = sorted[(n * 99) / 100] * 1e3;
    cell.meanMs = sum / double(n) * 1e3;

    // Analytic serial baseline: one query at a time in arrival order,
    // each paying its isolated service time.
    double c = 0.0, serial_sum = 0.0;
    uint64_t serial_wire = 0;
    for (size_t i = 0; i < n; ++i) {
        size_t k = poolIndexFor(i, overlap);
        double start = std::max(arrival[i], c);
        c = start + service[k];
        serial_sum += c - arrival[i];
        serial_wire += wire[k];
    }
    cell.serialMeanMs = serial_sum / double(n) * 1e3;
    cell.sojournGain = cell.serialMeanMs / cell.meanMs;
    cell.wireRatio = double(serial_wire) / double(open_wire);

    benchutil::obsCollect(*rig.store);
    return cell;
}

/** Open-loop sweep: rate multiplier x overlap. Returns the number of
 *  acceptance failures at the gated 8x-rate cells. */
int
runOpenLoopSweep(bool quick,
                 std::vector<std::pair<std::string, double>> &metrics)
{
    const size_t rows = quick ? 4000 : 12000;
    const size_t arrivals = quick ? 2000 : 2600;
    const std::vector<size_t> mults =
        quick ? std::vector<size_t>{1, 8} : std::vector<size_t>{1, 2, 8};
    const double overlaps[] = {0.5, 1.0};

    benchutil::TablePrinter table(
        {"rate", "overlap", "arrivals", "peak infl", "mean infl",
         "dedup closed", "dedup open", "open wire MB", "p50 ms",
         "p99 ms", "mean ms", "serial mean ms", "gain"});

    int failures = 0;
    for (size_t mult : mults) {
        for (double overlap : overlaps) {
            OpenLoopCell cell =
                runOpenLoopCell(rows, arrivals, mult, overlap);

            char name[32];
            std::snprintf(name, sizeof(name), "r%zu_o%02d", mult,
                          int(overlap * 100.0 + 0.5));
            double dedup_vs_closed = cell.dedupOpen / cell.dedupClosed;
            metrics.emplace_back(std::string(name) + "_inflight_peak",
                                 double(cell.peakInflight));
            metrics.emplace_back(std::string(name) + "_dedup_vs_closed",
                                 dedup_vs_closed);
            metrics.emplace_back(std::string(name) + "_sojourn_gain",
                                 cell.sojournGain);
            metrics.emplace_back(std::string(name) + "_wire_ratio",
                                 cell.wireRatio);

            table.addRow({benchutil::fmt("%zux", mult),
                          benchutil::fmt("%.1f", overlap),
                          benchutil::fmt("%zu", cell.arrivals),
                          benchutil::fmt("%zu", cell.peakInflight),
                          benchutil::fmt("%.0f", cell.meanInflight),
                          benchutil::fmt("%.2f", cell.dedupClosed),
                          benchutil::fmt("%.2f", cell.dedupOpen),
                          benchutil::fmt("%.2f", cell.openWireMb),
                          benchutil::fmt("%.2f", cell.p50Ms),
                          benchutil::fmt("%.2f", cell.p99Ms),
                          benchutil::fmt("%.2f", cell.meanMs),
                          benchutil::fmt("%.2f", cell.serialMeanMs),
                          benchutil::fmt("%.2f", cell.sojournGain)});

            // Acceptance: at 8x the closed-batch arrival rate the
            // window must sustain >= 1000 in-flight queries, keep its
            // dedup rate within 10% of the closed batch, and beat the
            // serial baseline on mean sojourn. The in-flight bound is
            // pinned to the overlap-0.5 cell: at overlap 1.0 the
            // backlog plateaus at a drain/arrival equilibrium instead
            // of growing with the arrival count, so its peak sits
            // wherever the cost model puts the plateau.
            bool gate_inflight = overlap <= 0.5;
            if (mult == 8 &&
                ((gate_inflight && cell.peakInflight < 1000) ||
                 dedup_vs_closed < 0.9 || cell.sojournGain <= 1.0)) {
                std::fprintf(stderr,
                             "ACCEPTANCE FAIL %s: peak in-flight %zu, "
                             "dedup vs closed %.3f, sojourn gain %.3f\n",
                             name, cell.peakInflight, dedup_vs_closed,
                             cell.sojournGain);
                ++failures;
            }
        }
    }
    table.print();
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::obsInit(argc, argv);
    benchutil::GateFlags flags;
    bool open_loop = false;
    if (!benchutil::parseGateFlags(argc, argv, flags,
                                   {{"--open-loop", &open_loop}}))
        return 2;
    if (flags.out.empty())
        flags.out = open_loop ? "BENCH_shared_scans_openloop.json"
                              : "BENCH_shared_scans.json";
    const bool quick = flags.quick;

    std::vector<std::pair<std::string, double>> metrics;
    int acceptance_failures = 0;
    if (open_loop) {
        benchutil::banner("shared-scans-openloop",
                          "Open-loop Poisson clients through the "
                          "admission window vs serial baseline");
        acceptance_failures = runOpenLoopSweep(quick, metrics);
        if (benchutil::writeAndCheck(flags, "shared_scans_openloop",
                                     {{"quick", quick ? "true" : "false"}},
                                     metrics, kTolerance) > 0)
            return 1;
        if (acceptance_failures > 0) {
            std::fprintf(stderr,
                         "%d open-loop cell(s) failed the admission-"
                         "window acceptance bound\n",
                         acceptance_failures);
            return 1;
        }
        return 0;
    }

    benchutil::banner("shared-scans",
                      "Shared-scan scheduler vs serial isolated execution");

    const size_t rows = quick ? 4000 : 12000;
    const std::vector<size_t> client_counts =
        quick ? std::vector<size_t>{4, 8}
              : std::vector<size_t>{2, 4, 8, 16};
    const double overlaps[] = {0.0, 0.5, 1.0};

    benchutil::TablePrinter table(
        {"clients", "overlap", "serial wire MB", "shared wire MB",
         "wire saved %", "serial mean ms", "shared mean ms",
         "latency gain %", "dedup ratio", "makespan ms"});

    for (size_t clients : client_counts) {
        for (double overlap : overlaps) {
            Rig serial_rig = makeRig(rows);
            Rig shared_rig = makeRig(rows);
            auto batch = overlappingBatch(serial_rig, clients, overlap);

            // Serial baseline: one query at a time; latency for query i
            // is its completion time measured from batch admission.
            double serial_sum = 0.0, elapsed = 0.0;
            for (const auto &q : batch) {
                auto outcome = serial_rig.store->query(q);
                FUSION_CHECK(outcome.isOk());
                elapsed += outcome.value().latencySeconds;
                serial_sum += elapsed;
            }
            double serial_mean = serial_sum / double(batch.size());
            uint64_t serial_wire = totalWireBytes(*serial_rig.store);

            sched::SharedScanScheduler scheduler(*shared_rig.store);
            auto outcomes = scheduler.runBatch(batch);
            FUSION_CHECK(outcomes.isOk());
            double shared_sum = 0.0;
            for (const auto &outcome : outcomes.value())
                shared_sum += outcome.latencySeconds;
            double shared_mean = shared_sum / double(batch.size());
            uint64_t shared_wire = totalWireBytes(*shared_rig.store);
            const sched::BatchStats &stats = scheduler.lastBatchStats();

            double wire_ratio =
                double(serial_wire) / double(shared_wire);
            double latency_ratio = serial_mean / shared_mean;
            double dedup_ratio = double(stats.tasksPlanned) /
                                 double(stats.tasksIssued);

            char cell[32];
            std::snprintf(cell, sizeof(cell), "c%zu_o%02d", clients,
                          int(overlap * 100.0 + 0.5));
            metrics.emplace_back(std::string(cell) + "_wire_ratio",
                                 wire_ratio);
            metrics.emplace_back(std::string(cell) + "_latency_ratio",
                                 latency_ratio);
            metrics.emplace_back(std::string(cell) + "_dedup_ratio",
                                 dedup_ratio);

            table.addRow(
                {benchutil::fmt("%zu", clients),
                 benchutil::fmt("%.1f", overlap),
                 benchutil::fmt("%.2f", double(serial_wire) / 1e6),
                 benchutil::fmt("%.2f", double(shared_wire) / 1e6),
                 benchutil::fmt("%.1f", 100.0 * (1.0 - 1.0 / wire_ratio)),
                 benchutil::fmt("%.2f", serial_mean * 1e3),
                 benchutil::fmt("%.2f", shared_mean * 1e3),
                 benchutil::fmt("%.1f",
                                100.0 * (1.0 - 1.0 / latency_ratio)),
                 benchutil::fmt("%.2f", dedup_ratio),
                 benchutil::fmt("%.2f", stats.makespanSeconds * 1e3)});

            // Acceptance: at overlap >= 0.5 and >= 8 clients, sharing
            // must strictly beat serial on both wire bytes and latency.
            if (overlap >= 0.5 && clients >= 8 &&
                (shared_wire >= serial_wire ||
                 shared_mean >= serial_mean)) {
                std::fprintf(stderr,
                             "ACCEPTANCE FAIL %s: wire %llu vs %llu, "
                             "mean %.4f ms vs %.4f ms\n",
                             cell,
                             static_cast<unsigned long long>(shared_wire),
                             static_cast<unsigned long long>(serial_wire),
                             shared_mean * 1e3, serial_mean * 1e3);
                ++acceptance_failures;
            }
            benchutil::obsCollect(*shared_rig.store);
        }
    }
    table.print();

    if (benchutil::writeAndCheck(flags, "shared_scans",
                                 {{"quick", quick ? "true" : "false"}},
                                 metrics, kTolerance) > 0)
        return 1;
    if (acceptance_failures > 0) {
        std::fprintf(stderr,
                     "%d high-overlap cell(s) failed the sharing "
                     "acceptance bound\n",
                     acceptance_failures);
        return 1;
    }
    return 0;
}
