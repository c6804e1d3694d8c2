/**
 * @file
 * Ablation A6: robustness under deterministic fault injection. Sweeps
 * the failure rate (crash/revive and slow/restore events drawn over
 * the run's makespan) and reports how the degraded-read machinery
 * responds: retry counts, parity reconstructions, pushdown fallbacks
 * and the latency both stores pay for them. Ends with a determinism
 * spot check — the same seed must reproduce the identical fault trace
 * and identical robustness counters on a fresh rig.
 */
#include <cstdlib>

#include "benchutil/rigs.h"
#include "sim/fault.h"
#include "workload/lineitem.h"
#include "workload/queries.h"

using namespace fusion;
using namespace fusion::benchutil;

namespace {

RigOptions
rigOptions()
{
    RigOptions options;
    options.rows = 20000;
    options.copies = 3;
    return options;
}

std::function<query::Query(size_t)>
queryMix(const StorePair &pair)
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

int
main(int argc, char **argv)
{
    benchutil::obsInit(argc, argv);
    banner("Ablation A6",
           "degraded reads under injected faults (failure-rate sweep)");

    RunConfig run;
    run.clients = 4;
    run.totalQueries = 240;

    // Fault-free reference run; Fusion's makespan becomes the fault
    // horizon so every sweep level lands its events inside the part of
    // the run both stores are still executing.
    StorePair clean_pair = makeStorePair(Dataset::kLineitem, rigOptions());
    Comparison clean = compareStores(clean_pair, run, queryMix(clean_pair));
    double horizon = clean.fusion.wallSimSeconds;

    TablePrinter table({"crash events", "fusion p50", "fusion p99",
                        "retries", "EC rebuilds", "pushdown fallbacks",
                        "baseline p99"});
    // Robustness counters come from the Fusion store's metrics registry
    // (the fault.* instruments). Each sweep level runs on a fresh rig
    // with faults armed only during the measured runs, so cumulative
    // counts == run counts.
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
    };
    add_row(0, clean, *clean_pair.fusion);

    for (size_t crashes : {1, 2, 4, 8}) {
        StorePair pair = makeStorePair(Dataset::kLineitem, rigOptions());
        pair.armFaults(
            sim::FaultSchedule::random(faultOptions(crashes, horizon)));
        Comparison faulted = compareStores(pair, run, queryMix(pair));
        add_row(crashes, faulted, *pair.fusion);
    }
    table.print();

    // Determinism spot check: identical seed, fresh rig — the applied
    // fault trace and the full metrics snapshot (every fault/cache/wire
    // counter and the latency histogram) must match byte for byte.
    std::string traces[2];
    obs::MetricsSnapshot snaps[2];
    double p99[2];
    for (int round = 0; round < 2; ++round) {
        StorePair pair = makeStorePair(Dataset::kLineitem, rigOptions());
        pair.armFaults(sim::FaultSchedule::random(faultOptions(4, horizon)));
        RunStats fusion_run =
            runClosedLoop(*pair.fusion, run, [&pair, next = queryMix(pair)](
                                                 size_t i) {
                return pair.onCopy(next(i), i);
            });
        traces[round] = pair.fusionFaults->traceString();
        snaps[round] = pair.fusion->obs().metrics.snapshot();
        p99[round] = fusion_run.latency.p99();
    }
    bool deterministic = traces[0] == traces[1] &&
                         snaps[0].toJson() == snaps[1].toJson() &&
                         p99[0] == p99[1];
    std::printf("\ndeterminism (seed %#x, 2 runs): traces %s, metrics "
                "%s, p99 %s\n",
                0xfa017 + 4, traces[0] == traces[1] ? "equal" : "DIFFER",
                snaps[0].toJson() == snaps[1].toJson() ? "equal"
                                                       : "DIFFER",
                p99[0] == p99[1] ? "equal" : "DIFFER");

    std::printf("\nexpected: latency degrades gracefully with failure "
                "rate — faulted chunks reroute to coordinator-side "
                "evaluation (pushdown fallbacks) and lost blocks are "
                "rebuilt from parity (EC rebuilds); identical seeds "
                "replay identical traces\n");
    return deterministic ? EXIT_SUCCESS : EXIT_FAILURE;
}
