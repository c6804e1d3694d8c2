/**
 * @file
 * Experiment harness shared by the bench binaries: closed-loop query
 * driving (the paper runs 10 clients and 10 K queries), latency
 * collection, and table printers that emit the same rows/series the
 * paper's figures report.
 */
#ifndef FUSION_BENCHUTIL_HARNESS_H
#define FUSION_BENCHUTIL_HARNESS_H

#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "store/object_store.h"

namespace fusion::benchutil {

/** Configuration of a workload run. */
struct RunConfig {
    size_t clients = 10;
    size_t totalQueries = 1000;
    uint64_t seed = 42;
    /**
     * When > 0, queries arrive open-loop at this aggregate rate
     * (queries/simulated-second) regardless of completions — the
     * paper's fixed-load setup for the CPU-utilization comparison
     * (Fig 14d). When 0 (default), `clients` closed-loop clients issue
     * the next query as soon as the previous one returns.
     */
    double openLoopQps = 0.0;
};

/** Aggregate results of a closed-loop run. */
struct RunStats {
    SampleHistogram latency;      // seconds per query
    double diskSeconds = 0.0;     // resource-seconds, summed
    double cpuSeconds = 0.0;
    double networkSeconds = 0.0;
    uint64_t networkBytes = 0;
    double wallSimSeconds = 0.0;  // simulated makespan of the run
    double meanStorageCpuUtilization = 0.0;
    size_t projectionPushdowns = 0;
    size_t projectionFetches = 0;
    /** Robustness counters accumulated over the run (delta of the
     *  store's fault.* counters — nonzero only with faults injected). */
    uint64_t readRetries = 0;
    uint64_t parityReconstructions = 0;
    uint64_t pushdownFallbacks = 0;
    uint64_t degradedChunkReads = 0;
};

/**
 * Runs `config.totalQueries` queries against `store` with
 * `config.clients` closed-loop clients. `next_query` is called once per
 * query (with the query index) and returns the query to issue — use it
 * to rotate across object copies or query templates. Aborts the process
 * on query errors (benches assume valid queries).
 */
RunStats runClosedLoop(store::ObjectStore &store, const RunConfig &config,
                       std::function<query::Query(size_t)> next_query);

/** Percentage improvement of `fusion` over `baseline` (positive =
 *  fusion faster), as in the paper's latency-reduction plots. */
double latencyReductionPct(double baseline_seconds, double fusion_seconds);

/** Prints a Markdown-ish table row-by-row with aligned columns. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers);
    void addRow(std::vector<std::string> cells);
    /** Renders to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** printf-style float formatting helper for table cells. */
std::string fmt(const char *format, ...);

/** Standard header banner for a figure/table reproduction binary. */
void banner(const std::string &id, const std::string &title);

// ---- observability output (every bench binary) ----

/** Where to dump traces/metrics; empty string = don't. */
struct ObsOptions {
    std::string traceOut;   // Chrome trace_event JSON (Perfetto-loadable)
    std::string metricsOut; // merged metrics snapshot JSON
    /** Windowed-telemetry snapshots (obs::Telemetry::toJson), one per
     *  collected store, wrapped as {"timeseries": [...]}. */
    std::string timeseriesOut;

    bool
    enabled() const
    {
        return !traceOut.empty() || !metricsOut.empty() ||
               !timeseriesOut.empty();
    }
};

/**
 * Parses `--trace-out=FILE` / `--metrics-out=FILE` /
 * `--timeseries-out=FILE` from argv (env fallback: FUSION_TRACE_OUT /
 * FUSION_METRICS_OUT / FUSION_TIMESERIES_OUT), ignoring flags it
 * does not know, and registers an atexit writer for the requested
 * files. Call first thing in every bench main. When any output is
 * requested, store rigs enable their tracers and runClosedLoop
 * accumulates per-run metric deltas and drains spans automatically;
 * the timeseries output additionally enables each driven store's
 * flight recorder.
 */
void obsInit(int argc, char **argv);

const ObsOptions &obsOptions();

/**
 * Drains `store`'s recorded spans into the pending trace dump as one
 * named process. runClosedLoop calls this at the end of every run; call
 * it manually only for stores driven outside the harness.
 */
void obsCollect(store::ObjectStore &store);

} // namespace fusion::benchutil

#endif // FUSION_BENCHUTIL_HARNESS_H
