#include "harness.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace fusion::benchutil {

namespace {

ObsOptions g_obs_options;
std::vector<obs::TraceProcess> g_trace_processes;
obs::MetricsSnapshot g_metrics_accum;
/** (process label, obs::Telemetry::toJson snapshot) per collection. */
std::vector<std::pair<std::string, std::string>> g_timeseries_docs;
size_t g_collect_seq = 0;

void
obsWriteOutputs()
{
    if (!g_obs_options.metricsOut.empty()) {
        // Per-store deltas accumulated by runClosedLoop, plus the
        // process-wide instruments (thread pool, EC dispatch) at exit.
        obs::MetricsSnapshot merged = g_metrics_accum;
        merged.mergeFrom(obs::MetricsRegistry::global().snapshot());
        obs::writeTextFile(g_obs_options.metricsOut, merged.toJson());
    }
    if (!g_obs_options.traceOut.empty())
        obs::writeTextFile(g_obs_options.traceOut,
                           obs::chromeTraceJson(g_trace_processes));
    if (!g_obs_options.timeseriesOut.empty()) {
        std::string out = "{\n\"timeseries\": [";
        for (size_t i = 0; i < g_timeseries_docs.size(); ++i) {
            if (i)
                out += ",";
            out += "\n{\"process\": \"" + g_timeseries_docs[i].first +
                   "\", \"snapshot\": " + g_timeseries_docs[i].second +
                   "}";
        }
        out += "\n]\n}\n";
        obs::writeTextFile(g_obs_options.timeseriesOut, out);
    }
}

} // namespace

void
obsInit(int argc, char **argv)
{
    auto flag_value = [](const char *arg,
                         const char *name) -> const char * {
        size_t n = std::strlen(name);
        if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
            return arg + n + 1;
        return nullptr;
    };
    for (int i = 1; i < argc; ++i) {
        if (const char *v = flag_value(argv[i], "--trace-out"))
            g_obs_options.traceOut = v;
        else if (const char *v = flag_value(argv[i], "--metrics-out"))
            g_obs_options.metricsOut = v;
        else if (const char *v = flag_value(argv[i], "--timeseries-out"))
            g_obs_options.timeseriesOut = v;
        // Unknown flags belong to the bench; leave them alone.
    }
    if (g_obs_options.traceOut.empty())
        if (const char *env = std::getenv("FUSION_TRACE_OUT"))
            g_obs_options.traceOut = env;
    if (g_obs_options.metricsOut.empty())
        if (const char *env = std::getenv("FUSION_METRICS_OUT"))
            g_obs_options.metricsOut = env;
    if (g_obs_options.timeseriesOut.empty())
        if (const char *env = std::getenv("FUSION_TIMESERIES_OUT"))
            g_obs_options.timeseriesOut = env;
    if (g_obs_options.enabled()) {
        static bool registered = false;
        if (!registered) {
            registered = true;
            // Construct the global registry BEFORE registering the
            // writer: exit runs the atexit stack LIFO, so anything the
            // writer reads must be constructed (= destructor enqueued)
            // first or it is torn down before the writer runs.
            obs::MetricsRegistry::global();
            std::atexit(obsWriteOutputs);
        }
    }
}

const ObsOptions &
obsOptions()
{
    return g_obs_options;
}

void
obsCollect(store::ObjectStore &store)
{
    if (!g_obs_options.enabled())
        return;
    const std::string label = std::string(store.kindName()) + "#" +
                              std::to_string(g_collect_seq++);
    if (!g_obs_options.timeseriesOut.empty())
        g_timeseries_docs.emplace_back(
            label, store.obs().telemetry.toJson(
                       store.cluster().engine().now()));
    if (g_obs_options.traceOut.empty())
        return;
    auto spans = store.obs().tracer.takeSpans();
    if (spans.empty())
        return;
    g_trace_processes.push_back({label, std::move(spans)});
}

RunStats
runClosedLoop(store::ObjectStore &store, const RunConfig &config,
              std::function<query::Query(size_t)> next_query)
{
    RunStats stats;
    sim::SimEngine &engine = store.cluster().engine();
    double wall_start = engine.now();
    uint64_t traffic_start = store.cluster().totalNetworkBytes();
    const obs::MetricsSnapshot metrics_start = store.obs().metrics.snapshot();

    const bool obs_on = g_obs_options.enabled();
    if (obs_on) {
        if (!g_obs_options.traceOut.empty())
            store.obs().tracer.setEnabled(true);
        if (!g_obs_options.timeseriesOut.empty())
            store.obs().telemetry.flight().setEnabled(true);
    }

    size_t issued = 0;
    auto record = [&](Result<store::QueryOutcome> outcome,
                      const std::function<void()> &after) {
        FUSION_CHECK_MSG(outcome.isOk(),
                         outcome.isOk() ? "" : outcome.status().toString());
        const store::QueryOutcome &o = outcome.value();
        stats.latency.add(o.latencySeconds);
        stats.diskSeconds += o.diskSeconds;
        stats.cpuSeconds += o.cpuSeconds;
        stats.networkSeconds += o.networkSeconds;
        stats.projectionPushdowns += o.projectionPushdowns;
        stats.projectionFetches += o.projectionFetches;
        after();
    };

    if (config.openLoopQps > 0.0) {
        // Fixed-rate arrivals, independent of completions.
        for (size_t i = 0; i < config.totalQueries; ++i) {
            engine.scheduleAt(
                wall_start + static_cast<double>(i) / config.openLoopQps,
                [&, i]() {
                    store.queryAsync(next_query(i),
                                     [&](Result<store::QueryOutcome> o) {
                                         record(std::move(o), [] {});
                                     });
                });
        }
        engine.run();
    } else {
        // One closed-loop client: issue, wait for completion, repeat.
        std::function<void()> issue_next = [&]() {
            if (issued >= config.totalQueries)
                return;
            size_t index = issued++;
            store.queryAsync(next_query(index),
                             [&](Result<store::QueryOutcome> o) {
                                 record(std::move(o), issue_next);
                             });
        };
        size_t clients = std::min(config.clients, config.totalQueries);
        for (size_t c = 0; c < clients; ++c)
            issue_next();
        engine.run();
    }

    stats.wallSimSeconds = engine.now() - wall_start;
    stats.networkBytes =
        store.cluster().totalNetworkBytes() - traffic_start;
    const obs::MetricsSnapshot metrics_delta =
        store.obs().metrics.snapshot().diff(metrics_start);
    auto fault_delta = [&metrics_delta](const char *name) {
        return metrics_delta.values.at(std::string("fault.") + name).count;
    };
    stats.readRetries = fault_delta("read_retries");
    stats.parityReconstructions = fault_delta("parity_reconstructions");
    stats.pushdownFallbacks = fault_delta("pushdown_fallbacks");
    stats.degradedChunkReads = fault_delta("degraded_chunk_reads");
    stats.meanStorageCpuUtilization =
        store.cluster().meanStorageCpuUtilization();
    FUSION_CHECK(stats.latency.count() == config.totalQueries);

    if (obs_on) {
        g_metrics_accum.mergeFrom(metrics_delta);
        obsCollect(store);
    }
    return stats;
}

double
latencyReductionPct(double baseline_seconds, double fusion_seconds)
{
    if (baseline_seconds <= 0.0)
        return 0.0;
    return (baseline_seconds - fusion_seconds) / baseline_seconds * 100.0;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    FUSION_CHECK(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

void
TablePrinter::print() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &cells) {
        std::printf("|");
        for (size_t c = 0; c < cells.size(); ++c)
            std::printf(" %-*s |", static_cast<int>(widths[c]),
                        cells[c].c_str());
        std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t c = 0; c < headers_.size(); ++c)
        std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
    std::printf("\n");
    for (const auto &row : rows_)
        print_row(row);
}

std::string
fmt(const char *format, ...)
{
    char buf[256];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    return buf;
}

void
banner(const std::string &id, const std::string &title)
{
    std::printf("\n=== %s: %s ===\n\n", id.c_str(), title.c_str());
}

} // namespace fusion::benchutil
