/**
 * @file
 * Baseline gate of bench_kernels' host-time floors, and the flat
 * `{"bench": ..., "metrics": {"name": number}}` JSON writer that
 * bench_paper's BENCH_paper.json shares: one flag parser, one writer
 * and reader, and one check of a run's metrics against a checked-in
 * baseline. Simulated numbers are not gated here: they repeat
 * exactly, so bench_paper checks them as claims in code.
 */
#ifndef FUSION_BENCHUTIL_GATE_H
#define FUSION_BENCHUTIL_GATE_H

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace fusion::benchutil {

/** Metrics in emission order. */
using Metrics = std::vector<std::pair<std::string, double>>;

/** Flags of a gated bench. */
struct GateFlags {
    bool quick = false;   // --quick: CI smoke mode
    std::string out;      // --out=PATH: where the JSON goes
    std::string baseline; // --check=BASELINE: gate against this file
};

/**
 * Parses --quick, --out=PATH and --check=BASELINE into `flags`,
 * skipping the observability flags obsInit consumes. Prints the
 * offending flag and returns false on anything else.
 */
bool parseGateFlags(int argc, char **argv, GateFlags &flags);

/**
 * Writes `{"bench": bench, <fields>, "metrics": {...}}` to `path`.
 * Each field's value is raw JSON (a number, `true`, a quoted string,
 * an array...). Values print as `%.6g`. Exits 2 when `path` cannot be
 * written.
 */
void writeBenchJson(const std::string &path, const std::string &bench,
                    const std::vector<std::pair<std::string, std::string>>
                        &fields,
                    const Metrics &metrics);

/**
 * Reads the "metrics" object of a file writeBenchJson wrote into
 * `out`. Returns false when the file cannot be read or holds no
 * metric, so an empty or truncated baseline never passes a check.
 */
bool readBenchMetrics(const std::string &path,
                      std::map<std::string, double> &out);

/**
 * Every metric in `baseline` must be present in `current` and reach
 * `baseline * (1 - tolerance)` (all gated metrics are higher-is-
 * better). Prints one check line per baseline metric and returns the
 * number of failures; a baseline metric the run no longer emits is a
 * failure.
 */
int checkMetrics(const std::map<std::string, double> &baseline,
                 const Metrics &current, double tolerance);

/**
 * The tail of a gated bench: writes `metrics` to `flags.out` and,
 * when `flags.baseline` is set, checks them against it. Returns the
 * number of failed checks; exits 2 when the baseline cannot be read
 * or holds no metric.
 */
int writeAndCheck(const GateFlags &flags, const std::string &bench,
                  const std::vector<std::pair<std::string, std::string>>
                      &fields,
                  const Metrics &metrics, double tolerance);

} // namespace fusion::benchutil

#endif // FUSION_BENCHUTIL_GATE_H
