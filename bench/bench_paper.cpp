/**
 * @file
 * One harness for the paper's evaluation: every table, figure and
 * ablation is a function in kFigures (paper.h). Each prints the rows
 * the paper reports on stdout and records named claims; bench_paper
 * prints each claim's verdict on stderr after its figure.
 *
 * Usage:
 *   bench_paper (--figure ID)... | --all [--out=BENCH_paper.json]
 *               [--trace-out=FILE] [--metrics-out=FILE]
 *               [--timeseries-out=FILE]
 *
 * Exits 1 when a claim that is not on kKnownDeviations is broken, or
 * when a listed claim holds or is no longer emitted (so the list can
 * only shrink); 2 on bad flags. --out writes every claim's measured
 * value as a metric, plus its bound and verdict, in the flat schema of
 * the gated benches (benchutil/gate.h).
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "benchutil/gate.h"
#include "benchutil/harness.h"
#include "paper.h"

std::string
fusion::paper::Claim::bound() const
{
    if (lo == hi)
        return benchutil::fmt("== %g", lo);
    if (std::isinf(hi))
        return benchutil::fmt(">= %g", lo);
    if (std::isinf(lo))
        return benchutil::fmt("<= %g", hi);
    return benchutil::fmt("in [%g, %g]", lo, hi);
}

using namespace fusion;
using paper::Claim;
using paper::Figure;

namespace {

const Figure kFigures[] = {
    {"table3", "Table 3", "Parquet dataset description", paper::table3},
    {"table4", "Table 4", "Real-world SQL query description", paper::table4},
    {"fig4a", "Fig 4a", "% of column chunks split vs erasure-code block size",
     paper::fig4a},
    {"fig4b", "Fig 4b", "baseline latency breakdown, 1%-selectivity query",
     paper::fig4b},
    {"fig4c", "Fig 4c", "CDF of normalized column chunk sizes", paper::fig4c},
    {"fig4d", "Fig 4d",
     "storage overhead of the padding approach w.r.t optimal", paper::fig4d},
    {"fig6", "Fig 6", "compression ratio per lineitem column (avg chunks)",
     paper::fig6},
    {"fig10a", "Fig 10a", "exact-solver runtime vs number of chunks",
     paper::fig10a},
    {"fig10b", "Fig 10b",
     "pushdown trade-off: p50 improvement of always-push vs baseline",
     paper::fig10b},
    {"fig12", "Fig 12",
     "avg nodes per lineitem chunk in baseline w/ chunk split",
     paper::fig12},
    {"fig13ab", "Fig 13a/13b", "p50/p99 latency reduction per lineitem column",
     paper::fig13ab},
    {"fig13cd", "Fig 13c/13d", "latency breakdown for column 5 and column 9",
     paper::fig13cd},
    {"fig14ab", "Fig 14a/14b", "latency reduction vs query selectivity",
     paper::fig14ab},
    {"fig14c", "Fig 14c", "latency reduction vs network bandwidth (column 5)",
     paper::fig14c},
    {"fig14d", "Fig 14d", "avg CPU utilization per storage node",
     paper::fig14d},
    {"fig15", "Fig 15a/15b", "real-world SQL queries: latency + traffic",
     paper::fig15},
    {"fig16a", "Fig 16a", "FAC storage overhead vs number of chunks (RS(9,6))",
     paper::fig16a},
    {"fig16bc", "Fig 16b/16c",
     "storage + runtime overhead: oracle vs padding vs FAC", paper::fig16bc},
    {"ablation-nk", "Ablation A1",
     "layout overhead across (n, k) configurations", paper::ablationNk},
    {"ablation-aggregate", "Ablation A2",
     "aggregate pushdown (paper future work)", paper::ablationAggregate},
    {"ablation-threshold", "Ablation A3",
     "overhead-threshold fallback sensitivity", paper::ablationThreshold},
    {"ablation-costmodel", "Ablation A4",
     "adaptive vs always-push vs never-push", paper::ablationCostModel},
    {"ablation-recovery", "Ablation A5",
     "single-node repair traffic: layout x code", paper::ablationRecovery},
    {"ablation-bloom", "Ablation A6",
     "Bloom-filter chunk skipping on point lookups", paper::ablationBloom},
    {"deployment", "Deployment study",
     "population-level storage overhead and balance",
     paper::deploymentStudy},
    {"ablation-ingest", "Ablation A7", "queries under concurrent ingest",
     paper::ablationIngest},
    {"ablation-faults", "Ablation A12",
     "degraded reads under injected faults (failure-rate sweep)",
     paper::ablationFaults},
    {"ablation-cache", "Ablation A8",
     "coordinator hot-chunk cache under Zipf skew", paper::ablationCache},
    {"ablation-fold", "Ablation A9",
     "append stream vs queries, folds on/off", paper::ablationFold},
    {"ablation-window", "Ablation A10",
     "shared-scan batch vs serial isolated execution",
     paper::ablationWindow},
    {"ablation-window-open", "Ablation A11",
     "open-loop Poisson clients through the admission window vs serial",
     paper::ablationWindowOpen},
};

/**
 * Claims known to be broken at this commit, each with its paper bound
 * intact (EXPERIMENTS.md, "Known deviations"). Fusion reads a small
 * column's chunk twice when a query filters and projects it and the
 * Cost Equation fetches it (ROADMAP: "read each chunk once per
 * query"), so it loses to the baseline on Fig 13a/b's small dictionary
 * columns and on Fig 14a/b's l_quantity just past its cutover. Remove
 * an entry once its claim holds; bench_paper fails until it is.
 */
const char *const kKnownDeviations[] = {
    "fig13ab.c3_p50",  "fig13ab.c3_p99",  "fig13ab.c6_p50",
    "fig13ab.c6_p99",  "fig13ab.c7_p50",  "fig13ab.c8_p50",
    "fig13ab.c8_p99",  "fig13ab.c9_p50",  "fig13ab.c9_p99",
    "fig13ab.c13_p50", "fig13ab.c13_p99", "fig13ab.c14_p50",
    "fig13ab.c14_p99", "fig14ab.c4_p50_at_20pct",
};

bool
knownDeviation(const std::string &id)
{
    return std::any_of(std::begin(kKnownDeviations),
                       std::end(kKnownDeviations),
                       [&](const char *known) { return id == known; });
}

int
usage()
{
    std::fprintf(stderr, "usage: bench_paper (--figure ID)... | --all "
                         "[--out=BENCH_paper.json]\nfigures:");
    for (const Figure &f : kFigures)
        std::fprintf(stderr, " %s", f.id);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::obsInit(argc, argv);
    std::vector<const Figure *> selected;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--all") {
            for (const Figure &f : kFigures)
                selected.push_back(&f);
        } else if (arg == "--figure" && i + 1 < argc) {
            const char *id = argv[++i];
            auto it = std::find_if(
                std::begin(kFigures), std::end(kFigures),
                [&](const Figure &f) { return std::strcmp(f.id, id) == 0; });
            if (it == std::end(kFigures)) {
                std::fprintf(stderr, "unknown figure: %s\n", id);
                return usage();
            }
            selected.push_back(it);
        } else if (arg.rfind("--out=", 0) == 0) {
            out = arg.substr(6);
        } else if (arg.rfind("--trace-out=", 0) != 0 &&
                   arg.rfind("--metrics-out=", 0) != 0 &&
                   arg.rfind("--timeseries-out=", 0) != 0) {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            return usage();
        }
    }
    if (selected.empty())
        return usage();

    std::vector<Claim> claims;
    std::vector<std::string> ran;
    int unexpected = 0;
    size_t deviations = 0;
    for (const Figure *figure : selected) {
        benchutil::banner(figure->name, figure->title);
        paper::Claims recorded(figure->id);
        figure->run(recorded);
        std::fflush(stdout);
        for (const Claim &c : recorded.all()) {
            bool known = knownDeviation(c.id);
            const char *verdict = c.holds()
                                      ? (known ? "HOLDS, but listed as a "
                                                 "known deviation"
                                               : "ok")
                                      : (known ? "BROKEN (known deviation)"
                                               : "BROKEN");
            unexpected += c.holds() == known ? 1 : 0;
            deviations += known && !c.holds() ? 1 : 0;
            std::fprintf(stderr, "claim %-57s %10.4g %-14s %s\n",
                         c.id.c_str(), c.value, c.bound().c_str(),
                         verdict);
            claims.push_back(c);
        }
        ran.push_back(figure->id);
    }
    // A listed deviation whose figure ran must still be emitted.
    for (const char *known : kKnownDeviations) {
        std::string id = known;
        std::string figure = id.substr(0, id.find('.'));
        bool emitted = std::any_of(claims.begin(), claims.end(),
                                   [&](const Claim &c) { return c.id == id; });
        if (!emitted &&
            std::find(ran.begin(), ran.end(), figure) != ran.end()) {
            std::fprintf(stderr, "claim %s: listed as a known deviation "
                                 "but no longer emitted\n",
                         known);
            ++unexpected;
        }
    }
    std::fprintf(stderr,
                 "bench_paper: %zu figure(s), %zu claims: %zu hold, %zu "
                 "known deviation(s), %d unexpected\n",
                 ran.size(), claims.size(),
                 static_cast<size_t>(std::count_if(
                     claims.begin(), claims.end(),
                     [](const Claim &c) { return c.holds(); })),
                 deviations, unexpected);

    if (!out.empty()) {
        benchutil::Metrics metrics;
        std::string list, figures;
        for (const Claim &c : claims) {
            metrics.emplace_back(c.id, c.value);
            list += benchutil::fmt("%s\n    {\"id\": \"%s\", \"bound\": "
                                   "\"%s\", \"holds\": %s, "
                                   "\"known_deviation\": %s}",
                                   list.empty() ? "" : ",", c.id.c_str(),
                                   c.bound().c_str(),
                                   c.holds() ? "true" : "false",
                                   knownDeviation(c.id) ? "true" : "false");
        }
        for (const std::string &id : ran)
            figures += (figures.empty() ? "\"" : ", \"") + id + "\"";
        benchutil::writeBenchJson(
            out, "paper",
            {{"figures", "[" + figures + "]"},
             {"claims", "[" + list + "\n  ]"}},
            metrics);
    }
    return unexpected > 0 ? 1 : 0;
}
