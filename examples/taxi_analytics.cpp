/**
 * @file
 * Taxi analytics: the paper's Q3/Q4 (Timescale NYC-taxi queries) on
 * Fusion, showing the fine-grained adaptive pushdown decisions — the
 * low-compressibility timestamp filter is pushed even at 37.5%
 * selectivity, while the highly compressible fare column's projection
 * is fetched compressed instead (Cost Equation, paper §4.3).
 *
 *   ./build/examples/taxi_analytics [rows]
 */
#include <cstdio>
#include <cstdlib>

#include "benchutil/rigs.h"
#include "common/units.h"
#include "query/cost.h"
#include "store/fusion_store.h"
#include "workload/queries.h"
#include "workload/taxi.h"

using namespace fusion;

int
main(int argc, char **argv)
{
    size_t rows = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 64000;

    std::printf("generating taxi trips: %zu rows...\n", rows);
    format::Table table = workload::makeTaxiTable(rows, 7);
    auto file = workload::buildTaxiFile(rows, 7);
    if (!file.isOk())
        return 1;

    // Service rates scaled so this file behaves like the paper's
    // 8.4 GB taxi dataset.
    sim::ClusterConfig cluster_config;
    cluster_config.node = benchutil::scaledNodeConfig(
        cluster_config.node, file.value().bytes.size(), 8.4e9);
    sim::Cluster cluster(cluster_config);
    store::FusionStore store(cluster, store::StoreOptions{});
    if (!store.put("taxi", file.value().bytes).isOk())
        return 1;

    // Show the metadata the cost model consumes.
    const auto &meta = file.value().metadata;
    std::printf("\nper-column compressibility (row group 0):\n");
    for (size_t c :
         {workload::kPickupTime, workload::kPickupDate,
          workload::kFareAmount, workload::kTripDistance}) {
        const auto &chunk = meta.chunk(0, c);
        std::printf("  %-16s %6.1fx (%s stored)\n",
                    meta.schema.column(c).name.c_str(),
                    chunk.compressibility(),
                    formatBytes(chunk.storedSize).c_str());
    }

    struct NamedQuery {
        const char *name;
        query::Query query;
    };
    NamedQuery queries[] = {
        {"Q3 rides in 2015 (sel 37.5%)", workload::taxiQ3("taxi", table)},
        {"Q4 avg fare Jan 2015 (sel 6.3%)",
         workload::taxiQ4("taxi", table)},
    };

    for (const auto &nq : queries) {
        auto outcome = store.query(nq.query);
        if (!outcome.isOk()) {
            std::fprintf(stderr, "query failed: %s\n",
                         outcome.status().toString().c_str());
            return 1;
        }
        const store::QueryOutcome &o = outcome.value();
        std::printf("\n%s\n  SQL: %s\n", nq.name,
                    nq.query.toString().c_str());
        std::printf("  matched %llu/%zu rows in %s; network %s\n",
                    static_cast<unsigned long long>(o.result.rowsMatched),
                    rows, formatSeconds(o.latencySeconds).c_str(),
                    formatBytes(o.networkBytes).c_str());
        std::printf("  pushdown: %zu filters in-situ, %zu projections "
                    "pushed, %zu projections fetched compressed\n",
                    o.filterChunkPushdowns, o.projectionPushdowns,
                    o.projectionFetches);
        for (const auto &col : o.result.columns) {
            if (col.isAggregate)
                std::printf("  %s = %.2f\n", col.name.c_str(),
                            col.aggregateValue);
        }
    }

    std::printf("\nCost Equation illustration (selectivity x "
                "compressibility < 1 -> push):\n");
    double q4_sel = 0.063;
    for (size_t c : {workload::kPickupDate, workload::kFareAmount}) {
        const auto &chunk = meta.chunk(0, c);
        auto d = query::decidePushdown(q4_sel, chunk);
        std::printf("  %-16s %.3f x %.1f = %.2f -> %s\n",
                    meta.schema.column(c).name.c_str(), d.selectivity,
                    d.compressibility, d.product(),
                    d.push ? "PUSH DOWN" : "FETCH COMPRESSED");
    }
    return 0;
}
