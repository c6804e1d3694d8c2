/**
 * @file
 * Test access to a store's robustness counters. The authoritative
 * values are the cumulative fault.* entries of the store's metrics
 * registry; these helpers read them through a snapshot, so a misspelt
 * name aborts instead of silently registering a fresh zero counter.
 */
#ifndef FUSION_TESTS_FAULT_COUNTERS_H
#define FUSION_TESTS_FAULT_COUNTERS_H

#include <string>

#include "obs/metrics.h"
#include "store/object_store.h"

namespace fusion::testutil {

/** The fault.* slice of the store's registry, comparable with ==. */
inline obs::MetricsSnapshot
faultCounters(store::ObjectStore &store)
{
    const obs::MetricsSnapshot all = store.obs().metrics.snapshot();
    obs::MetricsSnapshot out;
    for (const auto &[name, value] : all.values)
        if (name.rfind("fault.", 0) == 0)
            out.values.emplace(name, value);
    return out;
}

/** One fault.* integer counter by short name, e.g. "read_retries". */
inline uint64_t
faultCount(store::ObjectStore &store, const std::string &name)
{
    return store.obs().metrics.snapshot().values.at("fault." + name).count;
}

/** Total simulated retry backoff (fault.backoff_seconds). */
inline double
faultBackoffSeconds(store::ObjectStore &store)
{
    return store.obs()
        .metrics.snapshot()
        .values.at("fault.backoff_seconds")
        .number;
}

} // namespace fusion::testutil

#endif // FUSION_TESTS_FAULT_COUNTERS_H
