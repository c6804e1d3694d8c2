/**
 * @file
 * The Pushdown Cost Estimator (paper §4.3): one Cost Equation serves
 * the planner and the admission window. A chunk is pushed down only
 * when
 *
 *     selectivity x compressibility < 1
 *
 * i.e. when the reply is smaller on the wire than the compressed chunk
 * would be. Compressibility comes from footer metadata; the caller
 * picks the selectivity term:
 *
 *   - the planner passes the exact query selectivity known after the
 *     filter stage, or, for an aggregate-only column under aggregate
 *     pushdown, the 32-byte (count, sum, min, max) tuple over the
 *     chunk's plain size;
 *   - the admission window passes the merged reply bytes of two or
 *     more pushdown consumers over the plain size (the alternative to
 *     N replies is ONE shared chunk fetch), or 0 for a lone pushdown,
 *     which keeps its planner verdict.
 *
 * A per-node load term models storage-side CPU oversubscription
 * (OASIS / pushdown-contention literature): when the node already has
 * more outstanding pushdown work than `load_limit_seconds` of its CPU
 * capacity, a push verdict flips to coordinator-side evaluation
 * regardless of the byte math (EXPLAIN reason "load-shed").
 */
#ifndef FUSION_QUERY_COST_H
#define FUSION_QUERY_COST_H

#include "format/metadata.h"

namespace fusion::query {

/** Outcome of the Cost Equation for one chunk. */
struct PushdownDecision {
    bool push = true;
    /** True when the byte math said push but the load term overrode
     *  it. */
    bool loadShed = false;
    double selectivity = 0.0;
    double compressibility = 1.0;

    /** The Cost Equation's left-hand side. */
    double product() const { return selectivity * compressibility; }
};

/** Applies the Cost Equation, then the load term (0 limit disables
 *  it), to one chunk. */
inline PushdownDecision
decidePushdown(double selectivity, const format::ChunkMeta &chunk,
               double node_outstanding_seconds = 0.0,
               double load_limit_seconds = 0.0)
{
    PushdownDecision decision;
    decision.selectivity = selectivity;
    decision.compressibility = chunk.compressibility();
    decision.push = decision.product() < 1.0;
    if (decision.push && load_limit_seconds > 0.0 &&
        node_outstanding_seconds > load_limit_seconds) {
        decision.push = false;
        decision.loadShed = true;
    }
    return decision;
}

} // namespace fusion::query

#endif // FUSION_QUERY_COST_H
