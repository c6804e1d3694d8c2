/**
 * @file
 * Query EXPLAIN report for the adaptive-pushdown executor. Every
 * per-chunk projection decision the Cost Equation makes (paper §4.3:
 * push when selectivity x compressibility < 1) is recorded with its
 * inputs and verdict, including the decisions the equation never got
 * to make — health fallbacks on faulted nodes and split chunks that
 * must reassemble. An aggregate pushdown's selectivity term is its
 * 32-byte reply tuple over the chunk's plain size. Rendered as a
 * deterministic text table or canonical JSON so reports are
 * byte-comparable across runs and thread counts.
 */
#ifndef FUSION_OBS_EXPLAIN_H
#define FUSION_OBS_EXPLAIN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fusion::obs {

/** One projection chunk's pushdown decision. */
struct ExplainChunk {
    uint32_t chunkId = 0;
    uint32_t rowGroup = 0;
    std::string column;
    double selectivity = 0.0;
    double compressibility = 1.0;
    /** "push", "fetch" or "local" — where the projection actually
     *  ran ("local" = evaluated from the coordinator hot-chunk
     *  cache; its Cost-Equation terms are recorded but overridden). */
    std::string verdict;
    /** Why: "cost product < 1", "cost product >= 1", "node
     *  unresponsive (health fallback)", "chunk split across nodes",
     *  "aggregate-only projection" (a push whose product is the reply
     *  tuple's term), "adaptive pushdown disabled", "cached-local".
     *  The shared-scan scheduler amends this with
     *  "merged-pushdown" / "shared-fetch" / "load-shed" (see
     *  sched/scheduler.h) and, when the consumer attached to a chunk
     *  entry created at an earlier simulated instant, with
     *  "joined-inflight". */
    std::string reason;

    /** The Cost Equation's left-hand side. */
    double product() const { return selectivity * compressibility; }
};

/** How one result column travels to the client. */
struct ExplainReply {
    std::string column;
    /** "encoded:dictionary" / "encoded:plain" (format::encodeChunk
     *  bytes), "plain" (raw values) or "aggregate" (one scalar). */
    std::string encoding;
    uint64_t bytes = 0;      // on the wire
    uint64_t plainBytes = 0; // the same values plain-encoded
};

/** Full report for one query against one object. */
struct QueryExplain {
    std::string table;
    std::string query; // canonical query text
    double selectivity = 0.0;
    size_t rowGroupsScanned = 0;
    size_t rowGroupsSkipped = 0;
    size_t filterPushdowns = 0;
    size_t filterFetches = 0;
    /** Filter chunks served from the coordinator hot-chunk cache. */
    size_t filterCached = 0;
    std::vector<ExplainChunk> projections;
    /** One line per result column, in projection order. */
    std::vector<ExplainReply> replies;

    size_t pushCount() const;
    size_t fetchCount() const;
    /** Projection chunks with verdict "local" (cached-local). */
    size_t localCount() const;

    /** Aligned text table (the `EXPLAIN` output). */
    std::string render() const;
    /** Canonical JSON with fixed formatting. */
    std::string toJson() const;
};

} // namespace fusion::obs

#endif // FUSION_OBS_EXPLAIN_H
