/**
 * @file
 * Store-wide configuration, shared by ObjectStore and the units it is
 * built from (read path, delta lifecycle, stage DAG).
 */
#ifndef FUSION_STORE_OPTIONS_H
#define FUSION_STORE_OPTIONS_H

#include <cstddef>
#include <cstdint>

namespace fusion::store {

/** Bytes of a pushdown/fetch request message. */
inline constexpr uint64_t kRequestRpcBytes = 256;
/** Bytes of the client's query request. */
inline constexpr uint64_t kClientRequestBytes = 512;
/**
 * A block read counts as timed out when its node is dead or so slowed
 * that the modeled response (slowFactor x rpcLatency) exceeds this
 * bound. Timed-out reads retry with backoff, then reconstruct from
 * parity.
 */
inline constexpr double kReadTimeoutSeconds = 1e-3;
/** Replication factor for append delta-log segments (small-object
 *  regime: replicated, never erasure-coded). Capped at numNodes. */
inline constexpr size_t kDeltaReplicas = 3;

/** When DeltaLifecycle seals and folds an object's delta log. */
struct CompactionPolicy {
    bool enabled = true;
    /** Seal when this many segments accumulate (or the log reaches
     *  DeltaLifecycle's 1 MiB byte trigger). */
    size_t maxDeltaSegments = 8;
};

/** Store-wide configuration. */
struct StoreOptions {
    size_t n = 9;
    size_t k = 6;
    /** Block size for fixed-size coding (baseline and Fusion fallback).
     *  The paper uses 100 MB on ~10 GB files; scale proportionally. */
    uint64_t fixedBlockSize = 4ULL << 20;
    /** FAC fallback threshold (paper: 2%). */
    double overheadThreshold = 0.02;
    /** Apply the Cost Equation per chunk (Fusion). When false, every
     *  projection on an intact chunk is pushed down. */
    bool adaptivePushdown = true;
    /** Extension (paper future work): compute aggregates on storage
     *  nodes so pure-aggregate projections reply with scalars. */
    bool aggregatePushdown = false;
    /**
     * Coordinator hot-chunk cache capacity in bytes; 0 (the default)
     * disables the tier. Chunks the planner fetched to the coordinator
     * are admitted and later queries evaluate them locally, flipping
     * the Cost Equation (see cache/chunk_cache.h).
     */
    uint64_t cacheBytes = 0;

    // ---- degraded-read robustness (fault injection, see DESIGN.md) ----

    /** Retry attempts before a timed-out block read is declared lost. */
    size_t maxReadRetries = 3;
    /** First retry waits this long; later retries double it... */
    double retryBackoffBaseSeconds = 1e-3;
    /** ...up to this cap (bounded exponential backoff). */
    double retryBackoffMaxSeconds = 8e-3;

    // ---- object lifecycle (append log + compaction, delta_lifecycle.h) ----

    /** Background compaction triggers; enabled by default (a store
     *  that never appends schedules no events). */
    CompactionPolicy compaction;
};

} // namespace fusion::store

#endif // FUSION_STORE_OPTIONS_H
