/**
 * @file
 * The stage DAG: how a planned query becomes simulated time. Planners
 * emit typed SimTasks (byte and CPU-work counts) in a QueryPlan;
 * StageDag turns them into DES acquisitions (NIC, disk, CPU) and the
 * store's wire.* counters, for ObjectStore::queryAsync and the
 * shared-scan admission window alike.
 */
#ifndef FUSION_STORE_STAGE_DAG_H
#define FUSION_STORE_STAGE_DAG_H

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "manifest.h"
#include "obs/observability.h"
#include "options.h"
#include "query/ast.h"
#include "sim/cluster.h"

namespace fusion::store {

/** Outcome of a query, including the paper's breakdown dimensions. */
struct QueryOutcome {
    query::QueryResult result;
    double latencySeconds = 0.0;   // simulated wall time
    double diskSeconds = 0.0;      // resource-seconds by class
    double cpuSeconds = 0.0;
    double networkSeconds = 0.0;
    uint64_t networkBytes = 0;     // remote bytes moved for this query
    size_t rowGroupsScanned = 0;
    size_t rowGroupsSkipped = 0;
    size_t filterChunkFetches = 0;   // chunks reassembled for filtering
    size_t filterChunkPushdowns = 0; // filters executed on storage nodes
    size_t projectionPushdowns = 0;
    size_t projectionFetches = 0;
    /** Filter chunks evaluated at the coordinator from the hot-chunk
     *  cache (no wire, no disk). */
    size_t filterChunkCached = 0;
    /** Projection chunks whose verdict the cache flipped to local. */
    size_t projectionCachedLocal = 0;
    /** Pushdowns rerouted to coordinator-side evaluation because the
     *  chunk's node was faulted when the query was planned. */
    size_t pushdownFallbacks = 0;
    /** Parity range rebuilds this query ran (degraded reads). */
    uint64_t parityReconstructions = 0;
    /** Timed-out block-read attempts this query retried. */
    uint64_t readRetries = 0;
    /** Delta-log segments merged on top of the base generation. */
    size_t deltaSegmentsScanned = 0;
    /** Per-chunk pushdown-decision report; filled when the store's
     *  obs().explainEnabled is set (FusionStore only). */
    std::shared_ptr<const obs::QueryExplain> explain;
};

/** What a SimTask moves or computes. */
enum class TaskKind {
    kPieceFetch,         // one healthy piece of a chunk, raw bytes
    kStripeRange,        // a survivor range read for a parity rebuild
    kFilterPushdown,     // filter evaluated on the node, bitmap reply
    kProjectionPushdown, // selected values computed on the node
    kAggregatePushdown,  // (count, sum, min, max) computed on the node
    kChunkFetch,         // the whole compressed chunk to the coordinator
    kDeltaFetch,         // a delta segment's touched chunks
    kCachedLocal,        // evaluated from the coordinator's cache
};

/** One coordinator<->node interaction in a query plan. */
struct SimTask {
    SimTask(TaskKind task_kind, const ObjectManifest &manifest,
            uint32_t chunk_id, size_t node_id, uint64_t request_bytes,
            uint64_t disk_bytes, double node_cpu_work, uint64_t reply_bytes,
            double coord_cpu_work)
        : kind(task_kind), object(manifest.name),
          generation(manifest.generation), chunkId(chunk_id),
          nodeId(node_id), requestBytes(request_bytes),
          diskBytes(disk_bytes), nodeCpuWork(node_cpu_work),
          replyBytes(reply_bytes), coordCpuWork(coord_cpu_work)
    {
    }

    TaskKind kind = TaskKind::kPieceFetch;
    /** The object (and its base generation) the task was planned on,
     *  and the chunk it serves (UINT32_MAX for non-chunk tasks). */
    std::string object;
    uint64_t generation = 0;
    uint32_t chunkId = UINT32_MAX;
    size_t nodeId = 0;
    uint64_t requestBytes = 0; // coordinator -> node
    uint64_t diskBytes = 0;    // sequential read at the node
    double nodeCpuWork = 0.0;  // decode/eval bytes at the node
    uint64_t replyBytes = 0;   // node -> coordinator
    double coordCpuWork = 0.0; // decode/eval bytes at coordinator

    /** Span name for the tracer ("chunk_fetch", "filter_pushdown", ...). */
    const char *label() const;
    /** Filter, projection or aggregate pushdown. */
    bool isPushdown() const;

    // ---- shared-scan metadata (sched::SharedScanScheduler) ----

    /**
     * Identity of the data movement for cross-query dedup. Two
     * tasks with equal non-empty keys (planned against the same
     * store state) represent byte-identical work whose reply can be
     * shared; empty means never shareable.
     */
    std::string shareKey;
    /** The chunk's sizes, the admission window's Cost Equation
     *  inputs (see query/cost.h). */
    uint64_t chunkStoredBytes = 0; // wire cost if fetched instead
    uint64_t chunkPlainBytes = 0;
    /** Coordinator decode work if this pushdown is converted to a
     *  fetch, and the per-extra-consumer row-selection pass. */
    double fetchDecodeWork = 0.0;
    double consumerSelectWork = 0.0;
};

/** A fully planned query: real results plus simulation byte counts. */
struct QueryPlan {
    size_t coordinatorId = 0;
    std::vector<SimTask> filterTasks;
    std::vector<SimTask> projectionTasks;
    /** Coordinator CPU work between the stages (bitmap combine and
     *  any chunk decodes that had to happen at the coordinator). */
    double interStageCoordWork = 0.0;
    /** Pure waiting the coordinator accumulated before the filter
     *  stage (retry backoff against faulted nodes). */
    double extraLatencySeconds = 0.0;
    /** The client reply the planner encoded: wire bytes, the plain
     *  size of the same values, and the CPU work to encode
     *  (coordinator) and again to decode (client) it. */
    uint64_t clientReplyBytes = 0;
    uint64_t clientReplyPlainBytes = 0;
    double clientReplyWork = 0.0;
    QueryOutcome outcome;
};

class StageDag
{
  public:
    StageDag(sim::Cluster &cluster, const StoreOptions &options,
             obs::Observability &obs)
        : cluster_(cluster), options_(options), obs_(obs)
    {
    }

    /**
     * Runs one planned task of a stage: `projection` selects the stage's
     * task list, `ti` indexes it. Must signal `join` exactly once.
     */
    using TaskDispatch = std::function<void(
        bool projection, size_t ti, std::shared_ptr<sim::Join> join)>;

    /**
     * The stage DAG every query runs through: client RPC -> retry
     * backoff -> filter_stage -> inter-stage coordinator CPU ->
     * projection_stage -> client reply (coordinator encode, transfer,
     * client decode). Each stage hands its tasks to `dispatch` (the
     * admission window dedups them across queries); an empty dispatch
     * runs every task alone through executeTask, as queryAsync does.
     * The DAG owns the query / filter_stage / projection_stage spans
     * (`span_args` leads the query span's args), the inter-stage and
     * client-exchange accounting, latencySeconds (measured from
     * `start_seconds`) and the latency record. `done` fires at the
     * client reply with plan->outcome final.
     */
    void simulateQuery(std::shared_ptr<QueryPlan> plan, double start_seconds,
                       const std::string &span_args, TaskDispatch dispatch,
                       std::function<void()> done);

    /**
     * Runs one planned task: folds its resource and wire costs into
     * `out` and the store's wire.* counters (`projection_stage` selects
     * the counter family), then executes it in simulated time — request
     * transfer, disk, node CPU, reply transfer, coordinator CPU, then
     * one join->signal(). The admission window executes each
     * deduplicated task once, which is where the shared-scan wire
     * savings become visible. Safe to call only from the simulation
     * driver.
     */
    void executeTask(const SimTask &task, size_t coordinator,
                     bool projection_stage, QueryOutcome &out,
                     std::shared_ptr<sim::Join> join);

    /**
     * The shared-fetch form of a planned projection (or aggregate)
     * pushdown: the compressed chunk crosses the wire once to the
     * coordinator, which pays the decode; the pushdown's shared-scan
     * metadata rides along so every converted consumer keys the same
     * `cfetch|object|chunk` transfer. The admission window calls this
     * when a chunk's merged Cost Equation verdict flips to fetch before
     * its transfer issued.
     */
    SimTask makeSharedFetchTask(const SimTask &pushdown) const;

    /**
     * A streamed write (put or append): the client uploads
     * `upload_bytes` to `coordinator`, which sends each (node, bytes)
     * entry to that node's disk. The coordinator's own entries skip
     * the network; zero-byte entries take a seek-free disk turn. `done`
     * fires with the elapsed simulated seconds once every write lands.
     */
    void streamWrite(size_t coordinator, uint64_t upload_bytes,
                     std::vector<std::pair<size_t, uint64_t>> writes,
                     std::function<void(double seconds)> done);

  private:
    sim::Cluster &cluster_;
    const StoreOptions &options_;
    obs::Observability &obs_;

    // Instruments resolved once; hot paths skip the registry's name map.
    obs::Counter &wireFilterRequest_ =
        obs_.metrics.counter("wire.filter.request_bytes");
    obs::Counter &wireFilterReply_ =
        obs_.metrics.counter("wire.filter.reply_bytes");
    obs::Counter &wireProjectionRequest_ =
        obs_.metrics.counter("wire.projection.request_bytes");
    obs::Counter &wireProjectionReply_ =
        obs_.metrics.counter("wire.projection.reply_bytes");
    obs::Counter &wireClientRequest_ =
        obs_.metrics.counter("wire.client.request_bytes");
    obs::Counter &wireClientReply_ =
        obs_.metrics.counter("wire.client.reply_bytes");
    obs::Counter &wireClientReplyPlain_ =
        obs_.metrics.counter("wire.client.reply_plain_bytes");
    // 100 us .. ~10 s in x2 steps covers the simulated latency range.
    obs::Histogram &queryLatency_ = obs_.metrics.histogram(
        "query.latency_seconds", obs::exponentialBounds(1e-4, 2.0, 17));
};

} // namespace fusion::store

#endif // FUSION_STORE_STAGE_DAG_H
