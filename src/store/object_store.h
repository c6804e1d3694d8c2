/**
 * @file
 * The analytics object store core. ObjectStore implements the shared
 * machinery — Put (layout + erasure coding + placement), Get (chunk
 * reassembly with degraded reads through RS recovery), node repair,
 * the data plane (real decode / filter / projection) and the DES query
 * timing flow. Subclasses define how objects are laid out and how
 * queries are planned:
 *
 *   BaselineStore — fixed-size blocks (MinIO/Ceph practice): chunks
 *                   split across nodes; queries reassemble chunks at a
 *                   coordinator before evaluating.
 *   FusionStore   — FAC layout: chunks intact on single nodes; queries
 *                   run the paper's two-stage adaptive pushdown.
 *
 * Query execution is hybrid: results are computed on real bytes (and
 * are identical across stores — asserted in tests), while elapsed time
 * is charged to simulated disk/NIC/CPU resources from the byte counts
 * the plan moves. One per-object memo (decoded chunks and data planes)
 * skips repeated identical work so thousand-query experiments run in
 * seconds; it never changes a result or a simulated charge.
 */
#ifndef FUSION_STORE_OBJECT_STORE_H
#define FUSION_STORE_OBJECT_STORE_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/chunk_cache.h"
#include "ec/reed_solomon.h"
#include "format/writer.h"
#include "lifecycle/compactor.h"
#include "lifecycle/delta_log.h"
#include "manifest.h"
#include "obs/observability.h"
#include "query/ast.h"
#include "query/bitmap.h"
#include "query/parser.h"
#include "sim/cluster.h"

namespace fusion::store {

/** Store-wide configuration. */
struct StoreOptions {
    size_t n = 9;
    size_t k = 6;
    /** Block size for fixed-size coding (baseline and Fusion fallback).
     *  The paper uses 100 MB on ~10 GB files; scale proportionally. */
    uint64_t fixedBlockSize = 4ULL << 20;
    /** FAC fallback threshold (paper: 2%). */
    double overheadThreshold = 0.02;
    /** Bytes of a pushdown/fetch request message. */
    uint64_t requestRpcBytes = 256;
    /** Bytes of the client's query request. */
    uint64_t clientRequestBytes = 512;
    /** Apply the Cost Equation per chunk (Fusion). When false, every
     *  projection on an intact chunk is pushed down. */
    bool adaptivePushdown = true;
    /** Extension (paper future work): compute aggregates on storage
     *  nodes so pure-aggregate projections reply with scalars. */
    bool aggregatePushdown = false;
    /**
     * Coordinator hot-chunk cache capacity in bytes; 0 disables the
     * tier. Chunks the planner fetched to the coordinator are admitted
     * and later queries evaluate them locally, flipping the Cost
     * Equation (see cache/chunk_cache.h). Defaults from the
     * FUSION_CACHE_BYTES environment variable.
     */
    uint64_t cacheBytes = cache::defaultCacheBytesFromEnv();

    // ---- degraded-read robustness (fault injection, see DESIGN.md) ----

    /**
     * A block read counts as timed out when its node is dead or so
     * slowed that the modeled response (slowFactor x rpcLatency)
     * exceeds this bound. Timed-out reads retry with backoff, then
     * reconstruct from parity.
     */
    double readTimeoutSeconds = 1e-3;
    /** Retry attempts before a timed-out block read is declared lost. */
    size_t maxReadRetries = 3;
    /** First retry waits this long; later retries double it... */
    double retryBackoffBaseSeconds = 1e-3;
    /** ...up to this cap (bounded exponential backoff). */
    double retryBackoffMaxSeconds = 8e-3;

    // ---- object lifecycle (append log + compaction, src/lifecycle/) ----

    /** Replication factor for append delta-log segments (small-object
     *  regime: replicated, never erasure-coded). Capped at numNodes. */
    size_t deltaReplicas = 3;
    /** Background compaction triggers; enabled by default (a store
     *  that never appends schedules no events). */
    lifecycle::CompactionPolicy compaction;
};

/** Outcome of a Put. */
struct PutResult {
    fac::LayoutKind layoutKind = fac::LayoutKind::kFixed;
    double overheadVsOptimal = 0.0;
    uint64_t objectBytes = 0;
    uint64_t storedBytes = 0; // data + padding + parity
    size_t numChunks = 0;     // column chunks (pseudo-chunks excluded)
    size_t numStripes = 0;
    double splitFraction = 0.0;
    /** Wall-clock of stripe construction — reporting only; it never
     *  feeds simulated time (which must be reproducible). */
    double layoutSeconds = 0.0;
    double simulatedPutSeconds = 0.0;
};

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

/** Outcome of an append (lifecycle delta log). */
struct AppendResult {
    uint64_t seq = 0;          // position in the object's delta log
    uint64_t rows = 0;
    uint64_t segmentBytes = 0; // serialized fpax segment size
    size_t replicas = 0;
    double simulatedAppendSeconds = 0.0;
};

/** Base class; see file comment. */
class ObjectStore : public lifecycle::CompactionHost
{
  public:
    ObjectStore(sim::Cluster &cluster, const StoreOptions &options);
    virtual ~ObjectStore();

    /** "baseline" or "fusion". */
    virtual const char *kindName() const = 0;

    /** Stores an object; fpax objects get format-aware treatment. */
    Result<PutResult> put(const std::string &name, Bytes object);

    /**
     * put() plus a simulated write path through the cluster: the client
     * uploads to the coordinator, which streams data and parity blocks
     * to their nodes (NIC + disk, queued against any concurrent work).
     * `done` fires in simulated time with simulatedPutSeconds measured
     * by the DES instead of the analytic model.
     */
    void putAsync(const std::string &name, Bytes object,
                  std::function<void(Result<PutResult>)> done);

    // ---- object lifecycle (src/lifecycle/) ----

    /**
     * Appends rows to an fpax object: the batch is serialized as a
     * standalone fpax segment, replicated deltaReplicas ways (never
     * erasure-coded — the paper's small-object regime) and added to the
     * object's delta log. Readers and queries immediately see the new
     * rows merged on top of the base generation; the background
     * Compactor later seals and folds the log into a fresh FAC layout.
     * The schema must equal the object's schema exactly.
     */
    Result<AppendResult> append(const std::string &name,
                                const format::Table &rows);

    /**
     * append() plus a simulated ingest path: the client uploads the
     * segment to the coordinator, which streams it to the replicas
     * (NIC + disk, queued against concurrent query traffic). `done`
     * fires in simulated time with simulatedAppendSeconds measured by
     * the DES.
     */
    void appendAsync(const std::string &name, const format::Table &rows,
                     std::function<void(Result<AppendResult>)> done);

    /**
     * Synchronously folds the object's entire delta log (if any) into a
     * new base generation — the foreground form of what the background
     * Compactor schedules. No-op when the log is empty.
     */
    Status compactObject(const std::string &name);

    /** The object's delta log, or nullptr when it has none. */
    const lifecycle::DeltaLog *deltaLog(const std::string &name) const;

    /** The background compactor (policy from StoreOptions::compaction). */
    lifecycle::Compactor &compactor() { return *compactor_; }

    // CompactionHost (called by lifecycle::Compactor):
    double lifecycleNowSeconds() const override;
    void lifecycleScheduleAfter(double delay_seconds,
                                std::function<void()> fn) override;
    lifecycle::DeltaLogStats
    deltaLogStats(const std::string &object) const override;
    Status compactObjectNow(const std::string &object,
                            uint64_t seal_seq) override;

    /**
     * Reassembles the full object (degraded-read capable). An object
     * with a non-empty delta log returns the merged materialization —
     * base rows plus appended rows re-serialized under the base's
     * writer options, byte-identical to the post-compaction base.
     */
    Result<Bytes> get(const std::string &name);

    /** Byte-range read of an object. */
    Result<Bytes> get(const std::string &name, uint64_t offset,
                      uint64_t size);

    bool contains(const std::string &name) const;
    Result<const ObjectManifest *> manifest(const std::string &name) const;

    /** Removes an object and drops its blocks from the nodes. */
    Status deleteObject(const std::string &name);

    /** Names of all stored objects, sorted. */
    std::vector<std::string> listObjects() const;

    /** Aggregate capacity statistics for the whole store. */
    struct StoreStats {
        size_t objectCount = 0;
        uint64_t logicalBytes = 0; // sum of object sizes
        uint64_t storedBytes = 0;  // data + padding + parity on nodes
        uint64_t minNodeBytes = 0; // least-loaded storage node
        uint64_t maxNodeBytes = 0; // most-loaded storage node
        double overheadVsOptimal = 0.0; // aggregate, as in the paper

        double
        nodeImbalance() const
        {
            return minNodeBytes == 0
                       ? 0.0
                       : static_cast<double>(maxNodeBytes) /
                             static_cast<double>(minNodeBytes);
        }
    };
    StoreStats stats() const;

    /**
     * This store's observability bundle: fault/cache/wire metrics, the
     * simulated-time span tracer and the EXPLAIN toggle. Process-wide
     * instruments (thread pool, EC dispatch) are in
     * obs::MetricsRegistry::global() instead. The robustness counters
     * benches and tests assert on are the cumulative fault.* entries:
     * read_retries, read_timeouts, parity_reconstructions,
     * rebuild_read_bytes, degraded_chunk_reads, pushdown_fallbacks and
     * backoff_seconds.
     */
    obs::Observability &obs() { return obs_; }
    const obs::Observability &obs() const { return obs_; }

    /**
     * Clears the data-plane memo so subsequent reads hit the (possibly
     * faulted) nodes again. Fault tests use this to force re-execution
     * of the degraded read path. The semantic hot-chunk cache
     * (chunkCache()) is NOT dropped — it models coordinator state and
     * is kept correct by invalidation.
     */
    void dropCaches();

    /**
     * Executes a query asynchronously in simulated time; `done` fires
     * when the simulated reply reaches the client. Call
     * cluster().engine().run() to drive the simulation.
     */
    void queryAsync(const query::Query &q,
                    std::function<void(Result<QueryOutcome>)> done);

    /** Plans, simulates and runs the engine to completion. */
    Result<QueryOutcome> query(const query::Query &q);

    /** Parses SQL, then query(). */
    Result<QueryOutcome> querySql(const std::string &sql);

    /**
     * Rebuilds every block that should live on `node_id` from the other
     * nodes' blocks (after a wipe). Returns blocks rebuilt.
     */
    Result<size_t> repairNode(size_t node_id);

    sim::Cluster &cluster() { return cluster_; }
    const StoreOptions &options() const { return options_; }

    /** One coordinator<->node interaction in a query plan. */
    struct SimTask {
        SimTask() = default;
        SimTask(size_t node_id, uint64_t request_bytes,
                uint64_t disk_bytes, double node_cpu_work,
                uint64_t reply_bytes, double coord_cpu_work,
                const char *span_label = "chunk_fetch")
            : nodeId(node_id), requestBytes(request_bytes),
              diskBytes(disk_bytes), nodeCpuWork(node_cpu_work),
              replyBytes(reply_bytes), coordCpuWork(coord_cpu_work),
              label(span_label)
        {
        }

        size_t nodeId = 0;
        uint64_t requestBytes = 0; // coordinator -> node
        uint64_t diskBytes = 0;    // sequential read at the node
        double nodeCpuWork = 0.0;  // decode/eval bytes at the node
        uint64_t replyBytes = 0;   // node -> coordinator
        double coordCpuWork = 0.0; // decode/eval bytes at coordinator
        /** Span name for the tracer ("chunk_fetch", "pushdown", ...). */
        const char *label = "chunk_fetch";

        // ---- shared-scan metadata (sched::SharedScanScheduler) ----

        /**
         * Identity of the data movement for cross-query dedup. Two
         * tasks with equal non-empty keys (planned against the same
         * store state) represent byte-identical work whose reply can be
         * shared; empty means never shareable.
         */
        std::string shareKey;
        /** Chunk this task serves, or UINT32_MAX for non-chunk tasks. */
        uint32_t chunkId = UINT32_MAX;
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
        /** The client reply encodeClientReply built: wire bytes, the
         *  plain size of the same values, and the CPU work to encode
         *  (coordinator) and again to decode (client) it. */
        uint64_t clientReplyBytes = 0;
        uint64_t clientReplyPlainBytes = 0;
        double clientReplyWork = 0.0;
        QueryOutcome outcome;
    };

    // ---- query execution (queryAsync and sched::SharedScanScheduler) ----

    /**
     * Resolves and plans a query without simulating it. Fault deltas
     * observed during planning (parity rebuilds, retries, backoff) are
     * folded into the plan, live delta segments merge in, and each
     * aggregate reduces once (query::computeAggregate) before the client
     * reply is encoded. The admission window plans each query at submit
     * and starts its stage DAG later.
     */
    Result<std::shared_ptr<QueryPlan>>
    planQueryForBatch(const query::Query &q);

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
     * client decode). Each stage hands its tasks to
     * `dispatch`; queryAsync runs every task alone (accountTask +
     * executeTask), the admission window dedups them across queries.
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
     * Executes one planned task in simulated time: request transfer,
     * disk, node CPU, reply transfer, coordinator CPU, then one
     * join->signal(). Safe to call only from the simulation driver.
     */
    void executeTask(const SimTask &task, size_t coordinator,
                     std::shared_ptr<sim::Join> join);

    /**
     * Folds one task's resource and wire costs into `out` and the
     * store's wire.* counters (`projection_stage` selects the counter
     * family). The admission window accounts each deduplicated task
     * exactly once — that is where the shared-scan wire savings become
     * visible.
     */
    void accountTask(const SimTask &task, size_t coordinator,
                     bool projection_stage, QueryOutcome &out) const;

    /**
     * The shared-fetch form of a planned projection pushdown: the
     * compressed chunk crosses the wire once to the coordinator, which
     * pays the decode; the pushdown's shared-scan metadata rides along
     * so every converted consumer keys the same `cfetch|obj|chunk`
     * transfer. The admission window calls this when a chunk's merged
     * Cost Equation verdict flips to fetch before its transfer issued.
     */
    SimTask makeSharedFetchTask(const SimTask &pushdown) const;

    /** The coordinator hot-chunk cache (disabled when capacity is 0). */
    cache::ChunkCache &chunkCache() { return chunkCache_; }
    const cache::ChunkCache &chunkCache() const { return chunkCache_; }

    /**
     * Admits one chunk into the coordinator cache, checking its pieces
     * directly against the nodes' block maps (no fault accounting —
     * this models the coordinator retaining bytes it already moved).
     * Refuses when the cache is off, the object is unknown, any holding
     * node is unresponsive or a block is shorter than its piece
     * (degraded bytes never enter the cache). The shared-scan scheduler
     * calls this after converting a merged pushdown into a fetch.
     */
    bool admitChunkToCache(const std::string &object, uint32_t chunk_id);

  protected:
    /** Subclass hook: choose the stripe layout for a new object. */
    virtual fac::ObjectLayout
    buildLayout(const std::vector<fac::ChunkExtent> &extents) = 0;

    /**
     * Subclass hook: layout for a compaction re-stripe with a
     * heat-driven co-location hint (new-generation chunk ids the
     * re-stripe policy wants packed together). Defaults to ignoring
     * the hint; FusionStore packs the hot set into leading stripes.
     */
    virtual fac::ObjectLayout
    buildRestripeLayout(const std::vector<fac::ChunkExtent> &extents,
                        const std::vector<uint32_t> &hot_chunks)
    {
        (void)hot_chunks;
        return buildLayout(extents);
    }

    /** Subclass hook: plan a (resolved) query against a manifest. */
    virtual Result<QueryPlan> planQuery(const ObjectManifest &manifest,
                                        const query::Query &q) = 0;

    /**
     * CPU work units to read-decompress-decode a chunk and evaluate one
     * operation over it: the compressed bytes stream through the
     * decompressor and a quarter of the decoded output is touched per
     * evaluation pass (dictionary decode short-circuits most bytes).
     */
    static double
    chunkDecodeWork(const format::ChunkMeta &chunk)
    {
        return static_cast<double>(chunk.storedSize) +
               0.25 * static_cast<double>(chunk.plainSize);
    }

    /** CPU work to select/materialize rows from an already decoded
     *  chunk (projection on a chunk the node just filtered). */
    static double
    chunkSelectWork(const format::ChunkMeta &chunk)
    {
        return 0.25 * static_cast<double>(chunk.plainSize);
    }

    // ---- data plane (real bytes, memoized) ----

    /** Reassembled raw bytes of one chunk (degraded-read capable). */
    Result<Bytes> readChunkBytes(const ObjectManifest &manifest,
                                 uint32_t chunk_id);

    /**
     * Fills the object's memo with the decoded form of a set of (row
     * group, column) chunks, counting one cache.decode.hit or miss per
     * distinct chunk: raw bytes are fetched serially (degraded reads and
     * fault.* counters stay deterministic), then decompress/decode fans
     * out on the shared ThreadPool. Results are bit-identical to serial
     * decoding for any FUSION_THREADS value.
     */
    Status prefetchDecodedChunks(
        const ObjectManifest &manifest,
        const std::vector<std::pair<size_t, size_t>> &rg_cols);

    /** Results of the real data-plane execution shared by planners. */
    struct DataPlane {
        /** Aggregate columns carry their selected values here;
         *  planQueryForBatch reduces them after the delta merge. */
        query::QueryResult result;
        /** Final ANDed bitmap per row group; empty optional = skipped
         *  via zone maps (no scan needed). */
        std::vector<std::optional<query::Bitmap>> rowGroupBitmaps;
        double selectivity = 0.0; // matched / total rows
        /** Plain-encoded selected-values size per (row group, column)
         *  actually projected — the pushdown reply payload. */
        std::map<std::pair<size_t, size_t>, uint64_t> projectionReplySize;
        /** Snappy-compressed wire size of the final per-row-group
         *  bitmap (what the coordinator forwards for projection
         *  pushdown); 0 for skipped row groups. */
        std::vector<uint64_t> rowGroupBitmapWireSize;
        /** Snappy-compressed wire size of the per-(row group, filter
         *  column) bitmap a storage node returns from filter pushdown
         *  (predicates on the same column are ANDed node-side). */
        std::map<std::pair<size_t, size_t>, uint64_t> filterReplyWireSize;
    };

    /**
     * Runs filters and projections on real data, memoized per (object,
     * query). The pointer stays valid until the object's memo entry is
     * dropped (dropCaches, delete, overwrite or compaction swap).
     */
    Result<const DataPlane *> executeDataPlane(const ObjectManifest &manifest,
                                               const query::Query &q);

    /** Expands `SELECT *` and validates column names against a schema. */
    Result<query::Query> resolveQuery(const query::Query &q,
                                      const format::Schema &schema) const;

    /** Pushdown eligibility of a chunk under current node health. */
    enum class ChunkPushdownState {
        kPushable, // intact on a single healthy node
        kFaulted,  // intact on a single node, but that node is faulted
        kSplit,    // split across nodes (fixed layout fallback)
    };
    ChunkPushdownState chunkPushdownState(const ObjectManifest &manifest,
                                          uint32_t chunk_id) const;

    /**
     * Node health as the read path sees it: alive and fast enough that
     * the modeled response stays inside the read timeout. Dead and
     * severely slowed (gray-failed) nodes both fail this test.
     */
    bool nodeResponsive(const sim::StorageNode &node) const;

    /**
     * Looks up a block under the timeout + bounded-backoff retry
     * policy. When the node is unresponsive, retries are modeled at
     * future simulated times (consulting the cluster's fault injector,
     * when armed, so a flapping node can recover mid-retry). Returns
     * nullptr when the block is declared lost — the caller falls back
     * to parity reconstruction. Counts into the fault.* counters.
     */
    const Bytes *fetchBlockWithRetry(const ObjectManifest &manifest,
                                     size_t stripe, size_t block_index);

    /**
     * Health-adaptive retry budget for one read (ROADMAP scale-out
     * item): healthy nodes keep the configured maxReadRetries (so
     * fault-free runs are bit-identical to the fixed policy), nodes in
     * an open timeout streak with recent flap evidence get two extra
     * retries (they tend to come back mid-backoff), and dead nodes
     * fail fast with a single probe retry so reads fall over to parity
     * reconstruction without burning the full backoff ladder.
     */
    size_t retryBudgetFor(size_t node_id, double now_seconds) const;

    /**
     * Refreshes the node's health gauge and, on a band transition,
     * bumps health.updates, emits a `health_update` instant span and
     * records the transition in the flight recorder.
     */
    void noteHealthEvent(double now_seconds, size_t node_id);

    /** Renders + retains a flight-recorder dump (no-op when the
     *  recorder is disabled); bumps health.flight_dumps and emits a
     *  `flight_record_dump` instant span. */
    void dumpFlightRecord(double now_seconds, const char *reason);

    /**
     * Appends fetch tasks that pull a chunk's raw bytes to the
     * coordinator: one task per piece on a responsive node, and for
     * each stripe holding lost pieces one range read per survivor that
     * rebuildReads picks (known-zero ranges issue no task). The last
     * task carries `coord_cpu_work` plus the EC decode of k x range
     * bytes per degraded stripe. Returns total fetched bytes.
     */
    uint64_t appendChunkFetchTasks(const ObjectManifest &manifest,
                                   uint32_t chunk_id, double coord_cpu_work,
                                   std::vector<SimTask> &tasks);

    // ---- coordinator hot-chunk cache (cache/chunk_cache.h) ----

    /**
     * Counted residency probe (emits a `cache_lookup` span and bumps
     * cache.chunk.{hits,misses}). Planners call this once per candidate
     * chunk; a hit flips the Cost Equation verdict to local, charged
     * as the row-selection pass (chunkSelectWork): every admission
     * followed a coordinator-side decode the admitting plan charged.
     */
    bool cacheLookupChunk(const ObjectManifest &manifest, uint32_t chunk_id);

    /** admitChunkToCache against a resolved manifest. */
    bool cacheAdmitChunk(const ObjectManifest &manifest, uint32_t chunk_id);

    sim::Cluster &cluster_;
    StoreOptions options_;
    ec::ReedSolomon rs_;
    /** Sorted so listObjects/stats/repairNode iterate in a stable,
     *  thread-count-independent order (fusion-lint: unordered-iter). */
    std::map<std::string, ObjectManifest> manifests_;
    obs::Observability obs_;

    /**
     * Counters resolved once at construction so hot paths (and const
     * methods like accountTask) skip the registry's name map.
     */
    struct Instruments {
        obs::Counter *readRetries = nullptr;
        obs::Counter *readTimeouts = nullptr;
        obs::Counter *parityReconstructions = nullptr;
        obs::Counter *rebuildReadBytes = nullptr;
        obs::Counter *degradedChunkReads = nullptr;
        obs::Counter *pushdownFallbacks = nullptr;
        obs::DoubleCounter *backoffSeconds = nullptr;
        obs::Counter *cacheDecodeHit = nullptr;
        obs::Counter *cacheDecodeMiss = nullptr;
        obs::Counter *cachePlanHit = nullptr;
        obs::Counter *cachePlanMiss = nullptr;
        obs::Counter *wireFilterRequest = nullptr;
        obs::Counter *wireFilterReply = nullptr;
        obs::Counter *wireProjectionRequest = nullptr;
        obs::Counter *wireProjectionReply = nullptr;
        obs::Counter *wireClientRequest = nullptr;
        obs::Counter *wireClientReply = nullptr;
        obs::Counter *wireClientReplyPlain = nullptr;
        obs::Counter *cacheChunkHits = nullptr;
        obs::Counter *cacheChunkMisses = nullptr;
        obs::Counter *cacheChunkEvictions = nullptr;
        obs::Gauge *cacheChunkBytes = nullptr;
        obs::Histogram *queryLatency = nullptr;
        obs::Counter *healthUpdates = nullptr;
        obs::Counter *flightDumps = nullptr;
        obs::Counter *appendAppends = nullptr;
        obs::Counter *appendRows = nullptr;
        obs::Counter *appendBytes = nullptr;
        obs::Counter *appendDeltaScans = nullptr;
        obs::Counter *compactionRuns = nullptr;
        obs::Counter *compactionAborts = nullptr;
        obs::Counter *compactionFoldedSegments = nullptr;
        obs::Counter *compactionBytesIn = nullptr;
        obs::Counter *compactionBytesOut = nullptr;
        obs::Counter *compactionHotColocated = nullptr;
        /** health.node.<id> score gauges, indexed by node id. */
        std::vector<obs::Gauge *> healthGauges;
    };
    Instruments ins_;

    /**
     * The semantic hot-chunk cache. Unlike the data-plane memo below it
     * survives dropCaches(): entries are kept correct by explicit
     * invalidation (deleteObject, degraded reads touching the chunk),
     * not by being experiment-speed artifacts.
     */
    cache::ChunkCache chunkCache_;

  private:
    /**
     * One survivor read of a range rebuild: bytes [lo, hi) of block
     * `block` of the stripe, clipped to the block's true size. lo == hi
     * means the range lies past the block's end: it is known zero and
     * needs no I/O, so its node is never contacted.
     */
    struct RebuildRead {
        size_t block = 0;
        size_t nodeId = 0;
        uint64_t lo = 0;
        uint64_t hi = 0;
    };

    /**
     * The first k survivors, in block order, that a rebuild of bytes
     * [offset, offset + size) of `stripe` reads: known-zero ranges and
     * blocks on responsive nodes that still hold them. Fewer than k
     * entries means the range cannot be rebuilt. The simulated plan and
     * the host rebuild both read exactly these survivors.
     */
    std::vector<RebuildRead> rebuildReads(const ObjectManifest &manifest,
                                          size_t stripe, uint64_t offset,
                                          uint64_t size) const;
    /**
     * Range rebuild: reconstructs bytes [offset, offset + size) of every
     * block of `stripe` from the rebuildReads survivors, each sliced to
     * the range and zero-extended past its true size. Systematic RS is
     * linear at each byte position, so a range needs only the same
     * range of k survivors. Entry b of the result is block b's range.
     */
    Result<std::vector<Bytes>> rebuildRange(const ObjectManifest &manifest,
                                            size_t stripe, uint64_t offset,
                                            uint64_t size);
    /**
     * Builds the client reply of a planned query, after the delta
     * merge. A non-aggregate column whose every footer chunk is
     * dictionary-encoded ships as format::encodeChunk bytes (default
     * options) and its result becomes the decodeChunk of those bytes;
     * any other column ships plain, an aggregate as 16 bytes and a
     * zero-row column as 0 bytes. Sets the plan's clientReply* fields
     * and the EXPLAIN report's per-column reply lines.
     */
    Status encodeClientReply(const ObjectManifest &manifest,
                             QueryPlan &plan) const;
    /** Accounts one query's client request/reply exchange into its
     *  outcome and the wire.client.* counters. */
    void accountClientExchange(QueryPlan &plan) const;
    /**
     * Records one completed query's latency into the histogram, the
     * "query.latency_seconds" sliding window and (when enabled) the
     * flight recorder, so windowed rates see every query.
     */
    void recordQueryLatency(double now_seconds, double latency_seconds);

    // ---- lifecycle internals ----

    /** Builds and writes an object's stripes WITHOUT touching
     *  manifests_ — shared by put() (generation 0) and compaction
     *  (generation + 1 with the re-stripe hint). */
    struct StoredObject {
        ObjectManifest manifest;
        PutResult result;
    };
    Result<StoredObject>
    buildStoredObject(const std::string &name, const Bytes &object,
                      uint64_t generation,
                      const std::vector<uint32_t> &hot_chunks);

    /** Row-group size the base was written with (first full group). */
    uint64_t baseRowGroupRows(const ObjectManifest &manifest) const;

    /** The stored block of a replicated delta segment (first
     *  responsive replica); valid until that node's blocks change. */
    Result<const Bytes *>
    readDeltaSegment(const lifecycle::DeltaSegment &segment);

    /** The whole object reassembled through readChunkBytes. */
    Result<Bytes> readObjectBytes(const ObjectManifest &manifest);

    /**
     * The base plus every delta segment with seq <= up_to_seq, as the
     * fpax file writeTable would make of the merged rows under the
     * base's row-group size (format::extendFile: the base's full
     * leading row groups are copied through, only the tail is
     * re-encoded). The one merge behind get() and compaction, so a
     * merged get() is byte-identical to the post-fold base.
     */
    Result<format::WrittenFile>
    materializeMerged(const ObjectManifest &manifest,
                      const lifecycle::DeltaLog &log, uint64_t up_to_seq);

    /** Folds every live delta segment into the planned base results:
     *  sim tasks, appended values (base then delta, for every column
     *  alike), row counts and EXPLAIN entries. */
    Status mergeDeltaIntoPlan(const ObjectManifest &manifest,
                              const lifecycle::DeltaLog &log,
                              const query::Query &resolved,
                              QueryPlan &plan);

    /** Drops the object's delta segments from their replicas. */
    void dropDeltaBlocks(const lifecycle::DeltaLog &log,
                         uint64_t up_to_seq);

    /** Cluster fault-listener callback (crashes dump the recorder). */
    void onFaultEvent(double seconds, int kind, size_t node,
                      double slow_factor);

    /** Last reported health band per node (health_update dedup). */
    std::vector<obs::NodeHealthTracker::Band> lastBand_;
    size_t faultListenerId_ = 0;

    /**
     * The data-plane memo, one entry per object name: an experiment-speed
     * artifact that never decides a result or a simulated charge. An
     * entry goes whenever the object's content changes (delete,
     * overwrite, compaction swap); dropCaches() clears them all.
     */
    struct ObjectMemo {
        /** Chunk id -> decoded column. */
        std::map<uint32_t, format::ColumnData> chunks;
        /** Resolved query string -> its data plane. */
        std::map<std::string, DataPlane> planes;
    };
    std::map<std::string, ObjectMemo> memo_;

    /**
     * Per-object append logs. An entry outlives an emptied log (the
     * sequence counter must never rewind while the object exists) and
     * is erased only by deleteObject.
     */
    std::map<std::string, lifecycle::DeltaLog> deltaLogs_;
    std::unique_ptr<lifecycle::Compactor> compactor_;
};

} // namespace fusion::store

#endif // FUSION_STORE_OBJECT_STORE_H
