/**
 * @file
 * The analytics object store core. ObjectStore keeps the manifests,
 * Put (layout + erasure coding + placement), the data plane (real
 * decode / filter / projection), the coordinator cache glue and the
 * public entry points; ReadPath (read_path.h), DeltaLifecycle
 * (delta_lifecycle.h) and StageDag (stage_dag.h) carry degraded
 * reads, appends and simulated time. Subclasses define how
 * objects are laid out and how queries are planned:
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
 * the plan moves. Every query reads its chunks through the read path
 * and opens each once; nothing it opens outlives it, so every faulted
 * read is charged to the query that made it.
 */
#ifndef FUSION_STORE_OBJECT_STORE_H
#define FUSION_STORE_OBJECT_STORE_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/chunk_cache.h"
#include "delta_lifecycle.h"
#include "ec/reed_solomon.h"
#include "format/chunk_codec.h"
#include "obs/observability.h"
#include "query/bitmap.h"
#include "query/parser.h"
#include "read_path.h"
#include "stage_dag.h"

namespace fusion::store {

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
    /** Set by putAsync only: the write time the DES measured. */
    double simulatedPutSeconds = 0.0;
};

class ObjectStore
{
  public:
    ObjectStore(sim::Cluster &cluster, const StoreOptions &options);
    virtual ~ObjectStore();

    /** "baseline" or "fusion". */
    virtual const char *kindName() const = 0;

    /**
     * Stores an object; fpax objects get format-aware treatment. The
     * name must be non-empty and free of '@' and '|' (InvalidArgument
     * otherwise).
     */
    Result<PutResult> put(const std::string &name, Bytes object);

    /**
     * put() plus a simulated write path through the cluster: the client
     * uploads to the coordinator, which streams data and parity blocks
     * to their nodes (NIC + disk, queued against any concurrent work).
     * `done` fires in simulated time with simulatedPutSeconds measured
     * by the DES.
     */
    void putAsync(const std::string &name, Bytes object,
                  std::function<void(Result<PutResult>)> done);

    /** DeltaLifecycle::appendAsync. */
    void
    appendAsync(const std::string &name, const format::Table &rows,
                std::function<void(Result<AppendResult>)> done)
    {
        lifecycle_.appendAsync(name, rows, std::move(done));
    }

    /**
     * Reassembles the full object (degraded-read capable). An object
     * with a non-empty delta log returns the merged materialization —
     * base rows plus appended rows re-serialized under the base's
     * writer options, byte-identical to the post-compaction base.
     */
    Result<Bytes> get(const std::string &name);

    /** Byte-range read of an object (of its merged form, as get()). */
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
     * Does nothing, and is kept as an empty function for existing
     * callers: the store keeps no data-plane state between queries, so
     * every query already reads the (possibly faulted) nodes. The
     * coordinator cache (chunkCache()) models coordinator state and is
     * kept correct by invalidation, so it is not dropped either.
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

    /** The stage DAG every query's simulated time runs through. */
    StageDag &stages() { return stages_; }
    /** The delta log, merge and fold of appended objects. */
    DeltaLifecycle &lifecycle() { return lifecycle_; }

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

    /** The coordinator hot-chunk cache (disabled when capacity is 0). */
    cache::ChunkCache &chunkCache() { return chunkCache_; }
    const cache::ChunkCache &chunkCache() const { return chunkCache_; }

    /**
     * Admits one chunk of `object`'s base generation `generation` into
     * the coordinator cache, checking its pieces directly against the
     * nodes' block maps (no fault accounting — this models the
     * coordinator retaining bytes it already moved). Refuses when the
     * cache is off, the object is unknown or no longer at that
     * generation, any holding node is unresponsive or a block is
     * shorter than its piece (degraded bytes never enter the cache).
     * The shared-scan scheduler calls this after converting a merged
     * pushdown into a fetch.
     */
    bool admitChunkToCache(const std::string &object, uint64_t generation,
                           uint32_t chunk_id);

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

    // ---- data plane (real bytes) ----

    /** Results of the real data-plane execution shared by planners. */
    struct DataPlane {
        /** Aggregate columns carry their selected values here;
         *  planQueryForBatch reduces them after the delta merge. */
        query::QueryResult result;
        /** Final ANDed bitmap per row group; empty optional = skipped
         *  via zone maps (no scan needed). */
        std::vector<std::optional<query::Bitmap>> rowGroupBitmaps;
        /** Per row group of a query filtering on two or more columns,
         *  each filter column's ANDed bitmap (q.filterColumns() order);
         *  empty otherwise, where the one column's bitmap is
         *  rowGroupBitmaps[rg] itself. */
        std::vector<std::vector<query::Bitmap>> filterColumnBitmaps;
        double selectivity = 0.0; // matched / total rows

        // Reply sizes, filled by sizeReplies for the base only: a delta
        // segment's pushdown replies are never shipped.

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

    /** Raw (stored) bytes of one (row group, column) chunk. */
    using ChunkBytesFn =
        std::function<Result<Bytes>(size_t row_group, size_t column)>;

    /**
     * The data-plane kernel over one fpax file, late-materialised:
     * zone-map pruning, per-(row group, predicate) bitmaps evaluated on
     * the opened chunks (dictionary chunks on their codes) and ANDed
     * per column and per row group, then a decode of only the selected
     * rows of every projected chunk. Opens the zone-map survivors'
     * filter chunks, then the projected chunks of the row groups with
     * a match, each chunk once per call: `chunk_bytes` fetches serially
     * in request order (degraded reads and fault.* counters stay
     * deterministic), then decompression fans out on the shared
     * ThreadPool. Leaves the reply sizes empty. The base fetches
     * through the read path (executeDataPlane), a delta segment from
     * its replica.
     */
    static Result<DataPlane> runDataPlane(const format::FileMetadata &meta,
                                          const query::Query &q,
                                          const ChunkBytesFn &chunk_bytes);

    /** runDataPlane over the object's base, plus its reply sizes. */
    Result<DataPlane> executeDataPlane(const ObjectManifest &manifest,
                                       const query::Query &q);

    /**
     * Fills a base data plane's reply sizes. One parallel row-group pass
     * Snappy-sizes every bitmap; a row group filtered on one column
     * replies with its own bitmap, so that bitmap is compressed once for
     * both sizes. A projection reply is its row group's slice of the
     * column's result values, plain-encoded.
     */
    static void sizeReplies(const format::FileMetadata &meta,
                            const query::Query &q, DataPlane &plane);

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

    // Resolved once so hot paths skip the registry's name map. The
    // fault.* tallies are ReadPath's; planQueryForBatch folds one plan's
    // share of them into its outcome.
    obs::Counter &readRetries_ = obs_.metrics.counter("fault.read_retries");
    obs::Counter &parityReconstructions_ =
        obs_.metrics.counter("fault.parity_reconstructions");
    obs::DoubleCounter &backoffSeconds_ =
        obs_.metrics.doubleCounter("fault.backoff_seconds");
    obs::Counter &pushdownFallbacks_ =
        obs_.metrics.counter("fault.pushdown_fallbacks");

    /**
     * The semantic hot-chunk cache: entries are kept correct by explicit
     * invalidation (deleteObject, degraded reads touching the chunk).
     */
    cache::ChunkCache chunkCache_;
    StageDag stages_;
    ReadPath readPath_;

  private:
    /**
     * Builds the client reply of a planned query, after the delta
     * merge. A non-aggregate column whose every footer chunk is
     * dictionary-encoded ships as format::encodeChunk bytes (default
     * options). That encoding gives the values back bit for bit, so
     * the result keeps them as they are. Any other column ships plain,
     * an aggregate as 16 bytes and a zero-row column as 0 bytes. Sets
     * the plan's clientReply* fields and the EXPLAIN report's
     * per-column reply lines.
     */
    void encodeClientReply(const ObjectManifest &manifest,
                           QueryPlan &plan) const;

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

    friend class DeltaLifecycle;
    /**
     * A fold's swap: writes `object` as the next generation of `base`,
     * laid out with the re-stripe hint `hot_chunks`, and swaps it in —
     * the old generation's blocks and every cached trace of them go.
     * Returns the new manifest; on error nothing changed.
     */
    Result<const ObjectManifest *>
    installGeneration(const ObjectManifest &base, const Bytes &object,
                      const std::vector<uint32_t> &hot_chunks);

    /** Drops one generation's blocks from their nodes. */
    void dropGeneration(const ObjectManifest &manifest);
    /**
     * Forgets every derived trace of an object whose content changed:
     * cache residency and the chunk-heat entries (including its "@gN"
     * / "@delta" aliases) — a later re-stripe or fusion_top must never
     * see them.
     */
    void forgetObject(const std::string &name);

    /** The one range reader behind both get()s: bytes [offset, offset
     *  + size) of the object's merged form; the whole object when
     *  `size` is empty. */
    Result<Bytes> readObject(const std::string &name, uint64_t offset,
                             std::optional<uint64_t> size);

    DeltaLifecycle lifecycle_;
};

} // namespace fusion::store

#endif // FUSION_STORE_OBJECT_STORE_H
