/**
 * @file
 * The delta lifecycle of mutable objects: the replicated per-object
 * delta log, the merge of live segments into queries and get(), and
 * the fold of base + sealed segments into the next base generation,
 * which ObjectStore installs. Folds run on demand (compactObject) or
 * in the background, on simulated time, under StoreOptions::compaction.
 *
 * Event discipline: background folds schedule bounded, strictly-future
 * events only in response to appends (or their own finite re-arms), so
 * a quiescent store never keeps the DES alive — engine.run() still
 * returns once the last sealed segment is folded. An aborted fold
 * (e.g. too many nodes down to read the base) deliberately does NOT
 * re-arm; the next append re-triggers it, which keeps a permanently
 * degraded cluster from looping the engine forever.
 */
#ifndef FUSION_STORE_DELTA_LIFECYCLE_H
#define FUSION_STORE_DELTA_LIFECYCLE_H

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "format/writer.h"
#include "query/ast.h"
#include "read_path.h"
#include "stage_dag.h"

namespace fusion::store {

class ObjectStore;

/** One append batch: a standalone fpax micro-file, replicated r ways
 *  (never erasure-coded: the paper's small-object regime, where coding
 *  overhead dwarfs the data). */
struct DeltaSegment {
    uint64_t seq = 0;           // position in the log, stamped on append
    uint64_t rows = 0;
    uint64_t bytes = 0;         // serialized fpax file size
    double appendSeconds = 0.0; // simulated time the append landed
    std::string blockKey;       // storage key on every replica
    std::vector<size_t> replicaNodes;
    format::FileMetadata meta;  // footer of the segment file
};

/**
 * Ordered, monotonically numbered append log for one object. Queries
 * merge every live segment on top of the base generation; a fold seals
 * a prefix ([0, seal_seq]) and drops it once the new base is in.
 */
class DeltaLog
{
  public:
    /** Stamps `segment.seq` and takes ownership. Returns the seq. */
    uint64_t append(DeltaSegment segment);

    /** In append order, so the front segment is the oldest. */
    const std::vector<DeltaSegment> &segments() const { return segments_; }
    bool empty() const { return segments_.empty(); }
    size_t size() const { return segments_.size(); }
    uint64_t nextSeq() const { return nextSeq_; }
    /** Seq of the newest segment; only meaningful when !empty(). */
    uint64_t lastSeq() const;
    /** Serialized bytes of every live segment. */
    uint64_t bytes() const;

    /** Drops every segment with seq <= `seq` (compaction swap). The
     *  sequence counter never rewinds, so segments appended during a
     *  compaction window keep their place in the order. */
    void dropUpTo(uint64_t seq);

  private:
    uint64_t nextSeq_ = 0;
    std::vector<DeltaSegment> segments_;
};

/** Outcome of an append (lifecycle delta log). */
struct AppendResult {
    uint64_t seq = 0;          // position in the object's delta log
    uint64_t rows = 0;
    uint64_t segmentBytes = 0; // serialized fpax segment size
    size_t replicas = 0;
    /** Set by appendAsync only: the ingest time the DES measured. */
    double simulatedAppendSeconds = 0.0;
};

class DeltaLifecycle
{
  public:
    /** `store` owns the base generations a fold reads and replaces. */
    DeltaLifecycle(sim::Cluster &cluster, const StoreOptions &options,
                   obs::Observability &obs, ReadPath &read_path,
                   StageDag &stages, ObjectStore &store)
        : cluster_(cluster), options_(options), obs_(obs),
          readPath_(read_path), stages_(stages), store_(store)
    {
    }
    DeltaLifecycle(const DeltaLifecycle &) = delete;
    DeltaLifecycle &operator=(const DeltaLifecycle &) = delete;

    /**
     * Appends rows to an fpax object: the batch is serialized as a
     * standalone fpax segment, replicated deltaReplicas ways and added
     * to the object's delta log. Readers and queries immediately see
     * the new rows merged on top of the base generation; a background
     * fold later seals the log into a fresh FAC layout. The schema
     * must equal the object's schema exactly.
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
     * new base generation — the foreground form of a background fold.
     * No-op when the log is empty.
     */
    Status compactObject(const std::string &name);

    /** The object's delta log, or nullptr when it has none. */
    const DeltaLog *deltaLog(const std::string &name) const;

    /**
     * Modeled duration of folding the object's base and live log: both
     * stream off disk and across the wire once, and the re-encoded base
     * streams back out. A sealed fold lands this far in the future.
     */
    double estimatedFoldSeconds(const std::string &object) const;

    /**
     * The base plus every delta segment with seq <= up_to_seq, as the
     * fpax file writeTable would make of the merged rows under the
     * base's row-group size (format::extendFile: the base's full
     * leading row groups are copied through, only the tail is
     * re-encoded). The one merge behind get() and compaction, so a
     * merged get() is byte-identical to the post-fold base.
     */
    Result<format::WrittenFile>
    materializeMerged(const ObjectManifest &manifest, const DeltaLog &log,
                      uint64_t up_to_seq);

    /** Folds every live delta segment of the object (if any) into the
     *  planned base results: sim tasks, appended values (base then
     *  delta, for every column alike), row counts and EXPLAIN entries.
     *  Each segment runs the base's data-plane kernel over chunks its
     *  replica decodes. */
    Status mergeDeltaIntoPlan(const ObjectManifest &manifest,
                              const query::Query &resolved,
                              QueryPlan &plan);

    /** Drops the object's log, its segments' blocks and any pending
     *  fold (deleteObject). */
    void forget(const std::string &name);

  private:
    /** A delta segment's first responsive replica still holding it. */
    struct Replica {
        size_t nodeId = 0;
        const Bytes *block = nullptr; // valid until the node changes
    };
    Result<Replica> readDeltaSegment(const DeltaSegment &segment);

    /** Drops the segments with seq <= up_to_seq from their replicas. */
    void dropDeltaBlocks(const DeltaLog &log, uint64_t up_to_seq);

    /**
     * Folds segments [0, seal_seq] of `object` into a fresh base
     * generation and swaps the manifest atomically, leaving the old
     * generation fully intact on any failure. A missing object (deleted
     * while the fold was in flight) is a successful no-op.
     */
    Status compactObjectNow(const std::string &object, uint64_t seal_seq);

    // ---- background folds ----

    /**
     * Called after `object`'s log grew (or a fold landed). When a size
     * threshold is already crossed the log is sealed at its current
     * lastSeq and the fold is scheduled estimatedFoldSeconds ahead —
     * queries in that window still see the old generation plus every
     * segment. Otherwise an age check is armed at the oldest segment's
     * deadline.
     */
    void noteAppend(const std::string &object);
    bool sizeTriggered(const DeltaLog &log) const;
    void scheduleFold(const std::string &object, const DeltaLog &log);
    void ageCheck(const std::string &object);
    void runFold(const std::string &object, uint64_t seal_seq);

    sim::Cluster &cluster_;
    const StoreOptions &options_;
    obs::Observability &obs_;
    ReadPath &readPath_;
    StageDag &stages_;
    ObjectStore &store_;

    // Registered even when the store never appends so metric snapshots
    // keep a stable key set.
    obs::Counter &appendAppends_ = obs_.metrics.counter("append.appends");
    obs::Counter &appendRows_ = obs_.metrics.counter("append.rows");
    obs::Counter &appendBytes_ = obs_.metrics.counter("append.segment_bytes");
    obs::Counter &appendDeltaScans_ =
        obs_.metrics.counter("append.delta_scans");
    obs::Counter &compactionRuns_ = obs_.metrics.counter("compaction.runs");
    obs::Counter &compactionAborts_ =
        obs_.metrics.counter("compaction.aborts");
    obs::Counter &compactionFoldedSegments_ =
        obs_.metrics.counter("compaction.folded_segments");
    obs::Counter &compactionBytesIn_ =
        obs_.metrics.counter("compaction.bytes_in");
    obs::Counter &compactionBytesOut_ =
        obs_.metrics.counter("compaction.bytes_out");
    obs::Counter &compactionHotColocated_ =
        obs_.metrics.counter("compaction.hot_colocated_chunks");

    /**
     * Per-object append logs. An entry outlives an emptied log (the
     * sequence counter must never rewind while the object exists) and
     * goes only with the object.
     */
    std::map<std::string, DeltaLog> deltaLogs_;
    /** Objects with an age check or fold event in flight. */
    std::set<std::string> foldPending_;
};

} // namespace fusion::store

#endif // FUSION_STORE_DELTA_LIFECYCLE_H
