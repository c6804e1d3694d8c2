/**
 * @file
 * The delta lifecycle of mutable objects: the replicated per-object
 * delta log, the merge of live segments into queries and get(), and
 * the fold (lifecycle::Compactor or compactObject) of base + sealed
 * segments into the next base generation, which ObjectStore installs.
 */
#ifndef FUSION_STORE_DELTA_LIFECYCLE_H
#define FUSION_STORE_DELTA_LIFECYCLE_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "format/writer.h"
#include "lifecycle/compactor.h"
#include "lifecycle/delta_log.h"
#include "query/ast.h"
#include "read_path.h"
#include "stage_dag.h"

namespace fusion::store {

class ObjectStore;

/** Outcome of an append (lifecycle delta log). */
struct AppendResult {
    uint64_t seq = 0;          // position in the object's delta log
    uint64_t rows = 0;
    uint64_t segmentBytes = 0; // serialized fpax segment size
    size_t replicas = 0;
    double simulatedAppendSeconds = 0.0;
};

class DeltaLifecycle : public lifecycle::CompactionHost
{
  public:
    /** `store` owns the base generations a fold reads and replaces. */
    DeltaLifecycle(sim::Cluster &cluster, const StoreOptions &options,
                   obs::Observability &obs, ReadPath &read_path,
                   StageDag &stages, ObjectStore &store)
        : cluster_(cluster), options_(options), obs_(obs),
          readPath_(read_path), stages_(stages), store_(store),
          compactor_(*this, options.compaction)
    {
    }
    DeltaLifecycle(const DeltaLifecycle &) = delete;
    DeltaLifecycle &operator=(const DeltaLifecycle &) = delete;

    /**
     * Appends rows to an fpax object: the batch is serialized as a
     * standalone fpax segment, replicated deltaReplicas ways and added
     * to the object's delta log. Readers and queries immediately see
     * the new rows merged on top of the base generation; the
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
    lifecycle::Compactor &compactor() { return compactor_; }

    // CompactionHost (called by lifecycle::Compactor):
    double lifecycleNowSeconds() const override;
    void lifecycleScheduleAfter(double delay_seconds,
                                std::function<void()> fn) override;
    lifecycle::DeltaLogStats
    deltaLogStats(const std::string &object) const override;
    Status compactObjectNow(const std::string &object,
                            uint64_t seal_seq) override;

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

    /** Folds every live delta segment of the object (if any) into the
     *  planned base results: sim tasks, appended values (base then
     *  delta, for every column alike), row counts and EXPLAIN entries. */
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
    Result<Replica> readDeltaSegment(const lifecycle::DeltaSegment &segment);

    /** Drops the segments with seq <= up_to_seq from their replicas. */
    void dropDeltaBlocks(const lifecycle::DeltaLog &log,
                         uint64_t up_to_seq);

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
    std::map<std::string, lifecycle::DeltaLog> deltaLogs_;
    lifecycle::Compactor compactor_;
};

} // namespace fusion::store

#endif // FUSION_STORE_DELTA_LIFECYCLE_H
