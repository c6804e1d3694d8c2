/**
 * @file
 * The fault-tolerant read path: the erasure code's decode side, the
 * survivor rule (which k blocks a rebuild reads) and the timeout /
 * bounded-backoff retry policy with its node-health feedback. Host
 * reads and the simulated fetch tasks share the survivor rule, so a
 * plan reads exactly the blocks the real rebuild read.
 */
#ifndef FUSION_STORE_READ_PATH_H
#define FUSION_STORE_READ_PATH_H

#include <vector>

#include "cache/chunk_cache.h"
#include "ec/reed_solomon.h"
#include "stage_dag.h"

namespace fusion::store {

class ReadPath
{
  public:
    /** Registers the fault.* and health.* instruments and listens to
     *  the cluster's fault events (crashes dump the flight recorder). */
    ReadPath(sim::Cluster &cluster, const StoreOptions &options,
             const ec::ReedSolomon &code, obs::Observability &obs,
             cache::ChunkCache &cache);
    ~ReadPath();
    ReadPath(const ReadPath &) = delete;
    ReadPath &operator=(const ReadPath &) = delete;

    /**
     * Node health as the read path sees it: alive and fast enough that
     * the modeled response stays inside the read timeout. Dead and
     * severely slowed (gray-failed) nodes both fail this test.
     */
    bool nodeResponsive(const sim::StorageNode &node) const;

    /**
     * Reassembled raw bytes of one chunk. Lost pieces are rebuilt from
     * parity, one range rebuild per stripe; a degraded read drops the
     * chunk from the coordinator cache and dumps the flight recorder.
     */
    Result<Bytes> readChunkBytes(const ObjectManifest &manifest,
                                 uint32_t chunk_id);

    /** Bytes [offset, offset + size) of the stored object, reassembled
     *  from the chunks overlapping the range (in bounds by contract). */
    Result<Bytes> readRange(const ObjectManifest &manifest, uint64_t offset,
                            uint64_t size);

    /** A whole block rebuilt from the survivors, at its true size —
     *  what repair writes back onto a wiped node. */
    Result<Bytes> rebuildBlock(const ObjectManifest &manifest,
                               const ObjectManifest::BlockRef &ref);

    /**
     * Appends fetch tasks that pull a chunk's raw bytes to the
     * coordinator: one task per piece on a responsive node, and for
     * each stripe holding lost pieces one range read per survivor that
     * the rebuild would read (known-zero ranges issue no task). The last
     * task carries `coord_cpu_work` plus the EC decode of k x range
     * bytes per degraded stripe. Returns total fetched bytes.
     */
    uint64_t appendChunkFetchTasks(const ObjectManifest &manifest,
                                   uint32_t chunk_id, double coord_cpu_work,
                                   std::vector<SimTask> &tasks);

  private:
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
     * Health-adaptive retry budget for one read: healthy nodes keep the
     * configured maxReadRetries (so fault-free runs are bit-identical
     * to the fixed policy), nodes in an open timeout streak with recent
     * flap evidence get two extra retries (they tend to come back
     * mid-backoff), and dead nodes fail fast with a single probe retry
     * so reads fall over to parity reconstruction without burning the
     * full backoff ladder.
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
     * The survivor rule: the first k survivors, in block order, that a
     * rebuild of bytes [offset, offset + size) of `stripe` reads —
     * known-zero ranges and blocks on responsive nodes that still hold
     * them. Fewer than k entries means the range cannot be rebuilt.
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

    sim::Cluster &cluster_;
    const StoreOptions &options_;
    const ec::ReedSolomon &code_;
    obs::Observability &obs_;
    cache::ChunkCache &cache_;

    obs::Counter &readRetries_ = obs_.metrics.counter("fault.read_retries");
    obs::Counter &readTimeouts_ = obs_.metrics.counter("fault.read_timeouts");
    obs::Counter &parityReconstructions_ =
        obs_.metrics.counter("fault.parity_reconstructions");
    obs::Counter &rebuildReadBytes_ =
        obs_.metrics.counter("fault.rebuild_read_bytes");
    obs::Counter &degradedChunkReads_ =
        obs_.metrics.counter("fault.degraded_chunk_reads");
    obs::DoubleCounter &backoffSeconds_ =
        obs_.metrics.doubleCounter("fault.backoff_seconds");
    obs::Counter &healthUpdates_ = obs_.metrics.counter("health.updates");
    obs::Counter &flightDumps_ = obs_.metrics.counter("health.flight_dumps");
    /** health.node.<id> score gauges, indexed by node id. */
    std::vector<obs::Gauge *> healthGauges_;

    /** Last reported health band per node (health_update dedup). */
    std::vector<obs::NodeHealthTracker::Band> lastBand_;
    size_t faultListenerId_ = 0;
};

} // namespace fusion::store

#endif // FUSION_STORE_READ_PATH_H
