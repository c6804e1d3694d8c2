/**
 * @file
 * Coordinator hot-chunk cache. A bounded (capacity in bytes) record of
 * which chunks the coordinator holds and how large each is; residency
 * and size are all it keeps. Query results come from the store's data
 * plane, so no caller needs the bytes themselves. Residency
 * bends the per-chunk Cost Equation (query/cost.h): a cached chunk
 * makes coordinator-side evaluation free of wire and disk cost (only
 * the row-selection pass is charged), so the planner's verdict flips
 * to "local" regardless of selectivity x compressibility.
 *
 * Eviction is SIEVE (FIFO queue + visited bits + a lazily moving
 * hand): newly admitted entries start unvisited at the queue head;
 * lookups set the visited bit without moving the entry; the hand scans
 * from the tail (oldest) toward the head, clearing visited bits, and
 * evicts the first unvisited entry it meets. Under stationary skewed
 * popularity SIEVE approximates LFU — one-hit wonders are evicted on
 * the hand's first pass while repeatedly looked-up entries survive —
 * which is what a Zipfian object workload needs from a small cache.
 *
 * Determinism: every operation mutates plain ordered containers in
 * call order, keyed on logical recency (queue position + visited
 * bits), never on wall time. All callers sit on the serial planning
 * path of the simulation driver, so the hit/miss/eviction sequence is
 * bit-identical for any FUSION_THREADS value.
 */
#ifndef FUSION_CACHE_CHUNK_CACHE_H
#define FUSION_CACHE_CHUNK_CACHE_H

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace fusion::cache {

/** See file comment. Not thread-safe by design: all callers are on
 *  the simulation driver's serial planning path. */
class ChunkCache
{
  public:
    using Key = std::pair<std::string, uint32_t>; // (object, chunk id)

    explicit ChunkCache(uint64_t capacity_bytes);

    /** A zero-capacity cache rejects all admissions and never hits. */
    bool enabled() const { return capacityBytes_ > 0; }
    uint64_t capacityBytes() const { return capacityBytes_; }
    uint64_t sizeBytes() const { return sizeBytes_; }
    size_t entryCount() const { return queue_.size(); }

    /**
     * Counted residency probe: tallies a hit or miss, and on a hit
     * sets the entry's visited bit (its SIEVE survival ticket).
     * Returns true on a hit.
     */
    bool lookup(const std::string &object, uint32_t chunk_id);

    /** Uncounted residency probe (tests and idempotent admission). */
    bool contains(const std::string &object, uint32_t chunk_id) const;

    /**
     * Admits a chunk of `size` bytes, evicting from the hand position
     * until it fits. Oversized (> capacity) and empty chunks are
     * rejected. Re-admitting a resident chunk just marks it visited
     * (its size is kept). Returns true when the chunk is resident on
     * return.
     */
    bool admit(const std::string &object, uint32_t chunk_id,
               uint64_t size);

    /** Drops one chunk (no-op if absent). Degraded reads call this so
     *  reconstruction-touched chunks never claim residency. */
    void invalidate(const std::string &object, uint32_t chunk_id);

    /** Drops every chunk of an object (delete / overwrite). */
    void invalidateObject(const std::string &object);

    /** Drops everything; tallies are kept. */
    void clear();

    // ---- instrumentation ----

    /** Local tallies (always maintained; usable without a registry). */
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t evictions() const { return evictions_; }
    /** New entries accepted (re-admissions of resident chunks are not
     *  counted). The admission window's convert-to-shared-fetch path
     *  asserts on this: a mid-window conversion must admit the chunk
     *  exactly once. */
    uint64_t admissions() const { return admissions_; }

    /**
     * Mirrors tallies into registry instruments: cache.chunk.hits /
     * misses / evictions counters and the cache.chunk.bytes gauge.
     * Any pointer may be null. Must be bound before first use.
     */
    void bindMetrics(obs::Counter *hits, obs::Counter *misses,
                     obs::Counter *evictions, obs::Gauge *bytes);

    /** Resident keys in queue order, newest first (test introspection). */
    std::vector<Key> residentKeys() const;

  private:
    struct Slot {
        Key key;
        uint64_t size = 0;
        bool visited = false;
    };
    using Queue = std::list<Slot>;

    /** Evicts exactly one entry by the SIEVE hand scan. Requires a
     *  non-empty queue. */
    void evictOne();
    /** Moves the hand off `it` before erasure, then erases it. */
    void erase(Queue::iterator it);
    void syncBytesGauge();

    uint64_t capacityBytes_ = 0;
    uint64_t sizeBytes_ = 0;
    Queue queue_; // front = newest, back = oldest
    std::map<Key, Queue::iterator> index_;
    /** SIEVE hand; only meaningful while handValid_. */
    Queue::iterator hand_;
    bool handValid_ = false;

    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t admissions_ = 0;
    obs::Counter *hitCounter_ = nullptr;
    obs::Counter *missCounter_ = nullptr;
    obs::Counter *evictionCounter_ = nullptr;
    obs::Gauge *bytesGauge_ = nullptr;
};

} // namespace fusion::cache

#endif // FUSION_CACHE_CHUNK_CACHE_H
