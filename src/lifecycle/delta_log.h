/**
 * @file
 * Per-object append delta log — the mutable half of the object
 * lifecycle (ROADMAP "Mutable objects"). Appended row batches are
 * serialized as small standalone fpax files and replicated r ways
 * (never erasure-coded: the paper's small-object regime, where coding
 * overhead dwarfs the data). The log is strictly ordered by sequence
 * number; queries merge every live segment on top of the base
 * generation, and the background Compactor seals a prefix
 * ([0, seal_seq]) before folding it into a fresh base layout.
 */
#ifndef FUSION_LIFECYCLE_DELTA_LOG_H
#define FUSION_LIFECYCLE_DELTA_LOG_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "format/column.h"
#include "format/metadata.h"
#include "query/ast.h"

namespace fusion::lifecycle {

/** One sealed-on-write append batch: a replicated fpax micro-file. */
struct DeltaSegment {
    uint64_t seq = 0;           // position in the log, stamped on append
    uint64_t rows = 0;
    uint64_t bytes = 0;         // serialized fpax file size
    double appendSeconds = 0.0; // simulated time the append landed
    std::string blockKey;       // storage key on every replica
    std::vector<size_t> replicaNodes;
    format::FileMetadata meta;  // footer of the segment file
};

/** Snapshot the Compactor's trigger policy evaluates. */
struct DeltaLogStats {
    size_t segments = 0;
    uint64_t bytes = 0;
    uint64_t rows = 0;
    uint64_t lastSeq = 0;
    double oldestAppendSeconds = -1.0; // -1 when the log is empty
    /** Modeled duration of folding base + deltas into a fresh layout
     *  (filled by the store, which knows the node bandwidths). */
    double estimatedCompactSeconds = 0.0;
};

/** Ordered, monotonically numbered append log for one object. */
class DeltaLog
{
  public:
    /** Stamps `segment.seq` and takes ownership. Returns the seq. */
    uint64_t append(DeltaSegment segment);

    const std::vector<DeltaSegment> &segments() const { return segments_; }
    bool empty() const { return segments_.empty(); }
    size_t size() const { return segments_.size(); }
    uint64_t nextSeq() const { return nextSeq_; }
    /** Seq of the newest segment; only meaningful when !empty(). */
    uint64_t lastSeq() const;

    /** Drops every segment with seq <= `seq` (compaction swap). The
     *  sequence counter never rewinds, so segments appended during a
     *  compaction window keep their place in the order. */
    void dropUpTo(uint64_t seq);

    /** Stats without estimatedCompactSeconds (the host fills that). */
    DeltaLogStats stats() const;

  private:
    uint64_t nextSeq_ = 0;
    std::vector<DeltaSegment> segments_;
};

/** What scanning one segment for one query produced. */
struct DeltaScanResult {
    uint64_t rowsScanned = 0;
    uint64_t rowsMatched = 0;
    /** Stored bytes of the chunks the scan touched (zone-map survivors'
     *  filter chunks + matched row groups' projection chunks) — the
     *  wire/disk cost of shipping the scan's inputs off a replica. */
    uint64_t touchedStoredBytes = 0;
    /** Decode + evaluate CPU work over those chunks. */
    double scanWork = 0.0;
    /** Selected values per resolved projection, in projection order
     *  (empty column for COUNT(*)). */
    std::vector<format::ColumnData> selected;

    struct RowGroupDetail {
        uint32_t rowGroup = 0;
        uint64_t rows = 0;
        double selectivity = 0.0;
    };
    /** Row groups actually scanned (zone-map skips excluded). */
    std::vector<RowGroupDetail> rowGroups;
};

/**
 * Scans one delta segment with an already-resolved query: zone-map
 * row-group skipping, conjunctive predicate bitmaps, row selection per
 * projection — the same real-bytes data plane the base executes, in
 * miniature. `meta` is the segment's footer; `file` its full bytes.
 */
Result<DeltaScanResult> scanDeltaSegment(const format::FileMetadata &meta,
                                         Slice file,
                                         const query::Query &resolved);

} // namespace fusion::lifecycle

#endif // FUSION_LIFECYCLE_DELTA_LOG_H
