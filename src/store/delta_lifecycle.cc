#include "delta_lifecycle.h"

#include <algorithm>

#include "format/reader.h"
#include "object_store.h"

namespace fusion::store {

namespace {

/** A log seals once its serialized segments reach this many bytes. */
constexpr uint64_t kMaxDeltaBytes = 1ULL << 20;
/** Floor for every scheduled fold delay, so events are strictly future. */
constexpr double kMinFoldDelaySeconds = 1e-4;
/** Below this total decayed heat the re-stripe signal is noise. */
constexpr double kMinRestripeHeat = 1.0;
/** A column is hot when its heat share exceeds this x the uniform one. */
constexpr double kHotColumnFactor = 2.0;

/** Row-group size the base was written with. */
uint64_t
baseRowGroupRows(const ObjectManifest &manifest)
{
    // The first row group is always full-size (only the last may be
    // short), so it recovers the base's writer option; the merged
    // materialization and the compacted base re-serialize under it and
    // therefore stay byte-identical to each other.
    const auto &groups = manifest.fileMeta.rowGroups;
    return groups.empty() ? (uint64_t{1} << 16) : groups.front().numRows;
}

/** The heat-driven re-stripe verdict, recorded in EXPLAIN/telemetry. */
struct RestripeDecision {
    /** Chunk ids of the NEW generation to co-locate (hot columns x all
     *  row groups); empty when !heatDriven. */
    std::vector<uint32_t> hotChunks;
    bool heatDriven = false;
    /** "heat-colocate cols=...", "insufficient-heat", "uniform-heat". */
    std::string reason;
};

/**
 * Aggregates the old generation's decayed per-chunk heat by column
 * (chunk id modulo column count — the fpax chunk numbering) and flags
 * the columns whose share exceeds kHotColumnFactor x the uniform share,
 * provided the total clears kMinRestripeHeat: a stats-driven step toward
 * Qd-tree-style workload-aware layout (PAPERS.md). Hot columns map to
 * the chunk ids they will occupy in the new generation's row groups.
 */
RestripeDecision
decideRestripe(const obs::ChunkHeatTable &heat, double now_seconds,
               const std::string &old_share_name, size_t num_columns,
               size_t old_data_chunks, size_t new_row_groups)
{
    RestripeDecision out;
    if (num_columns < 2) {
        out.reason = "uniform-heat";
        return out;
    }

    std::vector<double> column_heat(num_columns, 0.0);
    double total = 0.0;
    for (size_t chunk = 0; chunk < old_data_chunks; ++chunk) {
        double h = heat.heat(old_share_name,
                             static_cast<uint32_t>(chunk), now_seconds);
        column_heat[chunk % num_columns] += h;
        total += h;
    }
    if (total < kMinRestripeHeat) {
        out.reason = "insufficient-heat";
        return out;
    }

    const double uniform = total / static_cast<double>(num_columns);
    std::vector<size_t> hot_columns;
    for (size_t col = 0; col < num_columns; ++col) {
        if (column_heat[col] > kHotColumnFactor * uniform)
            hot_columns.push_back(col);
    }
    if (hot_columns.empty() || hot_columns.size() == num_columns) {
        out.reason = "uniform-heat";
        return out;
    }

    out.heatDriven = true;
    out.reason = "heat-colocate cols=";
    for (size_t i = 0; i < hot_columns.size(); ++i) {
        if (i > 0)
            out.reason += ",";
        out.reason += std::to_string(hot_columns[i]);
    }
    for (size_t rg = 0; rg < new_row_groups; ++rg) {
        for (size_t col : hot_columns)
            out.hotChunks.push_back(
                static_cast<uint32_t>(rg * num_columns + col));
    }
    return out;
}

} // namespace

uint64_t
DeltaLog::append(DeltaSegment segment)
{
    segment.seq = nextSeq_++;
    const uint64_t seq = segment.seq;
    segments_.push_back(std::move(segment));
    return seq;
}

uint64_t
DeltaLog::lastSeq() const
{
    return segments_.empty() ? 0 : segments_.back().seq;
}

uint64_t
DeltaLog::bytes() const
{
    uint64_t total = 0;
    for (const DeltaSegment &segment : segments_)
        total += segment.bytes;
    return total;
}

void
DeltaLog::dropUpTo(uint64_t seq)
{
    segments_.erase(std::remove_if(segments_.begin(), segments_.end(),
                                   [seq](const DeltaSegment &segment) {
                                       return segment.seq <= seq;
                                   }),
                    segments_.end());
}

Result<AppendResult>
DeltaLifecycle::append(const std::string &name, const format::Table &rows)
{
    auto m = store_.manifest(name);
    if (!m.isOk())
        return m.status();
    const ObjectManifest *base = m.value();
    if (!base->isFpax)
        return Status::failedPrecondition(
            "append requires an analytics (fpax) object");
    if (rows.numRows() == 0)
        return Status::invalidArgument("cannot append an empty batch");
    if (!(rows.schema() == base->fileMeta.schema))
        return Status::invalidArgument(
            "appended schema does not match object '" + name + "'");
    FUSION_RETURN_IF_ERROR(rows.validate());

    // Like put(), the synchronous form runs in one simulated instant;
    // appendAsync wraps the streaming replication in a timed span.
    obs::Tracer::Scoped span(obs_.tracer, "append");

    format::WriterOptions writer_options;
    writer_options.rowGroupRows = baseRowGroupRows(*base);
    auto written = format::writeTable(rows, writer_options);
    if (!written.isOk())
        return written.status();

    DeltaLog &log = deltaLogs_[name];
    DeltaSegment segment;
    segment.rows = rows.numRows();
    segment.bytes = written.value().bytes.size();
    segment.appendSeconds = cluster_.engine().now();
    segment.blockKey =
        base->shareName() + "#d" + std::to_string(log.nextSeq());
    segment.meta = written.value().metadata;
    const size_t replicas =
        std::min(options_.deltaReplicas, cluster_.numNodes());
    segment.replicaNodes = cluster_.chooseNodes(replicas);
    for (size_t node_id : segment.replicaNodes)
        cluster_.node(node_id).putBlock(segment.blockKey,
                                        Bytes(written.value().bytes));

    AppendResult result;
    result.rows = segment.rows;
    result.segmentBytes = segment.bytes;
    result.replicas = replicas;
    result.seq = log.append(std::move(segment));
    appendAppends_.add(1);
    appendRows_.add(result.rows);
    appendBytes_.add(result.segmentBytes);
    noteAppend(name);
    return result;
}

void
DeltaLifecycle::appendAsync(const std::string &name,
                            const format::Table &rows,
                            std::function<void(Result<AppendResult>)> done)
{
    uint64_t span = obs_.tracer.beginSpan(
        "append", "\"object\": \"" + name + "\", \"rows\": " +
                      std::to_string(rows.numRows()));
    auto result = append(name, rows);
    if (!result.isOk()) {
        obs_.tracer.endSpan(span);
        done(result.status());
        return;
    }
    const DeltaSegment &segment = deltaLogs_.at(name).segments().back();
    std::vector<std::pair<size_t, uint64_t>> writes;
    for (size_t node_id : segment.replicaNodes)
        writes.emplace_back(node_id, segment.bytes);
    stages_.streamWrite(
        cluster_.coordinatorFor(name), segment.bytes, std::move(writes),
        [this, out = result.value(), span,
         done = std::move(done)](double seconds) mutable {
            out.simulatedAppendSeconds = seconds;
            obs_.tracer.endSpan(span);
            done(out);
        });
}

const DeltaLog *
DeltaLifecycle::deltaLog(const std::string &name) const
{
    auto it = deltaLogs_.find(name);
    return it == deltaLogs_.end() ? nullptr : &it->second;
}

double
DeltaLifecycle::estimatedFoldSeconds(const std::string &object) const
{
    const DeltaLog *log = deltaLog(object);
    uint64_t in_bytes = log == nullptr ? 0 : log->bytes();
    if (auto base = store_.manifest(object); base.isOk())
        in_bytes += base.value()->objectSize;
    const sim::NodeConfig &nc = cluster_.config().node;
    return 2.0 * static_cast<double>(in_bytes) *
           (1.0 / nc.diskBandwidth + 1.0 / nc.nicBandwidth);
}

Status
DeltaLifecycle::compactObject(const std::string &name)
{
    auto it = deltaLogs_.find(name);
    if (it == deltaLogs_.end() || it->second.empty())
        return Status::ok();
    return compactObjectNow(name, it->second.lastSeq());
}

Result<DeltaLifecycle::Replica>
DeltaLifecycle::readDeltaSegment(const DeltaSegment &segment)
{
    for (size_t node_id : segment.replicaNodes) {
        const sim::StorageNode &node = cluster_.node(node_id);
        if (!readPath_.nodeResponsive(node))
            continue;
        const Bytes *block = node.findBlock(segment.blockKey);
        if (block != nullptr)
            return Replica{node_id, block};
    }
    return Status::unavailable(
        "no responsive replica holds delta segment '" + segment.blockKey +
        "'");
}

Result<format::WrittenFile>
DeltaLifecycle::materializeMerged(const ObjectManifest &manifest,
                                  const DeltaLog &log, uint64_t up_to_seq)
{
    // Base bytes via the chunk read path: degraded-read capable, so a
    // merge (or compaction) survives dead nodes under the EC budget.
    auto base = readPath_.readRange(manifest, 0, manifest.objectSize);
    if (!base.isOk())
        return base.status();
    auto reader = format::FileReader::open(Slice(base.value()));
    if (!reader.isOk())
        return reader.status();
    format::Table appended(manifest.fileMeta.schema);
    for (const auto &segment : log.segments()) {
        if (segment.seq > up_to_seq)
            continue;
        auto replica = readDeltaSegment(segment);
        if (!replica.isOk())
            return replica.status();
        auto delta_reader =
            format::FileReader::open(Slice(*replica.value().block));
        if (!delta_reader.isOk())
            return delta_reader.status();
        auto delta = delta_reader.value().readTable();
        if (!delta.isOk())
            return delta.status();
        for (size_t col = 0; col < appended.numColumns(); ++col)
            appended.column(col).append(delta.value().column(col));
    }
    format::WriterOptions writer_options;
    writer_options.rowGroupRows = baseRowGroupRows(manifest);
    return format::extendFile(reader.value(), appended, writer_options);
}

void
DeltaLifecycle::dropDeltaBlocks(const DeltaLog &log, uint64_t up_to_seq)
{
    for (const auto &segment : log.segments()) {
        if (segment.seq > up_to_seq)
            continue;
        for (size_t node_id : segment.replicaNodes)
            cluster_.node(node_id).dropBlock(segment.blockKey);
    }
}

void
DeltaLifecycle::forget(const std::string &name)
{
    auto log = deltaLogs_.find(name);
    if (log != deltaLogs_.end()) {
        dropDeltaBlocks(log->second, UINT64_MAX);
        deltaLogs_.erase(log);
    }
    // Any in-flight event for the object still fires, but
    // compactObjectNow treats a missing object as a no-op.
    foldPending_.erase(name);
}

Status
DeltaLifecycle::compactObjectNow(const std::string &object,
                                 uint64_t seal_seq)
{
    auto m = store_.manifest(object);
    if (!m.isOk()) {
        // Deleted while the fold was in flight: a successful no-op.
        deltaLogs_.erase(object);
        return Status::ok();
    }
    auto log_it = deltaLogs_.find(object);
    if (log_it == deltaLogs_.end() || log_it->second.empty())
        return Status::ok();
    DeltaLog &log = log_it->second;
    const ObjectManifest *old = m.value();

    size_t sealed = 0;
    uint64_t sealed_bytes = 0;
    for (const auto &segment : log.segments()) {
        if (segment.seq <= seal_seq) {
            ++sealed;
            sealed_bytes += segment.bytes;
        }
    }
    if (sealed == 0)
        return Status::ok();

    uint64_t span = obs_.tracer.beginSpan(
        "compaction", "\"object\": \"" + object + "\", \"segments\": " +
                          std::to_string(sealed) +
                          ", \"generation\": " +
                          std::to_string(old->generation + 1));

    // Every fallible step runs before installGeneration swaps, so an
    // abort (e.g. too many nodes down to read the base) leaves the old
    // generation and the full delta log untouched and readable.
    auto written = materializeMerged(*old, log, seal_seq);
    if (!written.isOk()) {
        compactionAborts_.add(1);
        obs_.tracer.endSpan(span);
        return written.status();
    }

    // Heat-driven re-stripe: the old generation's access history picks
    // the columns whose chunks the new layout should co-locate.
    RestripeDecision decision = decideRestripe(
        obs_.telemetry.heat(), cluster_.engine().now(), old->shareName(),
        old->fileMeta.schema.numColumns(), old->numDataChunks(),
        written.value().metadata.numRowGroups());

    const uint64_t bytes_in = old->objectSize + sealed_bytes;
    auto installed = store_.installGeneration(*old, written.value().bytes,
                                              decision.hotChunks);
    if (!installed.isOk()) {
        compactionAborts_.add(1);
        obs_.tracer.endSpan(span);
        return installed.status();
    }
    const ObjectManifest &fresh = *installed.value();
    dropDeltaBlocks(log, seal_seq);
    log.dropUpTo(seal_seq);

    compactionRuns_.add(1);
    compactionFoldedSegments_.add(sealed);
    compactionBytesIn_.add(bytes_in);
    compactionBytesOut_.add(fresh.objectSize);
    compactionHotColocated_.add(decision.hotChunks.size());
    const std::string detail =
        "\"object\": \"" + object + "\", \"generation\": " +
        std::to_string(fresh.generation) + ", \"heat_driven\": " +
        (decision.heatDriven ? "true" : "false") + ", \"reason\": \"" +
        decision.reason + "\"";
    obs_.tracer.instant("restripe_decision", detail);
    obs_.telemetry.flight().record(cluster_.engine().now(), "compaction",
                                   detail);
    obs_.tracer.endSpan(span);
    return Status::ok();
}

bool
DeltaLifecycle::sizeTriggered(const DeltaLog &log) const
{
    return log.bytes() >= kMaxDeltaBytes ||
           log.size() >= options_.compaction.maxDeltaSegments;
}

void
DeltaLifecycle::noteAppend(const std::string &object)
{
    if (!options_.compaction.enabled || foldPending_.count(object) > 0)
        return;
    const DeltaLog *log = deltaLog(object);
    if (log == nullptr || log->empty())
        return;
    if (sizeTriggered(*log)) {
        scheduleFold(object, *log);
    } else if (options_.compaction.maxAgeSeconds > 0.0) {
        foldPending_.insert(object);
        double deadline = log->segments().front().appendSeconds +
                          options_.compaction.maxAgeSeconds;
        double delay = std::max(kMinFoldDelaySeconds,
                                deadline - cluster_.engine().now());
        cluster_.engine().schedule(delay,
                                   [this, object]() { ageCheck(object); });
    }
}

void
DeltaLifecycle::scheduleFold(const std::string &object, const DeltaLog &log)
{
    foldPending_.insert(object);
    const uint64_t seal_seq = log.lastSeq();
    // The fold lands estimatedFoldSeconds in the future. Until then
    // every query still merges the sealed segments against the old
    // generation — the crash window the recovery tests probe.
    double delay =
        std::max(kMinFoldDelaySeconds, estimatedFoldSeconds(object));
    cluster_.engine().schedule(delay, [this, object, seal_seq]() {
        runFold(object, seal_seq);
    });
}

void
DeltaLifecycle::ageCheck(const std::string &object)
{
    foldPending_.erase(object);
    const DeltaLog *log = deltaLog(object);
    if (log == nullptr || log->empty())
        return;
    const double now = cluster_.engine().now();
    const double oldest = log->segments().front().appendSeconds;
    if (sizeTriggered(*log) ||
        now - oldest + 1e-12 >= options_.compaction.maxAgeSeconds) {
        scheduleFold(object, *log);
        return;
    }
    // Deadline still ahead (newer oldest segment after a partial fold):
    // re-arm exactly once per strictly-later deadline, so the event
    // chain is finite.
    foldPending_.insert(object);
    double delay = std::max(
        kMinFoldDelaySeconds,
        oldest + options_.compaction.maxAgeSeconds - now);
    cluster_.engine().schedule(delay,
                               [this, object]() { ageCheck(object); });
}

void
DeltaLifecycle::runFold(const std::string &object, uint64_t seal_seq)
{
    Status status = compactObjectNow(object, seal_seq);
    foldPending_.erase(object);
    // Segments appended after the seal may already cross a threshold
    // again (or need an age check). An abort stays quiescent until the
    // next append re-triggers: re-arming here would keep the DES alive
    // forever on a cluster that can no longer read the base.
    if (status.isOk())
        noteAppend(object);
}

Status
DeltaLifecycle::mergeDeltaIntoPlan(const ObjectManifest &manifest,
                                   const query::Query &resolved,
                                   QueryPlan &plan)
{
    auto log = deltaLogs_.find(manifest.name);
    if (log == deltaLogs_.end() || log->second.empty())
        return Status::ok();
    // Appended values follow the base's, segment by segment — the order
    // a fresh put of the merged table scans. Aggregate columns append
    // alike; planQueryForBatch reduces them afterwards.
    query::QueryResult &res = plan.outcome.result;
    std::vector<obs::ExplainChunk> delta_explains;
    const double now = cluster_.engine().now();

    // The columns a scanned row group decodes: filter columns in
    // predicate order, then (when a row matched) projected columns by
    // name; a projected filter column pays only the selection pass.
    const format::Schema &schema = manifest.fileMeta.schema;
    std::vector<size_t> filter_cols;
    for (const auto &name : resolved.filterColumns())
        filter_cols.push_back(schema.columnIndex(name).value());
    std::vector<std::string> projected = resolved.projectionColumns();
    std::sort(projected.begin(), projected.end());
    std::vector<size_t> projected_cols;
    for (const auto &name : projected)
        projected_cols.push_back(schema.columnIndex(name).value());

    for (const auto &segment : log->second.segments()) {
        auto replica = readDeltaSegment(segment);
        if (!replica.isOk())
            return replica.status();
        auto reader = format::FileReader::open(Slice(*replica.value().block));
        if (!reader.isOk())
            return reader.status();
        std::map<std::pair<size_t, size_t>, format::ColumnData> decoded;
        ObjectStore::ChunkSource source{
            [&](const std::vector<std::pair<size_t, size_t>> &rg_cols) {
                for (const auto &key : rg_cols) {
                    if (decoded.count(key) > 0)
                        continue;
                    auto chunk =
                        reader.value().readChunk(key.first, key.second);
                    if (!chunk.isOk())
                        return chunk.status();
                    decoded.emplace(key, std::move(chunk.value()));
                }
                return Status::ok();
            },
            [&](size_t rg, size_t col) -> const format::ColumnData & {
                return decoded.at({rg, col});
            }};
        auto plane =
            ObjectStore::runDataPlane(segment.meta, resolved, source);
        if (!plane.isOk())
            return plane.status();
        const ObjectStore::DataPlane &dp = plane.value();

        uint64_t touched_bytes = 0;
        double scan_work = 0.0;
        size_t scanned_groups = 0;
        for (size_t rg = 0; rg < segment.meta.numRowGroups(); ++rg) {
            const auto &bitmap = dp.rowGroupBitmaps[rg];
            if (!bitmap.has_value())
                continue;
            ++scanned_groups;
            for (size_t col : filter_cols) {
                touched_bytes += segment.meta.chunk(rg, col).storedSize;
                scan_work +=
                    ObjectStore::chunkDecodeWork(segment.meta.chunk(rg, col));
            }
            if (bitmap->count() == 0)
                continue;
            for (size_t col : projected_cols) {
                const format::ChunkMeta &chunk = segment.meta.chunk(rg, col);
                if (std::find(filter_cols.begin(), filter_cols.end(), col) !=
                    filter_cols.end()) {
                    scan_work += ObjectStore::chunkSelectWork(chunk);
                } else {
                    touched_bytes += chunk.storedSize;
                    scan_work += ObjectStore::chunkDecodeWork(chunk);
                }
            }
        }

        // One sim task per (segment, query): the replica read above
        // streams the touched chunks to the coordinator, which pays the
        // scan work. The share key carries the full query signature —
        // only identical queries in one admission window move these
        // bytes once.
        SimTask task{TaskKind::kDeltaFetch, manifest, UINT32_MAX,
                     replica.value().nodeId, options_.requestRpcBytes,
                     touched_bytes, 0.0, touched_bytes, scan_work};
        task.shareKey = "dfetch|" + manifest.shareName() + "|d" +
                        std::to_string(segment.seq) + "|" +
                        resolved.toString();
        plan.projectionTasks.push_back(std::move(task));

        // The delta log's heat rides under an "@delta" alias so base
        // chunks never inherit append-scan traffic.
        obs_.telemetry.heat().recordAccess(
            now, manifest.shareName() + "@delta",
            static_cast<uint32_t>(segment.seq));

        const query::QueryResult &sr = dp.result;
        res.rowsScanned += sr.rowsScanned;
        res.rowsMatched += sr.rowsMatched;
        for (size_t i = 0; i < sr.columns.size(); ++i)
            if (sr.columns[i].values.size() != 0)
                res.columns[i].values.append(sr.columns[i].values);
        plan.outcome.rowGroupsScanned += scanned_groups;
        plan.outcome.rowGroupsSkipped +=
            segment.meta.numRowGroups() - scanned_groups;
        ++plan.outcome.deltaSegmentsScanned;
        appendDeltaScans_.add(1);

        delta_explains.push_back(
            {static_cast<uint32_t>(segment.seq), 0, "<delta>",
             sr.rowsScanned == 0
                 ? 0.0
                 : static_cast<double>(sr.rowsMatched) /
                       static_cast<double>(sr.rowsScanned),
             1.0, "delta", "delta-log"});
    }

    if (plan.outcome.explain != nullptr && !delta_explains.empty()) {
        // Copy-on-write: the base report may be shared with a caller.
        auto amended =
            std::make_shared<obs::QueryExplain>(*plan.outcome.explain);
        for (auto &entry : delta_explains)
            amended->projections.push_back(std::move(entry));
        plan.outcome.explain = std::move(amended);
    }
    return Status::ok();
}

} // namespace fusion::store
