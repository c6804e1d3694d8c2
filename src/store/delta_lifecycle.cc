#include "delta_lifecycle.h"

#include <algorithm>

#include "format/reader.h"
#include "lifecycle/restripe.h"
#include "object_store.h"

namespace fusion::store {

namespace {

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

} // namespace

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

    lifecycle::DeltaLog &log = deltaLogs_[name];
    lifecycle::DeltaSegment segment;
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

    // Analytic ingest model: client uploads to the coordinator, which
    // replicates in parallel; one replica's NIC + disk path bounds it.
    const sim::NodeConfig &nc = cluster_.config().node;
    result.simulatedAppendSeconds =
        static_cast<double>(segment.bytes) / nc.nicBandwidth +
        nc.rpcLatency +
        static_cast<double>(segment.bytes) / nc.nicBandwidth +
        static_cast<double>(segment.bytes) / nc.diskBandwidth;

    result.seq = log.append(std::move(segment));
    appendAppends_.add(1);
    appendRows_.add(result.rows);
    appendBytes_.add(result.segmentBytes);
    compactor_.noteAppend(name);
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
    const lifecycle::DeltaSegment &segment =
        deltaLogs_.at(name).segments().back();
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

const lifecycle::DeltaLog *
DeltaLifecycle::deltaLog(const std::string &name) const
{
    auto it = deltaLogs_.find(name);
    return it == deltaLogs_.end() ? nullptr : &it->second;
}

double
DeltaLifecycle::lifecycleNowSeconds() const
{
    return cluster_.engine().now();
}

void
DeltaLifecycle::lifecycleScheduleAfter(double delay_seconds,
                                       std::function<void()> fn)
{
    cluster_.engine().schedule(delay_seconds, std::move(fn));
}

lifecycle::DeltaLogStats
DeltaLifecycle::deltaLogStats(const std::string &object) const
{
    auto it = deltaLogs_.find(object);
    if (it == deltaLogs_.end())
        return {};
    lifecycle::DeltaLogStats stats = it->second.stats();
    // Modeled fold duration: base + deltas stream off disk and across
    // the wire once, and the re-encoded base streams back out.
    uint64_t in_bytes = stats.bytes;
    if (auto base = store_.manifest(object); base.isOk())
        in_bytes += base.value()->objectSize;
    const sim::NodeConfig &nc = cluster_.config().node;
    stats.estimatedCompactSeconds =
        2.0 * static_cast<double>(in_bytes) *
        (1.0 / nc.diskBandwidth + 1.0 / nc.nicBandwidth);
    return stats;
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
DeltaLifecycle::readDeltaSegment(const lifecycle::DeltaSegment &segment)
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
                                  const lifecycle::DeltaLog &log,
                                  uint64_t up_to_seq)
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
DeltaLifecycle::dropDeltaBlocks(const lifecycle::DeltaLog &log,
                                uint64_t up_to_seq)
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
    compactor_.noteDeleted(name);
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
    lifecycle::DeltaLog &log = log_it->second;
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
    lifecycle::RestripeDecision decision = lifecycle::decideRestripe(
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

    for (const auto &segment : log->second.segments()) {
        auto replica = readDeltaSegment(segment);
        if (!replica.isOk())
            return replica.status();
        auto scan = lifecycle::scanDeltaSegment(
            segment.meta, Slice(*replica.value().block), resolved);
        if (!scan.isOk())
            return scan.status();
        const lifecycle::DeltaScanResult &sr = scan.value();

        // One sim task per (segment, query): the replica read above
        // streams the touched chunks to the coordinator, which pays the
        // scan work. The share key carries the full query signature —
        // only identical queries in one admission window move these
        // bytes once.
        SimTask task{TaskKind::kDeltaFetch, manifest, UINT32_MAX,
                     replica.value().nodeId, options_.requestRpcBytes,
                     sr.touchedStoredBytes, 0.0, sr.touchedStoredBytes,
                     sr.scanWork};
        task.shareKey = "dfetch|" + manifest.shareName() + "|d" +
                        std::to_string(segment.seq) + "|" +
                        resolved.toString();
        plan.projectionTasks.push_back(std::move(task));

        // The delta log's heat rides under an "@delta" alias so base
        // chunks never inherit append-scan traffic.
        obs_.telemetry.heat().recordAccess(
            now, manifest.shareName() + "@delta",
            static_cast<uint32_t>(segment.seq));

        res.rowsScanned += sr.rowsScanned;
        res.rowsMatched += sr.rowsMatched;
        for (size_t i = 0; i < sr.selected.size(); ++i)
            if (sr.selected[i].size() != 0)
                res.columns[i].values.append(sr.selected[i]);
        plan.outcome.rowGroupsScanned += sr.rowGroups.size();
        plan.outcome.rowGroupsSkipped +=
            segment.meta.numRowGroups() - sr.rowGroups.size();
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
