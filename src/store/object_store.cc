#include "object_store.h"

#include <algorithm>
#include <array>
#include <set>

#include "common/thread_pool.h"
#include "common/walltime.h"
#include "format/chunk_codec.h"
#include "format/reader.h"
#include "format/writer.h"
#include "lifecycle/restripe.h"
#include "query/cost.h"
#include "query/eval.h"
#include "sim/fault.h"

namespace fusion::store {

namespace {

ec::ReedSolomon
makeCode(size_t n, size_t k)
{
    auto rs = ec::ReedSolomon::create(n, k);
    FUSION_CHECK_MSG(rs.isOk(), "bad (n, k) erasure-code parameters");
    return std::move(rs.value());
}

/** Per stripe, the byte range [lo, hi) covering lost pieces of a chunk. */
using LostRanges = std::map<size_t, std::pair<uint64_t, uint64_t>>;

void
coverLostPiece(LostRanges &ranges, const PieceLocation &piece)
{
    const uint64_t lo = piece.blockOffset, hi = lo + piece.size;
    auto [it, fresh] = ranges.try_emplace(piece.stripe, lo, hi);
    if (!fresh) {
        it->second.first = std::min(it->second.first, lo);
        it->second.second = std::max(it->second.second, hi);
    }
}

} // namespace

ObjectStore::ObjectStore(sim::Cluster &cluster, const StoreOptions &options)
    : cluster_(cluster), options_(options),
      rs_(makeCode(options.n, options.k)), chunkCache_(options.cacheBytes)
{
    FUSION_CHECK_MSG(cluster.numNodes() >= options.n,
                     "cluster smaller than erasure-code width n");

    // Spans carry the owning cluster's simulated clock; wall time never
    // appears in a trace.
    obs_.tracer.setClock(
        [engine = &cluster_.engine()]() { return engine->now(); });

    obs::MetricsRegistry &reg = obs_.metrics;
    ins_.readRetries = &reg.counter("fault.read_retries");
    ins_.readTimeouts = &reg.counter("fault.read_timeouts");
    ins_.parityReconstructions =
        &reg.counter("fault.parity_reconstructions");
    ins_.rebuildReadBytes = &reg.counter("fault.rebuild_read_bytes");
    ins_.degradedChunkReads = &reg.counter("fault.degraded_chunk_reads");
    ins_.pushdownFallbacks = &reg.counter("fault.pushdown_fallbacks");
    ins_.backoffSeconds = &reg.doubleCounter("fault.backoff_seconds");
    ins_.cacheDecodeHit = &reg.counter("cache.decode.hit");
    ins_.cacheDecodeMiss = &reg.counter("cache.decode.miss");
    ins_.cachePlanHit = &reg.counter("cache.plan.hit");
    ins_.cachePlanMiss = &reg.counter("cache.plan.miss");
    ins_.wireFilterRequest = &reg.counter("wire.filter.request_bytes");
    ins_.wireFilterReply = &reg.counter("wire.filter.reply_bytes");
    ins_.wireProjectionRequest =
        &reg.counter("wire.projection.request_bytes");
    ins_.wireProjectionReply = &reg.counter("wire.projection.reply_bytes");
    ins_.wireClientRequest = &reg.counter("wire.client.request_bytes");
    ins_.wireClientReply = &reg.counter("wire.client.reply_bytes");
    ins_.wireClientReplyPlain =
        &reg.counter("wire.client.reply_plain_bytes");
    // Hot-chunk cache tier counters are registered even when the cache
    // is disabled so metric snapshots keep a stable key set.
    ins_.cacheChunkHits = &reg.counter("cache.chunk.hits");
    ins_.cacheChunkMisses = &reg.counter("cache.chunk.misses");
    ins_.cacheChunkEvictions = &reg.counter("cache.chunk.evictions");
    ins_.cacheChunkBytes = &reg.gauge("cache.chunk.bytes");
    chunkCache_.bindMetrics(ins_.cacheChunkHits, ins_.cacheChunkMisses,
                            ins_.cacheChunkEvictions, ins_.cacheChunkBytes);
    // 100 us .. ~10 s in x2 steps covers the simulated latency range.
    ins_.queryLatency = &reg.histogram(
        "query.latency_seconds", obs::exponentialBounds(1e-4, 2.0, 17));

    // Windowed telemetry (obs/timeseries.h): per-node health scores
    // feeding the adaptive retry budget and the scheduler's load-shed
    // term, the chunk-heat table and the crash flight recorder. Health
    // gauges are registered for every node up front so snapshots keep
    // a stable key set.
    obs_.telemetry.health().configure(cluster_.numNodes(),
                                      obs_.telemetry.options());
    lastBand_.assign(cluster_.numNodes(),
                     obs::NodeHealthTracker::Band::kHealthy);
    ins_.healthGauges.reserve(cluster_.numNodes());
    for (size_t node = 0; node < cluster_.numNodes(); ++node) {
        obs::Gauge &gauge =
            reg.gauge("health.node." + std::to_string(node));
        gauge.set(1.0);
        ins_.healthGauges.push_back(&gauge);
    }
    ins_.healthUpdates = &reg.counter("health.updates");
    ins_.flightDumps = &reg.counter("health.flight_dumps");
    // Lifecycle instruments are registered even when the store never
    // appends so metric snapshots keep a stable key set.
    ins_.appendAppends = &reg.counter("append.appends");
    ins_.appendRows = &reg.counter("append.rows");
    ins_.appendBytes = &reg.counter("append.segment_bytes");
    ins_.appendDeltaScans = &reg.counter("append.delta_scans");
    ins_.compactionRuns = &reg.counter("compaction.runs");
    ins_.compactionAborts = &reg.counter("compaction.aborts");
    ins_.compactionFoldedSegments =
        &reg.counter("compaction.folded_segments");
    ins_.compactionBytesIn = &reg.counter("compaction.bytes_in");
    ins_.compactionBytesOut = &reg.counter("compaction.bytes_out");
    ins_.compactionHotColocated =
        &reg.counter("compaction.hot_colocated_chunks");
    compactor_ =
        std::make_unique<lifecycle::Compactor>(*this, options_.compaction);
    faultListenerId_ = cluster_.addFaultListener(
        [this](double seconds, int kind, size_t node,
               double slow_factor) {
            onFaultEvent(seconds, kind, node, slow_factor);
        });
}

ObjectStore::~ObjectStore()
{
    cluster_.removeFaultListener(faultListenerId_);
}

void
ObjectStore::recordQueryLatency(double now_seconds,
                                double latency_seconds)
{
    ins_.queryLatency->observe(latency_seconds);
    obs_.telemetry.window("query.latency_seconds")
        .observe(now_seconds, latency_seconds);
    obs_.telemetry.flight().record(
        now_seconds, "query",
        "\"latency_seconds\": " + obs::formatDouble(latency_seconds));
}

bool
ObjectStore::contains(const std::string &name) const
{
    return manifests_.count(name) > 0;
}

Result<const ObjectManifest *>
ObjectStore::manifest(const std::string &name) const
{
    auto it = manifests_.find(name);
    if (it == manifests_.end())
        return Status::notFound("no object named '" + name + "'");
    return &it->second;
}

Status
ObjectStore::deleteObject(const std::string &name)
{
    auto it = manifests_.find(name);
    if (it == manifests_.end())
        return Status::notFound("no object named '" + name + "'");
    const ObjectManifest &old = it->second;
    for (size_t s = 0; s < old.stripeNodes.size(); ++s) {
        for (size_t b = 0; b < old.stripeNodes[s].size(); ++b)
            cluster_.node(old.stripeNodes[s][b])
                .dropBlock(old.blockKey(s, b));
    }
    auto log = deltaLogs_.find(name);
    if (log != deltaLogs_.end()) {
        dropDeltaBlocks(log->second, UINT64_MAX);
        deltaLogs_.erase(log);
    }
    compactor_->noteDeleted(name);
    // No stale state may survive the name: residency, memoized results
    // and the chunk-heat entries (including "@gN" / "#delta" aliases)
    // all go — a later re-stripe or fusion_top must never see them.
    chunkCache_.invalidateObject(name);
    memo_.erase(name);
    obs_.telemetry.heat().evictObject(name);
    manifests_.erase(it);
    return Status::ok();
}

std::vector<std::string>
ObjectStore::listObjects() const
{
    std::vector<std::string> names;
    names.reserve(manifests_.size());
    for (const auto &[name, manifest] : manifests_)
        names.push_back(name);
    std::sort(names.begin(), names.end());
    return names;
}

ObjectStore::StoreStats
ObjectStore::stats() const
{
    StoreStats out;
    out.objectCount = manifests_.size();
    uint64_t data_bytes = 0, extra_bytes = 0;
    for (const auto &[name, manifest] : manifests_) {
        out.logicalBytes += manifest.objectSize;
        out.storedBytes += manifest.layout.storedBytes();
        data_bytes += manifest.layout.dataBytes;
        extra_bytes += manifest.layout.paddingBytes +
                       manifest.layout.parityBytes();
    }
    if (data_bytes > 0) {
        double optimal = static_cast<double>(data_bytes) *
                         static_cast<double>(options_.n - options_.k) /
                         static_cast<double>(options_.k);
        out.overheadVsOptimal =
            (static_cast<double>(extra_bytes) - optimal) / optimal;
    }
    out.minNodeBytes = UINT64_MAX;
    for (size_t i = 0; i < cluster_.numNodes(); ++i) {
        uint64_t bytes = cluster_.node(i).storedBytes();
        out.minNodeBytes = std::min(out.minNodeBytes, bytes);
        out.maxNodeBytes = std::max(out.maxNodeBytes, bytes);
    }
    if (out.minNodeBytes == UINT64_MAX)
        out.minNodeBytes = 0;
    return out;
}

Result<PutResult>
ObjectStore::put(const std::string &name, Bytes object)
{
    if (object.empty())
        return Status::invalidArgument("cannot store an empty object");
    // Layout + encode + placement run inside one simulated instant, so
    // this span is zero-duration in simulated time; putAsync wraps the
    // streaming write path in a span that does advance the clock.
    obs::Tracer::Scoped put_span(obs_.tracer, "put");
    if (contains(name)) {
        // Updates are fresh inserts (paper §5): drop the old placement.
        FUSION_RETURN_IF_ERROR(deleteObject(name));
    }
    auto stored = buildStoredObject(name, object, 0, {});
    if (!stored.isOk())
        return stored.status();
    manifests_.emplace(name, std::move(stored.value().manifest));
    return stored.value().result;
}

Result<ObjectStore::StoredObject>
ObjectStore::buildStoredObject(const std::string &name, const Bytes &object,
                               uint64_t generation,
                               const std::vector<uint32_t> &hot_chunks)
{
    ObjectManifest manifest;
    manifest.name = name;
    manifest.generation = generation;
    manifest.hotChunkIds = hot_chunks;
    manifest.objectSize = object.size();

    // Identify column chunk boundaries from the format footer.
    auto reader = format::FileReader::open(Slice(object));
    if (reader.isOk()) {
        manifest.isFpax = true;
        manifest.fileMeta = reader.value().metadata();
        uint32_t id = 0;
        uint64_t chunks_end = sizeof(format::kFileMagic);
        for (const auto *chunk : manifest.fileMeta.allChunks()) {
            manifest.extents.push_back(
                {id++, chunk->offset, chunk->storedSize});
            chunks_end =
                std::max(chunks_end, chunk->offset + chunk->storedSize);
        }
        // File header and footer become pseudo-chunks so Get can
        // reassemble the byte-identical object.
        manifest.extents.push_back({id, 0, sizeof(format::kFileMagic)});
        manifest.metaChunkIds.push_back(id++);
        manifest.extents.push_back(
            {id, chunks_end, manifest.objectSize - chunks_end});
        manifest.metaChunkIds.push_back(id++);
    } else {
        // Opaque object: one extent; format-unaware coding applies.
        manifest.extents.push_back({0, 0, manifest.objectSize});
    }

    double layout_start = walltime::monotonicSeconds();
    manifest.layout = hot_chunks.empty()
                          ? buildLayout(manifest.extents)
                          : buildRestripeLayout(manifest.extents, hot_chunks);
    double layout_seconds = walltime::monotonicSeconds() - layout_start;
    FUSION_RETURN_IF_ERROR(manifest.layout.validate(manifest.extents));

    // Place each stripe on n distinct random nodes (paper §4.2).
    std::vector<uint64_t> node_bytes(cluster_.numNodes(), 0);
    for (size_t s = 0; s < manifest.layout.stripes.size(); ++s)
        manifest.stripeNodes.push_back(cluster_.chooseNodes(options_.n));

    // Materialize data blocks and encode parity, one independent task
    // per stripe (reads only the const object + layout; writes only
    // its own slot, so any thread count produces identical stripes).
    // Node placement and storage mutation stay on the calling thread.
    const size_t num_stripes = manifest.layout.stripes.size();
    uint64_t encode_span = obs_.tracer.beginSpan(
        "stripe_encode", "\"object\": \"" + manifest.shareName() +
                             "\", \"stripes\": " +
                             std::to_string(num_stripes));
    std::vector<std::vector<Bytes>> stripe_blocks(num_stripes);
    ThreadPool::shared().parallelFor(0, num_stripes, [&](size_t s) {
        const fac::StripeLayout &stripe = manifest.layout.stripes[s];
        std::vector<Bytes> data_blocks(options_.k);
        for (size_t b = 0; b < stripe.dataBlocks.size(); ++b) {
            Bytes &block = data_blocks[b];
            block.reserve(stripe.dataBlocks[b].size());
            for (const auto &piece : stripe.dataBlocks[b].pieces) {
                if (piece.isPadding()) {
                    block.insert(block.end(), piece.size, 0);
                } else {
                    const auto &extent = manifest.extents.at(piece.chunkId);
                    const uint8_t *src = object.data() + extent.offset +
                                         piece.chunkOffset;
                    block.insert(block.end(), src, src + piece.size);
                }
            }
        }
        std::vector<Slice> views;
        views.reserve(options_.k);
        for (const auto &block : data_blocks)
            views.emplace_back(block);
        std::vector<Bytes> parity = rs_.encodeParity(views);
        stripe_blocks[s] = std::move(data_blocks);
        for (auto &p : parity)
            stripe_blocks[s].push_back(std::move(p));
    });
    obs_.tracer.endSpan(encode_span);

    for (size_t s = 0; s < num_stripes; ++s) {
        for (size_t b = 0; b < options_.n; ++b) {
            Bytes &bytes = stripe_blocks[s][b];
            if (bytes.empty())
                continue; // implicit zero block
            size_t node_id = manifest.stripeNodes[s][b];
            node_bytes[node_id] += bytes.size();
            cluster_.node(node_id).putBlock(manifest.blockKey(s, b),
                                            std::move(bytes));
        }
    }
    manifest.buildLocationMap();

    PutResult result;
    result.layoutKind = manifest.layout.kind;
    result.overheadVsOptimal = manifest.layout.overheadVsOptimal();
    result.objectBytes = manifest.objectSize;
    result.storedBytes = manifest.layout.storedBytes();
    result.numChunks = manifest.numDataChunks();
    result.numStripes = manifest.layout.stripes.size();
    result.splitFraction = [&] {
        // Split statistics over column chunks only.
        auto spans = manifest.layout.chunkSpans(manifest.extents.size());
        size_t split = 0, total = manifest.numDataChunks();
        for (size_t c = 0; c < total; ++c)
            split += spans[c] > 1 ? 1 : 0;
        return total ? static_cast<double>(split) / total : 0.0;
    }();
    result.layoutSeconds = layout_seconds;

    // Analytic put-time model: client uploads to the coordinator, which
    // streams blocks to nodes in parallel; the slowest node bounds it.
    const sim::NodeConfig &nc = cluster_.config().node;
    double client_transfer = static_cast<double>(manifest.objectSize) /
                                 nc.nicBandwidth +
                             nc.rpcLatency;
    double slowest_node = 0.0;
    for (uint64_t bytes : node_bytes) {
        double t = static_cast<double>(bytes) / nc.nicBandwidth +
                   static_cast<double>(bytes) / nc.diskBandwidth;
        slowest_node = std::max(slowest_node, t);
    }
    // Simulated time must stay reproducible, so the wall-clock layout
    // measurement is reported separately (layoutSeconds) and never
    // added here — mixing it in would make put timings (and anything
    // downstream of them) vary run to run with machine load.
    result.simulatedPutSeconds = client_transfer + slowest_node;

    StoredObject out;
    out.manifest = std::move(manifest);
    out.result = result;
    return out;
}

void
ObjectStore::putAsync(const std::string &name, Bytes object,
                      std::function<void(Result<PutResult>)> done)
{
    uint64_t put_span = obs_.tracer.beginSpan(
        "put", "\"object\": \"" + name + "\", \"bytes\": " +
                   std::to_string(object.size()));
    auto result = put(name, std::move(object));
    if (!result.isOk()) {
        obs_.tracer.endSpan(put_span);
        done(result.status());
        return;
    }
    const ObjectManifest &manifest = manifests_.at(name);

    // Per-node bytes this put wrote (data at true size, parity full).
    std::vector<uint64_t> node_bytes(cluster_.numNodes(), 0);
    for (size_t s = 0; s < manifest.layout.stripes.size(); ++s) {
        const fac::StripeLayout &stripe = manifest.layout.stripes[s];
        for (size_t b = 0; b < options_.n; ++b) {
            uint64_t size = (b < options_.k)
                                ? (b < stripe.dataBlocks.size()
                                       ? stripe.dataBlocks[b].size()
                                       : 0)
                                : stripe.blockSize();
            node_bytes[manifest.stripeNodes[s][b]] += size;
        }
    }

    sim::StorageNode *client = &cluster_.client();
    sim::StorageNode *coord = &cluster_.node(cluster_.coordinatorFor(name));
    const double start = cluster_.engine().now();
    const double seek = cluster_.config().node.diskSeekLatency;

    auto shared = std::make_shared<PutResult>(std::move(result.value()));
    auto stream_blocks = [this, shared, node_bytes, coord, seek, start,
                          put_span, done = std::move(done)]() mutable {
        auto join = std::make_shared<sim::Join>(
            node_bytes.size(),
            [this, shared, start, put_span, done = std::move(done)]() {
                shared->simulatedPutSeconds =
                    cluster_.engine().now() - start;
                obs_.tracer.endSpan(put_span);
                done(*shared);
            });
        for (size_t node_id = 0; node_id < node_bytes.size(); ++node_id) {
            uint64_t bytes = node_bytes[node_id];
            sim::StorageNode *node = &cluster_.node(node_id);
            if (bytes == 0 || node == coord) {
                // Local blocks skip the network but still hit the disk.
                node->disk().acquire(static_cast<double>(bytes),
                                     bytes ? seek : 0.0,
                                     [join]() { join->signal(); });
                continue;
            }
            cluster_.transfer(*coord, *node, bytes,
                              [node, bytes, seek, join]() {
                                  node->disk().acquire(
                                      static_cast<double>(bytes), seek,
                                      [join]() { join->signal(); });
                              });
        }
    };
    cluster_.transfer(*client, *coord, shared->objectBytes,
                      std::move(stream_blocks));
}

// ---- object lifecycle (src/lifecycle/) ----

uint64_t
ObjectStore::baseRowGroupRows(const ObjectManifest &manifest) const
{
    // The first row group is always full-size (only the last may be
    // short), so it recovers the base's writer option; the merged
    // materialization and the compacted base re-serialize under it and
    // therefore stay byte-identical to each other.
    const auto &groups = manifest.fileMeta.rowGroups;
    return groups.empty() ? (uint64_t{1} << 16) : groups.front().numRows;
}

Result<AppendResult>
ObjectStore::append(const std::string &name, const format::Table &rows)
{
    auto m = manifest(name);
    if (!m.isOk())
        return m.status();
    const ObjectManifest &base = *m.value();
    if (!base.isFpax)
        return Status::failedPrecondition(
            "append requires an analytics (fpax) object");
    if (rows.numRows() == 0)
        return Status::invalidArgument("cannot append an empty batch");
    if (!(rows.schema() == base.fileMeta.schema))
        return Status::invalidArgument(
            "appended schema does not match object '" + name + "'");
    FUSION_RETURN_IF_ERROR(rows.validate());

    // Like put(), the synchronous form runs in one simulated instant;
    // appendAsync wraps the streaming replication in a timed span.
    obs::Tracer::Scoped span(obs_.tracer, "append");

    format::WriterOptions writer_options;
    writer_options.rowGroupRows = baseRowGroupRows(base);
    auto written = format::writeTable(rows, writer_options);
    if (!written.isOk())
        return written.status();

    lifecycle::DeltaLog &log = deltaLogs_[name];
    lifecycle::DeltaSegment segment;
    segment.rows = rows.numRows();
    segment.bytes = written.value().bytes.size();
    segment.appendSeconds = cluster_.engine().now();
    segment.blockKey =
        base.shareName() + "#d" + std::to_string(log.nextSeq());
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
    ins_.appendAppends->add(1);
    ins_.appendRows->add(result.rows);
    ins_.appendBytes->add(result.segmentBytes);
    compactor_->noteAppend(name);
    return result;
}

void
ObjectStore::appendAsync(const std::string &name, const format::Table &rows,
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
    auto shared = std::make_shared<AppendResult>(result.value());
    const lifecycle::DeltaSegment &segment =
        deltaLogs_.at(name).segments().back();
    const std::vector<size_t> replicas = segment.replicaNodes;
    const uint64_t bytes = segment.bytes;

    sim::StorageNode *client = &cluster_.client();
    sim::StorageNode *coord = &cluster_.node(cluster_.coordinatorFor(name));
    const double start = cluster_.engine().now();
    const double seek = cluster_.config().node.diskSeekLatency;

    auto stream = [this, shared, replicas, coord, bytes, seek, start, span,
                   done = std::move(done)]() mutable {
        auto join = std::make_shared<sim::Join>(
            replicas.size(),
            [this, shared, start, span, done = std::move(done)]() {
                shared->simulatedAppendSeconds =
                    cluster_.engine().now() - start;
                obs_.tracer.endSpan(span);
                done(*shared);
            });
        for (size_t node_id : replicas) {
            sim::StorageNode *node = &cluster_.node(node_id);
            if (node == coord) {
                node->disk().acquire(static_cast<double>(bytes), seek,
                                     [join]() { join->signal(); });
                continue;
            }
            cluster_.transfer(*coord, *node, bytes,
                              [node, bytes, seek, join]() {
                                  node->disk().acquire(
                                      static_cast<double>(bytes), seek,
                                      [join]() { join->signal(); });
                              });
        }
    };
    cluster_.transfer(*client, *coord, bytes, std::move(stream));
}

const lifecycle::DeltaLog *
ObjectStore::deltaLog(const std::string &name) const
{
    auto it = deltaLogs_.find(name);
    return it == deltaLogs_.end() ? nullptr : &it->second;
}

double
ObjectStore::lifecycleNowSeconds() const
{
    return cluster_.engine().now();
}

void
ObjectStore::lifecycleScheduleAfter(double delay_seconds,
                                    std::function<void()> fn)
{
    cluster_.engine().schedule(delay_seconds, std::move(fn));
}

lifecycle::DeltaLogStats
ObjectStore::deltaLogStats(const std::string &object) const
{
    auto it = deltaLogs_.find(object);
    if (it == deltaLogs_.end())
        return {};
    lifecycle::DeltaLogStats stats = it->second.stats();
    // Modeled fold duration: base + deltas stream off disk and across
    // the wire once, and the re-encoded base streams back out.
    uint64_t in_bytes = stats.bytes;
    auto m = manifests_.find(object);
    if (m != manifests_.end())
        in_bytes += m->second.objectSize;
    const sim::NodeConfig &nc = cluster_.config().node;
    stats.estimatedCompactSeconds =
        2.0 * static_cast<double>(in_bytes) *
        (1.0 / nc.diskBandwidth + 1.0 / nc.nicBandwidth);
    return stats;
}

Status
ObjectStore::compactObject(const std::string &name)
{
    auto it = deltaLogs_.find(name);
    if (it == deltaLogs_.end() || it->second.empty())
        return Status::ok();
    return compactObjectNow(name, it->second.lastSeq());
}

Result<const Bytes *>
ObjectStore::readDeltaSegment(const lifecycle::DeltaSegment &segment)
{
    for (size_t node_id : segment.replicaNodes) {
        const sim::StorageNode &node = cluster_.node(node_id);
        if (!nodeResponsive(node))
            continue;
        const Bytes *block = node.findBlock(segment.blockKey);
        if (block != nullptr)
            return block;
    }
    return Status::unavailable(
        "no responsive replica holds delta segment '" + segment.blockKey +
        "'");
}

Result<Bytes>
ObjectStore::readObjectBytes(const ObjectManifest &manifest)
{
    Bytes out(manifest.objectSize);
    for (const auto &extent : manifest.extents) {
        auto chunk = readChunkBytes(manifest, extent.id);
        if (!chunk.isOk())
            return chunk.status();
        std::copy(chunk.value().begin(), chunk.value().end(),
                  out.begin() + extent.offset);
    }
    return out;
}

Result<format::WrittenFile>
ObjectStore::materializeMerged(const ObjectManifest &manifest,
                               const lifecycle::DeltaLog &log,
                               uint64_t up_to_seq)
{
    // Base bytes via the chunk read path: degraded-read capable, so a
    // merge (or compaction) survives dead nodes under the EC budget.
    auto base = readObjectBytes(manifest);
    if (!base.isOk())
        return base.status();
    auto reader = format::FileReader::open(Slice(base.value()));
    if (!reader.isOk())
        return reader.status();
    format::Table appended(manifest.fileMeta.schema);
    for (const auto &segment : log.segments()) {
        if (segment.seq > up_to_seq)
            continue;
        auto block = readDeltaSegment(segment);
        if (!block.isOk())
            return block.status();
        auto delta_reader = format::FileReader::open(Slice(*block.value()));
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
ObjectStore::dropDeltaBlocks(const lifecycle::DeltaLog &log,
                             uint64_t up_to_seq)
{
    for (const auto &segment : log.segments()) {
        if (segment.seq > up_to_seq)
            continue;
        for (size_t node_id : segment.replicaNodes)
            cluster_.node(node_id).dropBlock(segment.blockKey);
    }
}

Status
ObjectStore::compactObjectNow(const std::string &object, uint64_t seal_seq)
{
    auto m = manifests_.find(object);
    if (m == manifests_.end()) {
        // Deleted while the fold was in flight: a successful no-op.
        deltaLogs_.erase(object);
        return Status::ok();
    }
    auto log_it = deltaLogs_.find(object);
    if (log_it == deltaLogs_.end() || log_it->second.empty())
        return Status::ok();
    lifecycle::DeltaLog &log = log_it->second;

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

    const ObjectManifest &old = m->second;
    uint64_t span = obs_.tracer.beginSpan(
        "compaction", "\"object\": \"" + object + "\", \"segments\": " +
                          std::to_string(sealed) +
                          ", \"generation\": " +
                          std::to_string(old.generation + 1));

    // Every fallible step runs before the swap point below, so an
    // abort (e.g. too many nodes down to read the base) leaves the old
    // generation and the full delta log untouched and readable.
    auto written = materializeMerged(old, log, seal_seq);
    if (!written.isOk()) {
        ins_.compactionAborts->add(1);
        obs_.tracer.endSpan(span);
        return written.status();
    }

    // Heat-driven re-stripe: the old generation's access history picks
    // the columns whose chunks the new layout should co-locate.
    lifecycle::RestripeDecision decision = lifecycle::decideRestripe(
        obs_.telemetry.heat(), cluster_.engine().now(), old.shareName(),
        old.fileMeta.schema.numColumns(), old.numDataChunks(),
        written.value().metadata.numRowGroups());

    auto stored = buildStoredObject(object, written.value().bytes,
                                    old.generation + 1, decision.hotChunks);
    if (!stored.isOk()) {
        ins_.compactionAborts->add(1);
        obs_.tracer.endSpan(span);
        return stored.status();
    }

    // ---- the swap: drop old generation + sealed deltas, publish ----
    const uint64_t bytes_in = old.objectSize + sealed_bytes;
    for (size_t s = 0; s < old.stripeNodes.size(); ++s) {
        for (size_t b = 0; b < old.stripeNodes[s].size(); ++b)
            cluster_.node(old.stripeNodes[s][b])
                .dropBlock(old.blockKey(s, b));
    }
    dropDeltaBlocks(log, seal_seq);
    log.dropUpTo(seal_seq);
    // The superseded generation's chunks must not linger anywhere the
    // new layout (or fusion_top) consults: residency, memoized results
    // and the heat table (with its "@gN"/"#delta" aliases) all reset.
    chunkCache_.invalidateObject(object);
    memo_.erase(object);
    obs_.telemetry.heat().evictObject(object);
    m->second = std::move(stored.value().manifest);

    ins_.compactionRuns->add(1);
    ins_.compactionFoldedSegments->add(sealed);
    ins_.compactionBytesIn->add(bytes_in);
    ins_.compactionBytesOut->add(m->second.objectSize);
    ins_.compactionHotColocated->add(decision.hotChunks.size());
    const std::string detail =
        "\"object\": \"" + object + "\", \"generation\": " +
        std::to_string(m->second.generation) + ", \"heat_driven\": " +
        (decision.heatDriven ? "true" : "false") + ", \"reason\": \"" +
        decision.reason + "\"";
    obs_.tracer.instant("restripe_decision", detail);
    obs_.telemetry.flight().record(cluster_.engine().now(), "compaction",
                                   detail);
    obs_.tracer.endSpan(span);
    return Status::ok();
}

Status
ObjectStore::mergeDeltaIntoPlan(const ObjectManifest &manifest,
                                const lifecycle::DeltaLog &log,
                                const query::Query &resolved,
                                QueryPlan &plan)
{
    // Appended values follow the base's, segment by segment — the order
    // a fresh put of the merged table scans. Aggregate columns append
    // alike; planQueryForBatch reduces them afterwards.
    query::QueryResult &res = plan.outcome.result;
    std::vector<obs::ExplainChunk> delta_explains;
    const double now = cluster_.engine().now();

    for (const auto &segment : log.segments()) {
        auto block = readDeltaSegment(segment);
        if (!block.isOk())
            return block.status();
        auto scan = lifecycle::scanDeltaSegment(
            segment.meta, Slice(*block.value()), resolved);
        if (!scan.isOk())
            return scan.status();
        const lifecycle::DeltaScanResult &sr = scan.value();

        // One sim task per (segment, query): the first responsive
        // replica streams the touched chunks to the coordinator, which
        // pays the scan work. The share key carries the full query
        // signature — only identical queries in one admission window
        // move these bytes once.
        size_t replica = segment.replicaNodes.front();
        for (size_t node_id : segment.replicaNodes) {
            if (nodeResponsive(cluster_.node(node_id))) {
                replica = node_id;
                break;
            }
        }
        SimTask task{replica,
                     options_.requestRpcBytes,
                     sr.touchedStoredBytes,
                     0.0,
                     sr.touchedStoredBytes,
                     sr.scanWork,
                     "delta_fetch"};
        task.shareKey = "dfetch|" + manifest.shareName() + "|d" +
                        std::to_string(segment.seq) + "|" +
                        resolved.toString();
        plan.projectionTasks.push_back(std::move(task));

        // The delta log's heat rides under a "#delta" alias so base
        // chunks never inherit append-scan traffic.
        obs_.telemetry.heat().recordAccess(
            now, manifest.shareName() + "#delta",
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
        ins_.appendDeltaScans->add(1);

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

bool
ObjectStore::nodeResponsive(const sim::StorageNode &node) const
{
    if (!node.alive())
        return false;
    double response =
        node.slowFactor() * cluster_.config().node.rpcLatency;
    return response <= options_.readTimeoutSeconds;
}

const Bytes *
ObjectStore::fetchBlockWithRetry(const ObjectManifest &manifest,
                                 size_t stripe, size_t block_index)
{
    size_t node_id = manifest.stripeNodes[stripe][block_index];
    const sim::StorageNode &node = cluster_.node(node_id);
    const sim::FaultInjector *faults = cluster_.faultInjector();
    const double rpc = cluster_.config().node.rpcLatency;

    double when = cluster_.engine().now();
    double backoff = options_.retryBackoffBaseSeconds;
    // The budget is fixed at read entry: a node's health band decides
    // how much backoff this read may burn before declaring the block
    // lost (healthy nodes keep the configured budget, so fault-free
    // runs are unchanged).
    const size_t budget = retryBudgetFor(node_id, when);
    obs::NodeHealthTracker &health = obs_.telemetry.health();
    for (size_t attempt = 0;; ++attempt) {
        bool responsive;
        if (attempt > 0 && faults != nullptr) {
            // A retry happens `when - now` simulated seconds in the
            // future; the armed schedule predicts health then, so a
            // flapping node can come back mid-backoff.
            responsive =
                faults->aliveAt(node_id, when) &&
                faults->slowFactorAt(node_id, when) * rpc <=
                    options_.readTimeoutSeconds;
        } else {
            responsive = nodeResponsive(node);
        }
        if (responsive) {
            // A success that closes a timeout streak is flap evidence
            // and a band transition; plain successes are free.
            const bool streak_open =
                health.consecutiveTimeouts(node_id) > 0;
            health.recordSuccess(when, node_id);
            if (streak_open)
                noteHealthEvent(when, node_id);
            const Bytes *block =
                node.findBlock(manifest.blockKey(stripe, block_index));
            if (block != nullptr)
                return block;
            return nullptr; // wiped media: retrying cannot help
        }
        if (attempt >= budget)
            break;
        ins_.readRetries->add(1);
        ins_.backoffSeconds->add(backoff);
        health.recordRetry(when, node_id, backoff);
        obs_.telemetry.flight().record(
            when, "retry",
            "\"node\": " + std::to_string(node_id) + ", \"object\": \"" +
                manifest.name + "\"");
        when += backoff;
        backoff = std::min(2.0 * backoff,
                           options_.retryBackoffMaxSeconds);
    }
    ins_.readTimeouts->add(1);
    health.recordTimeout(when, node_id);
    obs_.telemetry.flight().record(
        when, "timeout",
        "\"node\": " + std::to_string(node_id) + ", \"object\": \"" +
            manifest.name + "\"");
    noteHealthEvent(when, node_id);
    return nullptr;
}

size_t
ObjectStore::retryBudgetFor(size_t node_id, double now_seconds) const
{
    switch (obs_.telemetry.health().band(node_id, now_seconds)) {
      case obs::NodeHealthTracker::Band::kHealthy:
        return options_.maxReadRetries;
      case obs::NodeHealthTracker::Band::kFlapping:
        return options_.maxReadRetries + 2;
      case obs::NodeHealthTracker::Band::kDead:
        return options_.maxReadRetries > 0 ? 1 : 0;
    }
    return options_.maxReadRetries;
}

void
ObjectStore::noteHealthEvent(double now_seconds, size_t node_id)
{
    const obs::NodeHealthTracker &health = obs_.telemetry.health();
    ins_.healthGauges[node_id]->set(health.score(node_id, now_seconds));
    const obs::NodeHealthTracker::Band band =
        health.band(node_id, now_seconds);
    if (band == lastBand_[node_id])
        return;
    lastBand_[node_id] = band;
    ins_.healthUpdates->add(1);
    const std::string detail =
        "\"node\": " + std::to_string(node_id) + ", \"band\": \"" +
        obs::NodeHealthTracker::bandName(band) + "\"";
    obs_.tracer.instant("health_update", detail);
    obs_.telemetry.flight().record(now_seconds, "health_update", detail);
}

void
ObjectStore::dumpFlightRecord(double now_seconds, const char *reason)
{
    if (!obs_.telemetry.flight().enabled())
        return;
    obs_.telemetry.flight().dump(now_seconds, reason);
    ins_.flightDumps->add(1);
    obs_.tracer.instant("flight_record_dump",
                        std::string("\"reason\": \"") + reason + "\"");
}

void
ObjectStore::onFaultEvent(double seconds, int kind, size_t node,
                          double slow_factor)
{
    obs_.telemetry.flight().record(
        seconds, "fault",
        "\"node\": " + std::to_string(node) + ", \"kind\": \"" +
            sim::faultKindName(static_cast<sim::FaultKind>(kind)) +
            "\", \"slow_factor\": " + obs::formatDouble(slow_factor));
    if (static_cast<sim::FaultKind>(kind) == sim::FaultKind::kCrash)
        dumpFlightRecord(seconds, "node_crash");
}

std::vector<ObjectStore::RebuildRead>
ObjectStore::rebuildReads(const ObjectManifest &manifest, size_t stripe,
                          uint64_t offset, uint64_t size) const
{
    const fac::StripeLayout &ls = manifest.layout.stripes[stripe];
    std::vector<RebuildRead> reads;
    for (size_t b = 0; b < options_.n && reads.size() < options_.k; ++b) {
        // Data blocks are stored at their true size and parity at the
        // stripe block size; past a block's end its bytes are zero.
        const uint64_t true_size =
            b >= options_.k ? ls.blockSize()
            : b < ls.dataBlocks.size() ? ls.dataBlocks[b].size()
                                       : 0;
        RebuildRead read{b, manifest.stripeNodes[stripe][b],
                         std::min(offset, true_size),
                         std::min(offset + size, true_size)};
        if (read.lo < read.hi) {
            const sim::StorageNode &node = cluster_.node(read.nodeId);
            if (!nodeResponsive(node) ||
                node.findBlock(manifest.blockKey(stripe, b)) == nullptr)
                continue;
        }
        reads.push_back(read);
    }
    return reads;
}

Result<std::vector<Bytes>>
ObjectStore::rebuildRange(const ObjectManifest &manifest, size_t stripe,
                          uint64_t offset, uint64_t size)
{
    const std::vector<RebuildRead> reads =
        rebuildReads(manifest, stripe, offset, size);
    if (!rs_.recoverable(reads.size()))
        return Status::unavailable(
            "cannot rebuild bytes [" + std::to_string(offset) + ", " +
            std::to_string(offset + size) + ") of stripe " +
            std::to_string(stripe) + " of '" + manifest.name + "': " +
            std::to_string(reads.size()) + " of " +
            std::to_string(options_.n) + " shards reachable, need " +
            std::to_string(options_.k));

    std::vector<std::optional<Bytes>> shards(options_.n);
    uint64_t read_bytes = 0;
    for (const RebuildRead &read : reads) {
        Bytes &shard = shards[read.block].emplace(size, 0);
        if (read.lo == read.hi)
            continue; // known zero
        const Bytes *block = cluster_.node(read.nodeId)
                                 .findBlock(manifest.blockKey(stripe,
                                                              read.block));
        FUSION_CHECK(block != nullptr && read.hi <= block->size());
        std::copy(block->begin() + read.lo, block->begin() + read.hi,
                  shard.begin());
        read_bytes += read.hi - read.lo;
    }
    obs::Tracer::Scoped span(obs_.tracer, "reconstruct",
                             "\"range_bytes\": " + std::to_string(size));
    FUSION_RETURN_IF_ERROR(rs_.reconstruct(shards, size));
    ins_.parityReconstructions->add(1);
    ins_.rebuildReadBytes->add(read_bytes);
    std::vector<Bytes> out;
    out.reserve(shards.size());
    for (auto &shard : shards)
        out.push_back(std::move(*shard));
    return out;
}

Result<Bytes>
ObjectStore::readChunkBytes(const ObjectManifest &manifest,
                            uint32_t chunk_id)
{
    const fac::ChunkExtent &extent = manifest.extents.at(chunk_id);
    Bytes out(extent.size);
    std::vector<const PieceLocation *> lost;
    LostRanges ranges;
    for (const auto &piece : manifest.chunkPieces.at(chunk_id)) {
        const Bytes *block =
            fetchBlockWithRetry(manifest, piece.stripe, piece.blockIndex);
        if (!block) {
            lost.push_back(&piece);
            coverLostPiece(ranges, piece);
            continue;
        }
        FUSION_CHECK(piece.blockOffset + piece.size <= block->size());
        std::copy(block->begin() + piece.blockOffset,
                  block->begin() + piece.blockOffset + piece.size,
                  out.begin() + piece.chunkOffset);
    }
    if (lost.empty())
        return out;

    // Degraded read: one range rebuild per stripe serves every lost
    // piece in it.
    for (const auto &[stripe, range] : ranges) {
        auto shards = rebuildRange(manifest, stripe, range.first,
                                   range.second - range.first);
        if (!shards.isOk())
            return shards.status();
        for (const PieceLocation *piece : lost) {
            if (piece->stripe != stripe)
                continue;
            auto from = shards.value()[piece->blockIndex].begin() +
                        (piece->blockOffset - range.first);
            std::copy(from, from + piece->size,
                      out.begin() + piece->chunkOffset);
        }
    }

    ins_.degradedChunkReads->add(1);
    // A degraded read means this chunk's canonical placement is
    // suspect; any cached copy could go stale once repair rewrites
    // blocks, so the cache never serves a chunk touched by
    // reconstruction.
    chunkCache_.invalidate(manifest.name, chunk_id);
    obs_.tracer.instant(
        "degraded_read",
        "\"chunk\": " + std::to_string(chunk_id) + ", \"object\": \"" +
            manifest.name + "\"");
    const double now = cluster_.engine().now();
    obs_.telemetry.flight().record(
        now, "degraded_read",
        "\"chunk\": " + std::to_string(chunk_id) + ", \"object\": \"" +
            manifest.name + "\"");
    dumpFlightRecord(now, "degraded_read");
    return out;
}

Result<Bytes>
ObjectStore::get(const std::string &name)
{
    auto m = manifest(name);
    if (!m.isOk())
        return m.status();
    const ObjectManifest &manifest = *m.value();
    // A non-empty delta log returns the merged materialization (base
    // rows plus appends), byte-identical to the post-compaction base.
    auto log = deltaLogs_.find(name);
    if (log == deltaLogs_.end() || log->second.empty())
        return readObjectBytes(manifest);
    auto merged =
        materializeMerged(manifest, log->second, log->second.lastSeq());
    if (!merged.isOk())
        return merged.status();
    return std::move(merged.value().bytes);
}

Result<Bytes>
ObjectStore::get(const std::string &name, uint64_t offset, uint64_t size)
{
    auto m = manifest(name);
    if (!m.isOk())
        return m.status();
    auto log = deltaLogs_.find(name);
    if (log != deltaLogs_.end() && !log->second.empty()) {
        auto merged = materializeMerged(*m.value(), log->second,
                                        log->second.lastSeq());
        if (!merged.isOk())
            return merged.status();
        const Bytes &bytes = merged.value().bytes;
        if (size > bytes.size() || offset > bytes.size() - size)
            return Status::outOfRange("read beyond object end");
        return Bytes(bytes.begin() + offset, bytes.begin() + offset + size);
    }
    const uint64_t total = m.value()->objectSize;
    if (size > total || offset > total - size)
        return Status::outOfRange("read beyond object end");
    // Reassemble only the chunks overlapping the range.
    Bytes out(size);
    for (const auto &extent : m.value()->extents) {
        uint64_t lo = std::max(offset, extent.offset);
        uint64_t hi = std::min(offset + size, extent.offset + extent.size);
        if (lo >= hi)
            continue;
        auto chunk = readChunkBytes(*m.value(), extent.id);
        if (!chunk.isOk())
            return chunk.status();
        std::copy(chunk.value().begin() + (lo - extent.offset),
                  chunk.value().begin() + (hi - extent.offset),
                  out.begin() + (lo - offset));
    }
    return out;
}

Result<size_t>
ObjectStore::repairNode(size_t node_id)
{
    if (node_id >= cluster_.numNodes())
        return Status::invalidArgument("no such node");
    sim::StorageNode &node = cluster_.node(node_id);
    if (!node.alive())
        return Status::failedPrecondition("revive the node before repair");

    // The manifest's per-node shard lists exactly the blocks that
    // should live here — no stripes x n scan over every object.
    size_t rebuilt = 0;
    for (const auto &[name, manifest] : manifests_) {
        for (const auto &ref : manifest.blocksOnNode(node_id)) {
            if (node.findBlock(manifest.blockKey(ref.stripe,
                                                 ref.blockIndex)))
                continue; // still intact
            auto shards = rebuildRange(
                manifest, ref.stripe, 0,
                manifest.layout.stripes[ref.stripe].blockSize());
            if (!shards.isOk())
                return shards.status();
            Bytes block = std::move(shards.value()[ref.blockIndex]);
            block.resize(ref.size);
            node.putBlock(manifest.blockKey(ref.stripe, ref.blockIndex),
                          std::move(block));
            ++rebuilt;
        }
    }
    return rebuilt;
}

Result<query::Query>
ObjectStore::resolveQuery(const query::Query &q,
                          const format::Schema &schema) const
{
    query::Query resolved = q;
    resolved.projections.clear();
    for (const auto &proj : q.projections) {
        if (proj.column == query::kStarProjection &&
            proj.aggregate == query::AggregateKind::kNone) {
            for (const auto &col : schema.columns())
                resolved.projections.push_back(
                    {col.name, query::AggregateKind::kNone});
            continue;
        }
        if (!proj.column.empty()) {
            auto idx = schema.columnIndex(proj.column);
            if (!idx.isOk())
                return idx.status();
            // Aggregates reduce only after planning; reject this before
            // planning touches the chunk cache or the heat table.
            if (proj.aggregate != query::AggregateKind::kNone &&
                proj.aggregate != query::AggregateKind::kCount &&
                schema.column(idx.value()).physical ==
                    format::PhysicalType::kString)
                return Status::invalidArgument(
                    "numeric aggregate over a string column");
        }
        resolved.projections.push_back(proj);
    }
    for (const auto &pred : resolved.filters) {
        auto idx = schema.columnIndex(pred.column);
        if (!idx.isOk())
            return idx.status();
    }
    return resolved;
}

Status
ObjectStore::prefetchDecodedChunks(
    const ObjectManifest &manifest,
    const std::vector<std::pair<size_t, size_t>> &rg_cols)
{
    // Dedupe within the request, then against the memo: one decode
    // hit or miss per distinct chunk.
    ObjectMemo &memo = memo_[manifest.name];
    std::vector<std::pair<size_t, size_t>> todo;
    std::set<uint32_t> seen;
    for (const auto &[rg, col] : rg_cols) {
        uint32_t chunk_id = manifest.chunkIdFor(rg, col);
        if (!seen.insert(chunk_id).second)
            continue;
        if (memo.chunks.count(chunk_id) > 0) {
            ins_.cacheDecodeHit->add(1);
            continue;
        }
        ins_.cacheDecodeMiss->add(1);
        todo.emplace_back(rg, col);
    }
    if (todo.empty())
        return Status::ok();

    // Phase 1 (serial): fetch raw chunk bytes. This is where degraded
    // reads, retries and fault counters happen — it must stay on the
    // calling thread so they are identical for any thread count.
    std::vector<Bytes> raw(todo.size());
    for (size_t i = 0; i < todo.size(); ++i) {
        auto bytes = readChunkBytes(
            manifest, manifest.chunkIdFor(todo[i].first, todo[i].second));
        if (!bytes.isOk())
            return bytes.status();
        raw[i] = std::move(bytes.value());
    }

    // Phase 2 (parallel): decompress + decode, pure per-slot CPU work.
    std::vector<Result<format::ColumnData>> decoded(
        todo.size(), Result<format::ColumnData>(format::ColumnData()));
    ThreadPool::shared().parallelFor(0, todo.size(), [&](size_t i) {
        decoded[i] = format::decodeChunk(
            Slice(raw[i]),
            manifest.fileMeta.schema.column(todo[i].second).physical);
    });

    // Phase 3 (serial): surface errors in index order, fill the memo.
    for (size_t i = 0; i < todo.size(); ++i) {
        if (!decoded[i].isOk())
            return decoded[i].status();
        memo.chunks.emplace(
            manifest.chunkIdFor(todo[i].first, todo[i].second),
            std::move(decoded[i].value()));
    }
    return Status::ok();
}

Result<const ObjectStore::DataPlane *>
ObjectStore::executeDataPlane(const ObjectManifest &manifest,
                              const query::Query &q)
{
    // Taken once: the parallel loops below only read the memo.
    ObjectMemo &memo = memo_[manifest.name];
    std::string plane_key = q.toString();
    auto cached = memo.planes.find(plane_key);
    if (cached != memo.planes.end()) {
        ins_.cachePlanHit->add(1);
        return &cached->second;
    }
    ins_.cachePlanMiss->add(1);

    const format::FileMetadata &meta = manifest.fileMeta;
    const format::Schema &schema = meta.schema;
    DataPlane plane;

    // Zone-map pruning (metadata only) decides which row groups scan.
    std::vector<size_t> scanned;
    for (size_t rg = 0; rg < meta.numRowGroups(); ++rg) {
        bool may_match = true;
        for (const auto &pred : q.filters) {
            size_t col = schema.columnIndex(pred.column).value();
            if (!query::chunkMayMatch(meta.chunk(rg, col), pred)) {
                may_match = false;
                break;
            }
        }
        if (may_match)
            scanned.push_back(rg);
    }

    // Decode every filter chunk the scan will touch, concurrently
    // (fetch stays serial inside; see prefetchDecodedChunks), then
    // evaluate every (row group, predicate) bitmap concurrently — both
    // are pure CPU work inside this one simulated event.
    std::vector<std::pair<size_t, size_t>> filter_chunks;
    for (size_t rg : scanned)
        for (const auto &col_name : q.filterColumns())
            filter_chunks.emplace_back(
                rg, schema.columnIndex(col_name).value());
    FUSION_RETURN_IF_ERROR(prefetchDecodedChunks(manifest, filter_chunks));

    const size_t nf = q.filters.size();
    std::vector<size_t> pred_cols(nf);
    for (size_t p = 0; p < nf; ++p)
        pred_cols[p] = schema.columnIndex(q.filters[p].column).value();
    // Slot s * nf + p holds predicate p over row group scanned[s].
    std::vector<Result<query::Bitmap>> pred_bitmaps(
        scanned.size() * nf, Result<query::Bitmap>(query::Bitmap()));
    ThreadPool::shared().parallelFor(
        0, pred_bitmaps.size(), [&](size_t i) {
            const size_t rg = scanned[i / nf], p = i % nf;
            const query::Predicate &pred = q.filters[p];
            pred_bitmaps[i] = query::evalPredicate(
                memo.chunks.at(manifest.chunkIdFor(rg, pred_cols[p])),
                pred.op, pred.literal);
        });
    for (const auto &bitmap : pred_bitmaps)
        if (!bitmap.isOk())
            return bitmap.status();

    // ---- filter stage (real) ----
    uint64_t matched = 0;
    plane.rowGroupBitmaps.resize(meta.numRowGroups());
    plane.rowGroupBitmapWireSize.assign(meta.numRowGroups(), 0);
    for (size_t s = 0; s < scanned.size(); ++s) {
        const size_t rg = scanned[s];
        query::Bitmap bitmap(meta.rowGroups[rg].numRows, true);
        // Predicates grouped per column: a storage node ANDs all
        // predicates on its chunk and returns one bitmap.
        for (const auto &col_name : q.filterColumns()) {
            size_t col = schema.columnIndex(col_name).value();
            query::Bitmap col_bitmap(meta.rowGroups[rg].numRows, true);
            for (size_t p = 0; p < nf; ++p)
                if (q.filters[p].column == col_name)
                    col_bitmap.intersect(pred_bitmaps[s * nf + p].value());
            plane.filterReplyWireSize[{rg, col}] =
                col_bitmap.compressedWireSize();
            bitmap.intersect(col_bitmap);
        }
        matched += bitmap.count();
        plane.result.rowsScanned += meta.rowGroups[rg].numRows;
        plane.rowGroupBitmapWireSize[rg] = bitmap.compressedWireSize();
        plane.rowGroupBitmaps[rg] = std::move(bitmap);
    }
    plane.result.rowsMatched = matched;
    plane.selectivity =
        meta.numRows == 0
            ? 0.0
            : static_cast<double>(matched) /
                  static_cast<double>(meta.numRows);

    // ---- projection stage (real) ----
    // Decode all projection chunks the selection touches concurrently
    // before the (ordered) materialization loop below.
    std::vector<std::pair<size_t, size_t>> projection_chunks;
    for (const auto &name : q.projectionColumns()) {
        size_t col = schema.columnIndex(name).value();
        for (size_t rg = 0; rg < meta.numRowGroups(); ++rg) {
            const auto &bitmap = plane.rowGroupBitmaps[rg];
            if (bitmap.has_value() && bitmap->count() > 0)
                projection_chunks.emplace_back(rg, col);
        }
    }
    FUSION_RETURN_IF_ERROR(
        prefetchDecodedChunks(manifest, projection_chunks));

    std::map<std::string, format::ColumnData> projected;
    for (const auto &name : q.projectionColumns()) {
        size_t col = schema.columnIndex(name).value();
        format::ColumnData values(schema.column(col).physical);
        for (size_t rg = 0; rg < meta.numRowGroups(); ++rg) {
            const auto &bitmap = plane.rowGroupBitmaps[rg];
            if (!bitmap.has_value() || bitmap->count() == 0)
                continue;
            format::ColumnData selected = query::selectRows(
                memo.chunks.at(manifest.chunkIdFor(rg, col)), *bitmap);
            plane.projectionReplySize[{rg, col}] =
                selected.plainEncodedSize();
            values.append(selected);
        }
        projected.emplace(name, std::move(values));
    }

    // Aggregates keep their selected values (COUNT(*) has none); they
    // reduce once, after any delta merge, in planQueryForBatch.
    for (const auto &proj : q.projections) {
        query::ProjectionResult out;
        out.isAggregate = proj.aggregate != query::AggregateKind::kNone;
        out.name = out.isAggregate
                       ? std::string(aggregateKindName(proj.aggregate)) +
                             "(" +
                             (proj.isCountStar() ? "*" : proj.column) + ")"
                       : proj.column;
        if (!proj.isCountStar())
            out.values = projected.at(proj.column);
        plane.result.columns.push_back(std::move(out));
    }

    return &memo.planes.emplace(std::move(plane_key), std::move(plane))
                .first->second;
}

ObjectStore::ChunkPushdownState
ObjectStore::chunkPushdownState(const ObjectManifest &manifest,
                                uint32_t chunk_id) const
{
    auto nodes = manifest.nodesForChunk(chunk_id);
    if (nodes.size() != 1)
        return ChunkPushdownState::kSplit;
    return nodeResponsive(cluster_.node(nodes[0]))
               ? ChunkPushdownState::kPushable
               : ChunkPushdownState::kFaulted;
}

void
ObjectStore::dropCaches()
{
    // The memo only; the semantic hot-chunk cache survives (it is kept
    // correct by invalidation, not recomputation).
    memo_.clear();
}

bool
ObjectStore::cacheLookupChunk(const ObjectManifest &manifest,
                              uint32_t chunk_id)
{
    // Every counted probe is an access for the chunk-heat table,
    // whether or not the cache tier is on — the heat signal must
    // exist before anyone sizes a cache (or re-stripes) from it.
    obs_.telemetry.heat().recordAccess(cluster_.engine().now(),
                                       manifest.shareName(), chunk_id);
    if (!chunkCache_.enabled())
        return false;
    uint64_t span = obs_.tracer.beginSpan(
        "cache_lookup",
        "\"chunk\": " + std::to_string(chunk_id) + ", \"object\": \"" +
            manifest.name + "\"");
    const bool hit = chunkCache_.lookup(manifest.name, chunk_id);
    obs_.tracer.endSpan(span);
    return hit;
}

bool
ObjectStore::cacheAdmitChunk(const ObjectManifest &manifest,
                             uint32_t chunk_id)
{
    if (!chunkCache_.enabled())
        return false;
    // A resident chunk just refreshes its SIEVE visited bit. A new one
    // models the coordinator keeping bytes it already moved, so it must
    // not count extra fault-path work — and degraded bytes never enter
    // the cache: every piece must sit whole on a responsive node.
    if (!chunkCache_.contains(manifest.name, chunk_id)) {
        for (const auto &piece : manifest.chunkPieces.at(chunk_id)) {
            const sim::StorageNode &node = cluster_.node(
                manifest.stripeNodes[piece.stripe][piece.blockIndex]);
            if (!nodeResponsive(node))
                return false;
            const Bytes *block = node.findBlock(
                manifest.blockKey(piece.stripe, piece.blockIndex));
            if (!block || piece.blockOffset + piece.size > block->size())
                return false;
        }
    }
    return chunkCache_.admit(manifest.name, chunk_id,
                             manifest.extents.at(chunk_id).size);
}

bool
ObjectStore::admitChunkToCache(const std::string &object, uint32_t chunk_id)
{
    // The scheduler hands back the object part of a share key, which
    // embeds the generation ("name@gN") for compacted objects. An exact
    // manifest match wins (an object could literally be named with
    // "@g"); otherwise strip the suffix — and refuse when the key's
    // generation is no longer current, so a conversion planned against
    // a superseded generation never admits stale chunk ids.
    auto exact = manifests_.find(object);
    if (exact != manifests_.end() && exact->second.generation == 0)
        return cacheAdmitChunk(exact->second, chunk_id);
    std::string name = object;
    uint64_t generation = 0;
    size_t at = object.rfind("@g");
    if (at != std::string::npos && at + 2 < object.size()) {
        bool digits = true;
        for (size_t i = at + 2; i < object.size() && digits; ++i)
            digits = object[i] >= '0' && object[i] <= '9';
        if (digits) {
            name = object.substr(0, at);
            generation = std::stoull(object.substr(at + 2));
        }
    }
    auto m = manifests_.find(name);
    if (m == manifests_.end() || m->second.generation != generation)
        return false;
    return cacheAdmitChunk(m->second, chunk_id);
}

uint64_t
ObjectStore::appendChunkFetchTasks(const ObjectManifest &manifest,
                                   uint32_t chunk_id, double coord_cpu_work,
                                   std::vector<SimTask> &tasks)
{
    uint64_t total = 0;
    const size_t first_new = tasks.size();
    LostRanges lost;
    obs_.telemetry.heat().recordAccess(cluster_.engine().now(),
                                       manifest.shareName(), chunk_id);

    // Share keys: any query fetching the same healthy piece (or the
    // same survivor range during a degraded read) moves the same
    // bytes, so the batch scheduler can issue it once. The
    // generation-qualified name keeps in-flight shares planned against
    // a superseded generation from aliasing the new one.
    const std::string key_base = "fetch|" + manifest.shareName() + "|" +
                                 std::to_string(chunk_id) + "|";
    size_t ordinal = 0;
    for (const auto &piece : manifest.chunkPieces.at(chunk_id)) {
        size_t node_id =
            manifest.stripeNodes[piece.stripe][piece.blockIndex];
        if (nodeResponsive(cluster_.node(node_id))) {
            SimTask task{node_id, options_.requestRpcBytes, piece.size,
                         0.0, piece.size, 0.0};
            task.shareKey = key_base + std::to_string(ordinal++);
            task.chunkId = chunk_id;
            tasks.push_back(std::move(task));
            total += piece.size;
        } else {
            coverLostPiece(lost, piece);
        }
    }

    // Degraded read: pull the lost range of each affected stripe from
    // k survivors and decode it at the coordinator (rebuildRange).
    for (const auto &[stripe, range] : lost) {
        const auto [lo, hi] = range;
        for (const RebuildRead &read :
             rebuildReads(manifest, stripe, lo, hi - lo)) {
            if (read.lo == read.hi)
                continue; // known zero: no I/O
            const uint64_t size = read.hi - read.lo;
            SimTask task{read.nodeId, options_.requestRpcBytes, size, 0.0,
                         size, 0.0};
            // The range keeps two lost chunks of one stripe apart.
            task.shareKey = "stripe|" + manifest.shareName() + "|" +
                            std::to_string(stripe) + "|" +
                            std::to_string(read.block) + "|" +
                            std::to_string(read.lo) + "-" +
                            std::to_string(read.hi);
            task.chunkId = chunk_id;
            tasks.push_back(std::move(task));
            total += size;
        }
        // EC decode cost: k survivor ranges combined per rebuild.
        coord_cpu_work += static_cast<double>(hi - lo) * options_.k;
    }

    if (tasks.size() > first_new)
        tasks.back().coordCpuWork += coord_cpu_work;
    return total;
}

void
ObjectStore::accountTask(const SimTask &task, size_t coordinator,
                         bool projection_stage, QueryOutcome &out) const
{
    const sim::NodeConfig &nc = cluster_.config().node;
    obs::Counter *wire_request =
        projection_stage ? ins_.wireProjectionRequest : ins_.wireFilterRequest;
    obs::Counter *wire_reply =
        projection_stage ? ins_.wireProjectionReply : ins_.wireFilterReply;
    if (task.nodeId != coordinator) {
        out.networkBytes += task.requestBytes + task.replyBytes;
        out.networkSeconds +=
            static_cast<double>(task.requestBytes + task.replyBytes) /
                nc.nicBandwidth +
            2 * nc.rpcLatency;
        wire_request->add(task.requestBytes);
        wire_reply->add(task.replyBytes);
    }
    if (task.diskBytes > 0) {
        out.diskSeconds +=
            static_cast<double>(task.diskBytes) / nc.diskBandwidth +
            nc.diskSeekLatency;
    }
    out.cpuSeconds += (task.nodeCpuWork + task.coordCpuWork) / nc.cpuRate;
}

void
ObjectStore::accountClientExchange(QueryPlan &plan) const
{
    const sim::NodeConfig &nc = cluster_.config().node;
    const uint64_t bytes = options_.clientRequestBytes + plan.clientReplyBytes;
    plan.outcome.networkBytes += bytes;
    plan.outcome.networkSeconds +=
        static_cast<double>(bytes) / nc.nicBandwidth + 2 * nc.rpcLatency;
    ins_.wireClientRequest->add(options_.clientRequestBytes);
    ins_.wireClientReply->add(plan.clientReplyBytes);
    ins_.wireClientReplyPlain->add(plan.clientReplyPlainBytes);
}

ObjectStore::SimTask
ObjectStore::makeSharedFetchTask(const SimTask &pushdown) const
{
    // "ppush|object|chunk|sig" (or apush) -> "cfetch|object|chunk".
    size_t p1 = pushdown.shareKey.find('|');
    size_t p2 = pushdown.shareKey.find('|', p1 + 1);
    size_t p3 = pushdown.shareKey.find('|', p2 + 1);
    FUSION_CHECK_MSG(p3 != std::string::npos,
                     "not a per-chunk pushdown task");
    SimTask fetch;
    fetch.nodeId = pushdown.nodeId;
    fetch.requestBytes = options_.requestRpcBytes;
    fetch.diskBytes = pushdown.chunkStoredBytes;
    fetch.nodeCpuWork = 0.0;
    fetch.replyBytes = pushdown.chunkStoredBytes;
    fetch.coordCpuWork = pushdown.fetchDecodeWork;
    fetch.label = "chunk_fetch";
    fetch.shareKey =
        "cfetch|" + pushdown.shareKey.substr(p1 + 1, p3 - p1 - 1);
    fetch.chunkId = pushdown.chunkId;
    fetch.chunkStoredBytes = pushdown.chunkStoredBytes;
    fetch.chunkPlainBytes = pushdown.chunkPlainBytes;
    fetch.fetchDecodeWork = pushdown.fetchDecodeWork;
    fetch.consumerSelectWork = pushdown.consumerSelectWork;
    return fetch;
}

void
ObjectStore::executeTask(const SimTask &task, size_t coordinator,
                         std::shared_ptr<sim::Join> join)
{
    sim::StorageNode *node = &cluster_.node(task.nodeId);
    sim::StorageNode *coord = &cluster_.node(coordinator);
    const double seek = cluster_.config().node.diskSeekLatency;

    // All DES callbacks run on the driver thread, so recording into the
    // tracer here is safe; the span covers the task's full simulated
    // lifetime (request, disk, node CPU, reply, coordinator CPU).
    uint64_t span = obs_.tracer.beginSpan(
        task.label, "\"node\": " + std::to_string(task.nodeId) +
                        ", \"disk_bytes\": " +
                        std::to_string(task.diskBytes) +
                        ", \"reply_bytes\": " +
                        std::to_string(task.replyBytes));

    auto node_work = [this, node, coord, task, join, seek, span]() {
        node->disk().acquire(
            static_cast<double>(task.diskBytes),
            task.diskBytes ? seek : 0.0,
            [this, node, coord, task, join, span]() {
                node->cpu().acquire(task.nodeCpuWork, [this, node, coord,
                                                       task, join, span]() {
                    auto coord_work = [this, coord, task, join, span]() {
                        coord->cpu().acquire(task.coordCpuWork,
                                             [this, join, span]() {
                                                 obs_.tracer.endSpan(span);
                                                 join->signal();
                                             });
                    };
                    if (node == coord) {
                        coord_work();
                    } else {
                        cluster_.transfer(*node, *coord, task.replyBytes,
                                          std::move(coord_work));
                    }
                });
            });
    };

    if (task.nodeId == coordinator) {
        node_work();
    } else {
        cluster_.transfer(*coord, *node, task.requestBytes,
                          std::move(node_work));
    }
}

void
ObjectStore::simulateQuery(std::shared_ptr<QueryPlan> plan,
                           double start_seconds,
                           const std::string &span_args,
                           TaskDispatch dispatch, std::function<void()> done)
{
    sim::StorageNode *client = &cluster_.client();
    sim::StorageNode *coord = &cluster_.node(plan->coordinatorId);

    // Stage span ids cross several DES callbacks; the array outlives
    // this frame via shared_ptr. [0]=query, [1]=filter, [2]=projection.
    auto spans = std::make_shared<std::array<uint64_t, 3>>();
    (*spans)[0] = obs_.tracer.beginSpan(
        "query", span_args + "\"filter_tasks\": " +
                     std::to_string(plan->filterTasks.size()) +
                     ", \"projection_tasks\": " +
                     std::to_string(plan->projectionTasks.size()));

    auto reply = [this, plan, done = std::move(done), start_seconds,
                  spans]() {
        const double now = cluster_.engine().now();
        plan->outcome.latencySeconds = now - start_seconds;
        recordQueryLatency(now, plan->outcome.latencySeconds);
        accountClientExchange(*plan);
        obs_.tracer.endSpan((*spans)[0]);
        done();
    };

    // Inter-stage and reply CPU are summed after every task's own
    // costs: one fixed order keeps cpuSeconds bit-stable under any
    // dispatch. The reply is encoded at the coordinator and decoded at
    // the client, each paying clientReplyWork; zero work skips the
    // acquire, which would still wait for a free core.
    auto finish = [this, plan, reply, client, coord, spans]() {
        obs_.tracer.endSpan((*spans)[2]);
        const double rate = cluster_.config().node.cpuRate;
        const double work = plan->clientReplyWork;
        plan->outcome.cpuSeconds += plan->interStageCoordWork / rate;
        plan->outcome.cpuSeconds += work / rate; // coordinator encode
        plan->outcome.cpuSeconds += work / rate; // client decode
        const uint64_t span = obs_.tracer.beginSpan(
            "client_reply",
            "\"reply_bytes\": " + std::to_string(plan->clientReplyBytes) +
                ", \"plain_bytes\": " +
                std::to_string(plan->clientReplyPlainBytes));
        auto decoded = [this, reply, span]() {
            obs_.tracer.endSpan(span);
            reply();
        };
        auto decode = [client, work, decoded]() {
            if (work > 0.0)
                client->cpu().acquire(work, decoded);
            else
                decoded();
        };
        auto ship = [this, plan, client, coord, decode]() {
            cluster_.transfer(*coord, *client, plan->clientReplyBytes,
                              decode);
        };
        if (work > 0.0)
            coord->cpu().acquire(work, ship);
        else
            ship();
    };

    auto run_stage = [plan, dispatch = std::move(dispatch)](
                         bool projection, std::function<void()> next) {
        const size_t n = projection ? plan->projectionTasks.size()
                                    : plan->filterTasks.size();
        auto join = std::make_shared<sim::Join>(n, std::move(next));
        for (size_t ti = 0; ti < n; ++ti)
            dispatch(projection, ti, join);
    };

    auto projection_stage = [this, plan, finish, run_stage, coord,
                             spans]() {
        obs_.tracer.endSpan((*spans)[1]);
        (*spans)[2] = obs_.tracer.beginSpan("projection_stage");
        coord->cpu().acquire(plan->interStageCoordWork,
                             [run_stage, finish]() {
                                 run_stage(true, finish);
                             });
    };

    auto filter_stage = [this, run_stage, projection_stage, spans]() {
        (*spans)[1] = obs_.tracer.beginSpan("filter_stage");
        run_stage(false, projection_stage);
    };

    // Retry backoff against faulted nodes delays the whole plan (the
    // coordinator waited before falling back to reconstruction).
    auto start_plan = [this, plan, filter_stage]() {
        if (plan->extraLatencySeconds > 0.0)
            cluster_.engine().schedule(plan->extraLatencySeconds,
                                       filter_stage);
        else
            filter_stage();
    };

    cluster_.transfer(*client, *coord, options_.clientRequestBytes,
                      start_plan);
}

Result<std::shared_ptr<ObjectStore::QueryPlan>>
ObjectStore::planQueryForBatch(const query::Query &q)
{
    auto m = manifest(q.table);
    if (!m.isOk())
        return m.status();
    if (!m.value()->isFpax)
        return Status::failedPrecondition(
            "object '" + q.table + "' is not an analytics (fpax) object");
    auto resolved = resolveQuery(q, m.value()->fileMeta.schema);
    if (!resolved.isOk())
        return resolved.status();
    const uint64_t rebuilds_before = ins_.parityReconstructions->value();
    const uint64_t retries_before = ins_.readRetries->value();
    const double backoff_before = ins_.backoffSeconds->value();
    auto plan = planQuery(*m.value(), resolved.value());
    if (!plan.isOk())
        return plan.status();
    QueryPlan &p = plan.value();
    p.outcome.parityReconstructions =
        ins_.parityReconstructions->value() - rebuilds_before;
    p.outcome.readRetries = ins_.readRetries->value() - retries_before;
    p.extraLatencySeconds = ins_.backoffSeconds->value() - backoff_before;
    auto shared = std::make_shared<QueryPlan>(std::move(p));
    // Queries see appended rows immediately: every live delta segment
    // merges on top of the planned base-generation results.
    auto log = deltaLogs_.find(q.table);
    if (log != deltaLogs_.end() && !log->second.empty()) {
        Status merged = mergeDeltaIntoPlan(*m.value(), log->second,
                                           resolved.value(), *shared);
        if (!merged.isOk())
            return merged;
    }
    // Each aggregate reduces once, over base-then-delta values.
    query::QueryResult &res = shared->outcome.result;
    for (size_t i = 0; i < res.columns.size(); ++i) {
        query::ProjectionResult &col = res.columns[i];
        if (!col.isAggregate)
            continue;
        const query::Projection &proj = resolved.value().projections[i];
        if (proj.isCountStar()) {
            col.aggregateValue = static_cast<double>(res.rowsMatched);
        } else {
            auto agg = query::computeAggregate(proj.aggregate, col.values);
            if (!agg.isOk())
                return agg.status();
            col.aggregateValue = agg.value();
        }
        col.values = format::ColumnData();
    }
    FUSION_RETURN_IF_ERROR(encodeClientReply(*m.value(), *shared));
    return shared;
}

Status
ObjectStore::encodeClientReply(const ObjectManifest &manifest,
                               QueryPlan &plan) const
{
    const format::FileMetadata &meta = manifest.fileMeta;
    // Dictionary encoding is the writer's verdict that the column's
    // values repeat, so the reply is worth encoding only when every
    // chunk of the column carries it.
    auto dictionary_column = [&meta](const std::string &name) {
        auto col = meta.schema.columnIndex(name);
        if (!col.isOk())
            return false;
        for (size_t rg = 0; rg < meta.numRowGroups(); ++rg)
            if (meta.chunk(rg, col.value()).encoding !=
                format::ChunkEncoding::kDictionary)
                return false;
        return true;
    };

    std::vector<obs::ExplainReply> lines;
    for (query::ProjectionResult &col : plan.outcome.result.columns) {
        obs::ExplainReply line{col.name, "aggregate", 16, 16};
        if (!col.isAggregate) {
            line.encoding = "plain";
            line.plainBytes = col.values.plainEncodedSize();
            line.bytes = line.plainBytes;
            // encodeChunk refuses empty input; zero rows ship 0 bytes.
            if (!col.values.empty() && dictionary_column(col.name)) {
                format::EncodedChunk wire = format::encodeChunk(
                    col.values, format::ChunkEncodeOptions{});
                auto decoded =
                    format::decodeChunk(wire.bytes, col.values.type());
                if (!decoded.isOk())
                    return decoded.status();
                col.values = std::move(decoded.value());
                line.encoding =
                    wire.encoding == format::ChunkEncoding::kDictionary
                        ? "encoded:dictionary"
                        : "encoded:plain";
                line.bytes = wire.bytes.size();
                format::ChunkMeta shipped;
                shipped.storedSize = line.bytes;
                shipped.plainSize = line.plainBytes;
                plan.clientReplyWork += chunkDecodeWork(shipped);
            }
        }
        plan.clientReplyBytes += line.bytes;
        plan.clientReplyPlainBytes += line.plainBytes;
        lines.push_back(std::move(line));
    }

    if (plan.outcome.explain != nullptr) {
        // Copy-on-write: the base report may be shared with a caller.
        auto amended =
            std::make_shared<obs::QueryExplain>(*plan.outcome.explain);
        amended->replies = std::move(lines);
        plan.outcome.explain = std::move(amended);
    }
    return Status::ok();
}

void
ObjectStore::queryAsync(const query::Query &q,
                        std::function<void(Result<QueryOutcome>)> done)
{
    auto planned = planQueryForBatch(q);
    if (!planned.isOk()) {
        done(planned.status());
        return;
    }
    std::shared_ptr<QueryPlan> plan = std::move(planned.value());
    // Every task runs alone: no other query shares its transfer.
    auto dispatch = [this, plan](bool projection, size_t ti,
                                 std::shared_ptr<sim::Join> join) {
        const SimTask &task = projection ? plan->projectionTasks[ti]
                                         : plan->filterTasks[ti];
        accountTask(task, plan->coordinatorId, projection, plan->outcome);
        executeTask(task, plan->coordinatorId, std::move(join));
    };
    simulateQuery(plan, cluster_.engine().now(), "", std::move(dispatch),
                  [plan, done]() { done(plan->outcome); });
}

Result<QueryOutcome>
ObjectStore::query(const query::Query &q)
{
    std::optional<Result<QueryOutcome>> captured;
    queryAsync(q, [&captured](Result<QueryOutcome> outcome) {
        captured.emplace(std::move(outcome));
    });
    cluster_.engine().run();
    FUSION_CHECK_MSG(captured.has_value(), "query did not complete");
    return std::move(*captured);
}

Result<QueryOutcome>
ObjectStore::querySql(const std::string &sql)
{
    auto q = query::parseQuery(sql);
    if (!q.isOk())
        return q.status();
    return query(q.value());
}

} // namespace fusion::store
