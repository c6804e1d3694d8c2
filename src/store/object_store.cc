#include "object_store.h"

#include <algorithm>
#include <set>

#include "common/thread_pool.h"
#include "common/walltime.h"
#include "format/chunk_codec.h"
#include "format/reader.h"
#include "query/eval.h"

namespace fusion::store {

namespace {

ec::ReedSolomon
makeCode(size_t n, size_t k)
{
    auto rs = ec::ReedSolomon::create(n, k);
    FUSION_CHECK_MSG(rs.isOk(), "bad (n, k) erasure-code parameters");
    return std::move(rs.value());
}

} // namespace

ObjectStore::ObjectStore(sim::Cluster &cluster, const StoreOptions &options)
    : cluster_(cluster), options_(options),
      rs_(makeCode(options.n, options.k)), chunkCache_(options.cacheBytes),
      stages_(cluster_, options_, obs_),
      readPath_(cluster_, options_, rs_, obs_, chunkCache_),
      lifecycle_(cluster_, options_, obs_, readPath_, stages_, *this)
{
    FUSION_CHECK_MSG(cluster.numNodes() >= options.n,
                     "cluster smaller than erasure-code width n");

    // Spans carry the owning cluster's simulated clock; wall time never
    // appears in a trace.
    obs_.tracer.setClock(
        [engine = &cluster_.engine()]() { return engine->now(); });

    // Hot-chunk cache tier counters are registered even when the cache
    // is disabled so metric snapshots keep a stable key set.
    obs::MetricsRegistry &reg = obs_.metrics;
    chunkCache_.bindMetrics(&reg.counter("cache.chunk.hits"),
                            &reg.counter("cache.chunk.misses"),
                            &reg.counter("cache.chunk.evictions"),
                            &reg.gauge("cache.chunk.bytes"));
}

ObjectStore::~ObjectStore() = default;

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
    dropGeneration(it->second);
    lifecycle_.forget(name);
    forgetObject(name);
    manifests_.erase(it);
    return Status::ok();
}

void
ObjectStore::dropGeneration(const ObjectManifest &manifest)
{
    for (size_t s = 0; s < manifest.stripeNodes.size(); ++s) {
        for (size_t b = 0; b < manifest.stripeNodes[s].size(); ++b)
            cluster_.node(manifest.stripeNodes[s][b])
                .dropBlock(manifest.blockKey(s, b));
    }
}

void
ObjectStore::forgetObject(const std::string &name)
{
    chunkCache_.invalidateObject(name);
    memo_.erase(name);
    obs_.telemetry.heat().evictObject(name);
}

Result<const ObjectManifest *>
ObjectStore::installGeneration(const ObjectManifest &base,
                               const Bytes &object,
                               const std::vector<uint32_t> &hot_chunks)
{
    auto stored = buildStoredObject(base.name, object, base.generation + 1,
                                    hot_chunks);
    if (!stored.isOk())
        return stored.status();
    // The superseded generation's chunks must not linger anywhere the
    // new layout (or fusion_top) consults.
    dropGeneration(base);
    forgetObject(base.name);
    ObjectManifest &slot = manifests_.at(base.name);
    slot = std::move(stored.value().manifest);
    return &slot;
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
    // Block keys end in "#s<i>#b<j>" and delta keys in "#d<seq>", share
    // keys split on '|', and every alias of an object ("@g<N>",
    // "@delta") starts with '@': with '@' and '|' out of names, no
    // object's key or alias can spell another's.
    if (name.empty() || name.find_first_of("@|") != std::string::npos)
        return Status::invalidArgument(
            "object names must be non-empty and free of '@' and '|': '" +
            name + "'");
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
            cluster_.node(manifest.stripeNodes[s][b])
                .putBlock(manifest.blockKey(s, b), std::move(bytes));
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

    // Per-node bytes this put wrote (data at true size, parity full),
    // one entry for every node, zero-byte ones included.
    std::vector<std::pair<size_t, uint64_t>> writes;
    for (size_t node_id = 0; node_id < cluster_.numNodes(); ++node_id) {
        uint64_t bytes = 0;
        for (const auto &ref : manifest.blocksOnNode(node_id))
            bytes += ref.size;
        writes.emplace_back(node_id, bytes);
    }
    stages_.streamWrite(
        cluster_.coordinatorFor(name), result.value().objectBytes,
        std::move(writes),
        [this, out = result.value(), put_span,
         done = std::move(done)](double seconds) mutable {
            out.simulatedPutSeconds = seconds;
            obs_.tracer.endSpan(put_span);
            done(out);
        });
}

Result<Bytes>
ObjectStore::get(const std::string &name)
{
    return readObject(name, 0, std::nullopt);
}

Result<Bytes>
ObjectStore::get(const std::string &name, uint64_t offset, uint64_t size)
{
    return readObject(name, offset, size);
}

Result<Bytes>
ObjectStore::readObject(const std::string &name, uint64_t offset,
                        std::optional<uint64_t> size)
{
    auto m = manifest(name);
    if (!m.isOk())
        return m.status();
    const ObjectManifest &base = *m.value();
    const DeltaLog *log = lifecycle_.deltaLog(name);
    if (log == nullptr || log->empty()) {
        const uint64_t n = size.value_or(base.objectSize);
        if (n > base.objectSize || offset > base.objectSize - n)
            return Status::outOfRange("read beyond object end");
        return readPath_.readRange(base, offset, n);
    }
    // A non-empty delta log reads the merged materialization (base
    // rows plus appends), byte-identical to the post-compaction base.
    auto merged = lifecycle_.materializeMerged(base, *log, log->lastSeq());
    if (!merged.isOk())
        return merged.status();
    Bytes &bytes = merged.value().bytes;
    const uint64_t n = size.value_or(bytes.size());
    if (n > bytes.size() || offset > bytes.size() - n)
        return Status::outOfRange("read beyond object end");
    if (n == bytes.size())
        return std::move(bytes);
    return Bytes(bytes.begin() + offset, bytes.begin() + offset + n);
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
            const std::string key = manifest.blockKey(ref.stripe,
                                                      ref.blockIndex);
            if (node.findBlock(key))
                continue; // still intact
            auto block = readPath_.rebuildBlock(manifest, ref);
            if (!block.isOk())
                return block.status();
            node.putBlock(key, std::move(block.value()));
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
            cacheDecodeHit_.add(1);
            continue;
        }
        cacheDecodeMiss_.add(1);
        todo.emplace_back(rg, col);
    }
    if (todo.empty())
        return Status::ok();

    // Phase 1 (serial): fetch raw chunk bytes. This is where degraded
    // reads, retries and fault counters happen — it must stay on the
    // calling thread so they are identical for any thread count.
    std::vector<Bytes> raw(todo.size());
    for (size_t i = 0; i < todo.size(); ++i) {
        auto bytes = readPath_.readChunkBytes(
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
    ObjectMemo &memo = memo_[manifest.name];
    std::string plane_key = q.toString();
    auto cached = memo.planes.find(plane_key);
    if (cached != memo.planes.end()) {
        cachePlanHit_.add(1);
        return &cached->second;
    }
    cachePlanMiss_.add(1);

    // Chunks decode into the memo (fetch serial, decode on the shared
    // ThreadPool; see prefetchDecodedChunks); the kernel only reads it.
    ChunkSource source{
        [&](const std::vector<std::pair<size_t, size_t>> &rg_cols) {
            return prefetchDecodedChunks(manifest, rg_cols);
        },
        [&](size_t rg, size_t col) -> const format::ColumnData & {
            return memo.chunks.at(manifest.chunkIdFor(rg, col));
        }};
    auto plane = runDataPlane(manifest.fileMeta, q, source);
    if (!plane.isOk())
        return plane.status();
    return &memo.planes.emplace(std::move(plane_key), std::move(plane.value()))
                .first->second;
}

Result<ObjectStore::DataPlane>
ObjectStore::runDataPlane(const format::FileMetadata &meta,
                          const query::Query &q, const ChunkSource &source)
{
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

    // Load every filter chunk the scan will touch, then evaluate every
    // (row group, predicate) bitmap concurrently — pure CPU work inside
    // one simulated event.
    std::vector<std::pair<size_t, size_t>> filter_chunks;
    for (size_t rg : scanned)
        for (const auto &col_name : q.filterColumns())
            filter_chunks.emplace_back(
                rg, schema.columnIndex(col_name).value());
    FUSION_RETURN_IF_ERROR(source.load(filter_chunks));

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
                source.chunk(rg, pred_cols[p]), pred.op, pred.literal);
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
    // Load all projection chunks the selection touches before the
    // (ordered) materialization loop below.
    std::vector<std::pair<size_t, size_t>> projection_chunks;
    for (const auto &name : q.projectionColumns()) {
        size_t col = schema.columnIndex(name).value();
        for (size_t rg = 0; rg < meta.numRowGroups(); ++rg) {
            const auto &bitmap = plane.rowGroupBitmaps[rg];
            if (bitmap.has_value() && bitmap->count() > 0)
                projection_chunks.emplace_back(rg, col);
        }
    }
    FUSION_RETURN_IF_ERROR(source.load(projection_chunks));

    std::map<std::string, format::ColumnData> projected;
    for (const auto &name : q.projectionColumns()) {
        size_t col = schema.columnIndex(name).value();
        format::ColumnData values(schema.column(col).physical);
        for (size_t rg = 0; rg < meta.numRowGroups(); ++rg) {
            const auto &bitmap = plane.rowGroupBitmaps[rg];
            if (!bitmap.has_value() || bitmap->count() == 0)
                continue;
            format::ColumnData selected =
                query::selectRows(source.chunk(rg, col), *bitmap);
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

    return plane;
}

ObjectStore::ChunkPushdownState
ObjectStore::chunkPushdownState(const ObjectManifest &manifest,
                                uint32_t chunk_id) const
{
    auto nodes = manifest.nodesForChunk(chunk_id);
    if (nodes.size() != 1)
        return ChunkPushdownState::kSplit;
    return readPath_.nodeResponsive(cluster_.node(nodes[0]))
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
            if (!readPath_.nodeResponsive(node))
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
ObjectStore::admitChunkToCache(const std::string &object,
                               uint64_t generation, uint32_t chunk_id)
{
    // A conversion planned against a superseded generation never admits
    // stale chunk ids.
    auto m = manifests_.find(object);
    if (m == manifests_.end() || m->second.generation != generation)
        return false;
    return cacheAdmitChunk(m->second, chunk_id);
}

Result<std::shared_ptr<QueryPlan>>
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
    const uint64_t rebuilds_before = parityReconstructions_.value();
    const uint64_t retries_before = readRetries_.value();
    const double backoff_before = backoffSeconds_.value();
    auto plan = planQuery(*m.value(), resolved.value());
    if (!plan.isOk())
        return plan.status();
    QueryPlan &p = plan.value();
    p.outcome.parityReconstructions =
        parityReconstructions_.value() - rebuilds_before;
    p.outcome.readRetries = readRetries_.value() - retries_before;
    p.extraLatencySeconds = backoffSeconds_.value() - backoff_before;
    auto shared = std::make_shared<QueryPlan>(std::move(p));
    // Queries see appended rows immediately: every live delta segment
    // merges on top of the planned base-generation results.
    FUSION_RETURN_IF_ERROR(
        lifecycle_.mergeDeltaIntoPlan(*m.value(), resolved.value(), *shared));
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
    stages_.simulateQuery(plan, cluster_.engine().now(), "", nullptr,
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
