#include "read_path.h"

#include <algorithm>
#include <map>

#include "sim/fault.h"

namespace fusion::store {

namespace {

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

ReadPath::ReadPath(sim::Cluster &cluster, const StoreOptions &options,
                   const ec::ReedSolomon &code, obs::Observability &obs,
                   cache::ChunkCache &cache)
    : cluster_(cluster), options_(options), code_(code), obs_(obs),
      cache_(cache)
{
    // Windowed telemetry (obs/timeseries.h): per-node health scores
    // feeding the adaptive retry budget and the scheduler's load-shed
    // term. Health gauges are registered for every node up front so
    // snapshots keep a stable key set.
    obs_.telemetry.health().setNumNodes(cluster_.numNodes());
    lastBand_.assign(cluster_.numNodes(),
                     obs::NodeHealthTracker::Band::kHealthy);
    healthGauges_.reserve(cluster_.numNodes());
    for (size_t node = 0; node < cluster_.numNodes(); ++node) {
        obs::Gauge &gauge =
            obs_.metrics.gauge("health.node." + std::to_string(node));
        gauge.set(1.0);
        healthGauges_.push_back(&gauge);
    }
    // Every fault lands in the flight recorder; a crash dumps it.
    faultListenerId_ = cluster_.addFaultListener(
        [this](double seconds, int kind, size_t node, double slow_factor) {
            const auto fault = static_cast<sim::FaultKind>(kind);
            obs_.telemetry.flight().record(
                seconds, "fault",
                "\"node\": " + std::to_string(node) + ", \"kind\": \"" +
                    sim::faultKindName(fault) + "\", \"slow_factor\": " +
                    obs::formatDouble(slow_factor));
            if (fault == sim::FaultKind::kCrash)
                dumpFlightRecord(seconds, "node_crash");
        });
}

ReadPath::~ReadPath()
{
    cluster_.removeFaultListener(faultListenerId_);
}

bool
ReadPath::nodeResponsive(const sim::StorageNode &node) const
{
    if (!node.alive())
        return false;
    double response =
        node.slowFactor() * cluster_.config().node.rpcLatency;
    return response <= kReadTimeoutSeconds;
}

const Bytes *
ReadPath::fetchBlockWithRetry(const ObjectManifest &manifest, size_t stripe,
                              size_t block_index)
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
                    kReadTimeoutSeconds;
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
        readRetries_.add(1);
        backoffSeconds_.add(backoff);
        health.recordRetry(when, node_id, backoff);
        obs_.telemetry.flight().record(
            when, "retry",
            "\"node\": " + std::to_string(node_id) + ", \"object\": \"" +
                manifest.name + "\"");
        when += backoff;
        backoff = std::min(2.0 * backoff,
                           options_.retryBackoffMaxSeconds);
    }
    readTimeouts_.add(1);
    health.recordTimeout(when, node_id);
    obs_.telemetry.flight().record(
        when, "timeout",
        "\"node\": " + std::to_string(node_id) + ", \"object\": \"" +
            manifest.name + "\"");
    noteHealthEvent(when, node_id);
    return nullptr;
}

size_t
ReadPath::retryBudgetFor(size_t node_id, double now_seconds) const
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
ReadPath::noteHealthEvent(double now_seconds, size_t node_id)
{
    const obs::NodeHealthTracker &health = obs_.telemetry.health();
    healthGauges_[node_id]->set(health.score(node_id, now_seconds));
    const obs::NodeHealthTracker::Band band =
        health.band(node_id, now_seconds);
    if (band == lastBand_[node_id])
        return;
    lastBand_[node_id] = band;
    healthUpdates_.add(1);
    const std::string detail =
        "\"node\": " + std::to_string(node_id) + ", \"band\": \"" +
        obs::NodeHealthTracker::bandName(band) + "\"";
    obs_.tracer.instant("health_update", detail);
    obs_.telemetry.flight().record(now_seconds, "health_update", detail);
}

void
ReadPath::dumpFlightRecord(double now_seconds, const char *reason)
{
    if (!obs_.telemetry.flight().enabled())
        return;
    obs_.telemetry.flight().dump(now_seconds, reason);
    flightDumps_.add(1);
    obs_.tracer.instant("flight_record_dump",
                        std::string("\"reason\": \"") + reason + "\"");
}

std::vector<ReadPath::RebuildRead>
ReadPath::rebuildReads(const ObjectManifest &manifest, size_t stripe,
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
ReadPath::rebuildRange(const ObjectManifest &manifest, size_t stripe,
                       uint64_t offset, uint64_t size)
{
    const std::vector<RebuildRead> reads =
        rebuildReads(manifest, stripe, offset, size);
    if (!code_.recoverable(reads.size()))
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
    FUSION_RETURN_IF_ERROR(code_.reconstruct(shards, size));
    parityReconstructions_.add(1);
    rebuildReadBytes_.add(read_bytes);
    std::vector<Bytes> out;
    out.reserve(shards.size());
    for (auto &shard : shards)
        out.push_back(std::move(*shard));
    return out;
}

Result<Bytes>
ReadPath::rebuildBlock(const ObjectManifest &manifest,
                       const ObjectManifest::BlockRef &ref)
{
    auto shards = rebuildRange(manifest, ref.stripe, 0,
                               manifest.layout.stripes[ref.stripe].blockSize());
    if (!shards.isOk())
        return shards.status();
    Bytes block = std::move(shards.value()[ref.blockIndex]);
    block.resize(ref.size);
    return block;
}

Result<Bytes>
ReadPath::readChunkBytes(const ObjectManifest &manifest, uint32_t chunk_id)
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

    degradedChunkReads_.add(1);
    // A degraded read means this chunk's canonical placement is
    // suspect; any cached copy could go stale once repair rewrites
    // blocks, so the cache never serves a chunk touched by
    // reconstruction.
    cache_.invalidate(manifest.name, chunk_id);
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
ReadPath::readRange(const ObjectManifest &manifest, uint64_t offset,
                    uint64_t size)
{
    Bytes out(size);
    for (const auto &extent : manifest.extents) {
        uint64_t lo = std::max(offset, extent.offset);
        uint64_t hi = std::min(offset + size, extent.offset + extent.size);
        if (lo >= hi)
            continue;
        auto chunk = readChunkBytes(manifest, extent.id);
        if (!chunk.isOk())
            return chunk.status();
        std::copy(chunk.value().begin() + (lo - extent.offset),
                  chunk.value().begin() + (hi - extent.offset),
                  out.begin() + (lo - offset));
    }
    return out;
}

uint64_t
ReadPath::appendChunkFetchTasks(const ObjectManifest &manifest,
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
            SimTask task{TaskKind::kPieceFetch, manifest, chunk_id, node_id,
                         kRequestRpcBytes, piece.size, 0.0,
                         piece.size, 0.0};
            task.shareKey = key_base + std::to_string(ordinal++);
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
            SimTask task{TaskKind::kStripeRange, manifest, chunk_id,
                         read.nodeId, kRequestRpcBytes, size, 0.0,
                         size, 0.0};
            // The range keeps two lost chunks of one stripe apart.
            task.shareKey = "stripe|" + manifest.shareName() + "|" +
                            std::to_string(stripe) + "|" +
                            std::to_string(read.block) + "|" +
                            std::to_string(read.lo) + "-" +
                            std::to_string(read.hi);
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

} // namespace fusion::store
