#include "fusion_store.h"

#include <set>

#include "fac/constructors.h"
#include "query/cost.h"

namespace fusion::store {

fac::ObjectLayout
FusionStore::buildLayout(const std::vector<fac::ChunkExtent> &extents)
{
    fac::FusionLayoutOptions layout_options;
    layout_options.n = options_.n;
    layout_options.k = options_.k;
    layout_options.overheadThreshold = options_.overheadThreshold;
    layout_options.fallbackBlockSize = options_.fixedBlockSize;
    return fac::buildFusionLayout(extents, layout_options);
}

fac::ObjectLayout
FusionStore::buildRestripeLayout(
    const std::vector<fac::ChunkExtent> &extents,
    const std::vector<uint32_t> &hot_chunks)
{
    if (hot_chunks.empty())
        return buildLayout(extents);
    fac::ObjectLayout heat_layout = fac::buildHeatFacLayout(
        extents, options_.n, options_.k, hot_chunks);
    // Two independent packings waste more bin tail than one; when that
    // exceeds twice the configured threshold, locality loses to
    // storage overhead and the ordinary Fusion layout applies.
    if (heat_layout.overheadVsOptimal() > 2.0 * options_.overheadThreshold)
        return buildLayout(extents);
    return heat_layout;
}

Result<QueryPlan>
FusionStore::planQuery(const ObjectManifest &manifest,
                       const query::Query &q)
{
    auto plane_r = executeDataPlane(manifest, q);
    if (!plane_r.isOk())
        return plane_r.status();
    DataPlane &plane = plane_r.value();

    const format::FileMetadata &meta = manifest.fileMeta;
    const format::Schema &schema = meta.schema;

    QueryPlan plan;
    plan.coordinatorId = cluster_.coordinatorFor(manifest.name);
    plan.outcome.result = std::move(plane.result);

    // Filter signatures identify the reply payload for cross-query
    // sharing: a filter-pushdown bitmap depends only on the predicates
    // over its own column; a projection-pushdown reply depends on the
    // whole filter set (the final ANDed bitmap selects its rows).
    // An empty column selects every predicate.
    auto filter_sig = [&](const std::string &col_name) {
        std::string sig;
        for (const auto &pred : q.filters) {
            if (!col_name.empty() && pred.column != col_name)
                continue;
            sig += pred.column;
            sig += compareOpName(pred.op);
            sig += pred.literal.toString();
            sig += ';';
        }
        return sig;
    };
    const std::string full_filter_sig = filter_sig("");

    // EXPLAIN collection (per-chunk Cost Equation inputs + verdicts);
    // only filled when the report was asked for.
    const bool explain = obs_.explainEnabled;
    obs::QueryExplain report;
    if (explain) {
        report.table = manifest.name;
        report.query = q.toString();
        report.selectivity = plane.selectivity;
    }

    // ---- filter stage ----
    // Chunks decoded in-situ during this stage stay warm on their node
    // for the projection stage of the same query (the paper's Fig 13c
    // shows both systems paying the disk/decode cost once).
    std::set<std::pair<size_t, uint32_t>> warm_chunks;
    for (size_t rg = 0; rg < meta.numRowGroups(); ++rg) {
        if (!plane.rowGroupBitmaps[rg].has_value()) {
            ++plan.outcome.rowGroupsSkipped;
            continue;
        }
        ++plan.outcome.rowGroupsScanned;
        for (const auto &col_name : q.filterColumns()) {
            size_t col = schema.columnIndex(col_name).value();
            const format::ChunkMeta &chunk = meta.chunk(rg, col);
            uint32_t chunk_id = manifest.chunkIdFor(rg, col);
            // Cache residency wins over node health AND the wire math:
            // a resident chunk filters at the coordinator for the
            // selection pass alone, no request, disk or reply bytes.
            if (cacheLookupChunk(manifest, chunk_id)) {
                SimTask task{TaskKind::kCachedLocal, manifest, chunk_id,
                             plan.coordinatorId, 0, 0, 0.0, 0,
                             chunkSelectWork(chunk)};
                plan.filterTasks.push_back(std::move(task));
                ++plan.outcome.filterChunkCached;
                continue;
            }
            auto state = chunkPushdownState(manifest, chunk_id);
            if (state == ChunkPushdownState::kPushable) {
                size_t node = manifest.nodesForChunk(chunk_id)[0];
                SimTask task{TaskKind::kFilterPushdown, manifest, chunk_id,
                             node, kRequestRpcBytes, chunk.storedSize,
                             chunkDecodeWork(chunk),
                             plane.filterReplyWireSize.at({rg, col}), 0.0};
                task.shareKey = "fpush|" + manifest.shareName() + "|" +
                                std::to_string(chunk_id) + "|" +
                                filter_sig(col_name);
                obs_.telemetry.heat().recordAccess(
                    cluster_.engine().now(), manifest.shareName(),
                    chunk_id);
                plan.filterTasks.push_back(std::move(task));
                warm_chunks.insert({node, chunk_id});
                ++plan.outcome.filterChunkPushdowns;
            } else {
                // Split or degraded chunk: fall back to reassembly at
                // the coordinator, which also evaluates the filter.
                if (state == ChunkPushdownState::kFaulted) {
                    ++plan.outcome.pushdownFallbacks;
                    pushdownFallbacks_.add(1);
                }
                readPath_.appendChunkFetchTasks(manifest, chunk_id,
                                                chunkDecodeWork(chunk),
                                                plan.filterTasks);
                ++plan.outcome.filterChunkFetches;
                // The bytes land at the coordinator anyway: keep them.
                cacheAdmitChunk(manifest, chunk_id);
            }
        }
    }

    // Bitmap consolidation at the coordinator (cheap, byte-counted).
    for (size_t rg = 0; rg < meta.numRowGroups(); ++rg)
        plan.interStageCoordWork +=
            static_cast<double>(plane.rowGroupBitmapWireSize[rg]);

    // ---- projection stage (fine-grained adaptive pushdown) ----
    // Columns only referenced by aggregates can use aggregate pushdown
    // (extension; off by default as in the paper): the node replies
    // with one (count, sum, min, max) tuple.
    std::set<std::string> plain_projected;
    for (const auto &proj : q.projections)
        if (proj.aggregate == query::AggregateKind::kNone)
            plain_projected.insert(proj.column);
    const uint64_t aggregate_reply_bytes = 32;

    for (const auto &col_name : q.projectionColumns()) {
        size_t col = schema.columnIndex(col_name).value();
        const bool aggregate = options_.aggregatePushdown &&
                               plain_projected.count(col_name) == 0;
        for (size_t rg = 0; rg < meta.numRowGroups(); ++rg) {
            const auto &bitmap = plane.rowGroupBitmaps[rg];
            if (!bitmap.has_value() || bitmap->count() == 0)
                continue;
            const format::ChunkMeta &chunk = meta.chunk(rg, col);
            uint32_t chunk_id = manifest.chunkIdFor(rg, col);

            // The Cost Equation inputs are computed for every chunk so
            // EXPLAIN can report them even when residency or health
            // overrides the verdict. An aggregate-only column's
            // selectivity term is its reply tuple over the plain size.
            const double selectivity =
                !aggregate ? plane.selectivity
                : chunk.plainSize == 0
                    ? 0.0
                    : static_cast<double>(aggregate_reply_bytes) /
                          static_cast<double>(chunk.plainSize);
            const bool cached = cacheLookupChunk(manifest, chunk_id);
            const query::PushdownDecision decision =
                query::decidePushdown(selectivity, chunk);
            auto record = [&](const char *verdict, const char *reason) {
                if (!explain)
                    return;
                // A chunk the compaction re-stripe co-located carries
                // the fact into EXPLAIN, whatever the verdict.
                std::string why = reason;
                if (manifest.isHotColocated(chunk_id))
                    why += "; hot-colocated";
                report.projections.push_back(
                    {chunk_id, static_cast<uint32_t>(rg), col_name,
                     decision.selectivity, decision.compressibility,
                     verdict, std::move(why)});
            };

            if (cached) {
                // Resident at the coordinator: evaluate locally whatever
                // the Cost Equation says. No wire, no disk — only the
                // row-selection pass.
                SimTask task{TaskKind::kCachedLocal, manifest, chunk_id,
                             plan.coordinatorId, 0, 0, 0.0, 0,
                             chunkSelectWork(chunk)};
                plan.projectionTasks.push_back(std::move(task));
                ++plan.outcome.projectionCachedLocal;
                record("local", "cached-local");
                continue;
            }

            auto state = chunkPushdownState(manifest, chunk_id);
            if (state != ChunkPushdownState::kPushable) {
                // The Cost Equation is only consulted for healthy
                // single-node chunks; a faulted target forces
                // coordinator-side evaluation regardless of its verdict.
                if (state == ChunkPushdownState::kFaulted) {
                    ++plan.outcome.pushdownFallbacks;
                    pushdownFallbacks_.add(1);
                    record("fetch", "node unresponsive (health fallback)");
                } else {
                    record("fetch", "chunk split across nodes");
                }
                readPath_.appendChunkFetchTasks(manifest, chunk_id,
                                                chunkDecodeWork(chunk),
                                                plan.projectionTasks);
                ++plan.outcome.projectionFetches;
                cacheAdmitChunk(manifest, chunk_id);
                continue;
            }
            size_t node = manifest.nodesForChunk(chunk_id)[0];
            uint64_t request = kRequestRpcBytes +
                               plane.rowGroupBitmapWireSize[rg];
            // If this node decoded the chunk during the filter stage of
            // this query, projection reuses the decoded form: no second
            // disk read, only the row-selection pass.
            bool warm = warm_chunks.count({node, chunk_id}) > 0;
            uint64_t disk_bytes = warm ? 0 : chunk.storedSize;
            double decode_work =
                warm ? chunkSelectWork(chunk) : chunkDecodeWork(chunk);

            // Shared-scan metadata: enough for the scheduler to re-run
            // the Cost Equation over a merged consumer set, or to
            // convert this pushdown into a shared chunk fetch.
            auto fill_shared = [&](SimTask &task) {
                task.chunkStoredBytes = chunk.storedSize;
                task.chunkPlainBytes = chunk.plainSize;
                task.fetchDecodeWork = chunkDecodeWork(chunk);
                task.consumerSelectWork = chunkSelectWork(chunk);
            };

            // Every projection-stage task (push or fetch) is one more
            // access for the chunk-heat table.
            obs_.telemetry.heat().recordAccess(cluster_.engine().now(),
                                               manifest.shareName(),
                                               chunk_id);

            bool push = options_.adaptivePushdown ? decision.push : true;
            if (push) {
                SimTask task{aggregate ? TaskKind::kAggregatePushdown
                                       : TaskKind::kProjectionPushdown,
                             manifest, chunk_id, node, request, disk_bytes,
                             decode_work,
                             aggregate
                                 ? aggregate_reply_bytes
                                 : plane.projectionReplySize.at({rg, col}),
                             0.0};
                task.shareKey = (aggregate ? "apush|" : "ppush|") +
                                manifest.shareName() + "|" +
                                std::to_string(chunk_id) + "|" +
                                full_filter_sig;
                fill_shared(task);
                plan.projectionTasks.push_back(std::move(task));
                ++plan.outcome.projectionPushdowns;
                record("push", aggregate ? "aggregate-only projection"
                               : options_.adaptivePushdown
                                   ? "cost product < 1"
                                   : "adaptive pushdown disabled");
            } else {
                // Fetch the compressed chunk; decode + select locally.
                SimTask task{TaskKind::kChunkFetch, manifest, chunk_id,
                             node, kRequestRpcBytes, chunk.storedSize,
                             0.0, chunk.storedSize, chunkDecodeWork(chunk)};
                task.shareKey =
                    "cfetch|" + manifest.shareName() + "|" +
                    std::to_string(chunk_id);
                fill_shared(task);
                plan.projectionTasks.push_back(std::move(task));
                ++plan.outcome.projectionFetches;
                record("fetch", "cost product >= 1");
                // The fetch parks the chunk at the coordinator — admit
                // it so repeat queries flip to "cached-local".
                cacheAdmitChunk(manifest, chunk_id);
            }
        }
    }

    if (explain) {
        report.rowGroupsScanned = plan.outcome.rowGroupsScanned;
        report.rowGroupsSkipped = plan.outcome.rowGroupsSkipped;
        report.filterPushdowns = plan.outcome.filterChunkPushdowns;
        report.filterFetches = plan.outcome.filterChunkFetches;
        report.filterCached = plan.outcome.filterChunkCached;
        plan.outcome.explain =
            std::make_shared<const obs::QueryExplain>(std::move(report));
    }
    return plan;
}

} // namespace fusion::store
