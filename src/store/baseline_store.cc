#include "baseline_store.h"

#include <set>

#include "fac/constructors.h"

namespace fusion::store {

fac::ObjectLayout
BaselineStore::buildLayout(const std::vector<fac::ChunkExtent> &extents)
{
    return fac::buildFixedLayout(extents, options_.n, options_.k,
                                 options_.fixedBlockSize);
}

Result<QueryPlan>
BaselineStore::planQuery(const ObjectManifest &manifest,
                         const query::Query &q)
{
    auto plane = executeDataPlane(manifest, q);
    if (!plane.isOk())
        return plane.status();

    const format::FileMetadata &meta = manifest.fileMeta;
    const format::Schema &schema = meta.schema;

    QueryPlan plan;
    plan.coordinatorId = cluster_.coordinatorFor(manifest.name);
    plan.outcome.result = std::move(plane.value().result);

    // Distinct columns the query touches, filter columns first.
    std::vector<size_t> columns;
    std::set<size_t> seen;
    for (const auto &name : q.filterColumns())
        if (seen.insert(schema.columnIndex(name).value()).second)
            columns.push_back(schema.columnIndex(name).value());
    std::vector<size_t> filter_count_columns = columns;
    for (const auto &name : q.projectionColumns())
        if (seen.insert(schema.columnIndex(name).value()).second)
            columns.push_back(schema.columnIndex(name).value());

    // Single stage: fetch every needed chunk (in pieces, from wherever
    // the fixed-block layout scattered them) and evaluate locally.
    for (size_t rg = 0; rg < meta.numRowGroups(); ++rg) {
        if (!plane.value().rowGroupBitmaps[rg].has_value()) {
            ++plan.outcome.rowGroupsSkipped;
            continue;
        }
        ++plan.outcome.rowGroupsScanned;
        for (size_t col : columns) {
            const format::ChunkMeta &chunk = meta.chunk(rg, col);
            uint32_t chunk_id = manifest.chunkIdFor(rg, col);
            bool is_filter_col =
                std::find(filter_count_columns.begin(),
                          filter_count_columns.end(),
                          col) != filter_count_columns.end();
            bool is_proj_col = false;
            for (const auto &name : q.projectionColumns())
                is_proj_col |= schema.columnIndex(name).value() == col;
            // Decode + evaluate happens at the coordinator. A column
            // used by both the filter and the projection needs a second
            // evaluation pass over the decoded values, same as Fusion's
            // two stages.
            double coord_work = chunkDecodeWork(chunk);
            if (is_filter_col && is_proj_col)
                coord_work += chunkSelectWork(chunk);
            // Even the fetch-everything baseline benefits from the
            // coordinator hot-chunk cache: a resident chunk skips the
            // wire, the disk and the decompress pass entirely.
            if (cacheLookupChunk(manifest, chunk_id)) {
                double local_work = chunkSelectWork(chunk);
                if (is_filter_col && is_proj_col)
                    local_work += chunkSelectWork(chunk);
                SimTask task{TaskKind::kCachedLocal, manifest, chunk_id,
                             plan.coordinatorId, 0, 0, 0.0, 0, local_work};
                plan.filterTasks.push_back(std::move(task));
                if (is_filter_col)
                    ++plan.outcome.filterChunkCached;
                else
                    ++plan.outcome.projectionCachedLocal;
                continue;
            }
            readPath_.appendChunkFetchTasks(manifest, chunk_id, coord_work,
                                            plan.filterTasks);
            cacheAdmitChunk(manifest, chunk_id);
            if (is_filter_col)
                ++plan.outcome.filterChunkFetches;
            else
                ++plan.outcome.projectionFetches;
        }
    }
    return plan;
}

} // namespace fusion::store
