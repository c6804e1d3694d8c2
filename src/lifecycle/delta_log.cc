#include "delta_log.h"

#include <algorithm>
#include <map>
#include <set>

#include "format/reader.h"
#include "query/eval.h"

namespace fusion::lifecycle {

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

void
DeltaLog::dropUpTo(uint64_t seq)
{
    segments_.erase(std::remove_if(segments_.begin(), segments_.end(),
                                   [seq](const DeltaSegment &segment) {
                                       return segment.seq <= seq;
                                   }),
                    segments_.end());
}

DeltaLogStats
DeltaLog::stats() const
{
    DeltaLogStats out;
    out.segments = segments_.size();
    for (const DeltaSegment &segment : segments_) {
        out.bytes += segment.bytes;
        out.rows += segment.rows;
        out.lastSeq = segment.seq;
        if (out.oldestAppendSeconds < 0.0 ||
            segment.appendSeconds < out.oldestAppendSeconds)
            out.oldestAppendSeconds = segment.appendSeconds;
    }
    return out;
}

Result<DeltaScanResult>
scanDeltaSegment(const format::FileMetadata &meta, Slice file,
                 const query::Query &resolved)
{
    auto reader = format::FileReader::open(file);
    if (!reader.isOk())
        return reader.status();
    const format::Schema &schema = meta.schema;
    DeltaScanResult out;

    // Accumulators for the distinct projected columns; std::map keys
    // the iteration order on the column name so the scan-work tally is
    // deterministic for any projection order.
    std::map<std::string, format::ColumnData> selected_by_col;
    for (const auto &name : resolved.projectionColumns()) {
        auto idx = schema.columnIndex(name);
        if (!idx.isOk())
            return idx.status();
        selected_by_col.emplace(
            name, format::ColumnData(schema.column(idx.value()).physical));
    }

    // Same cost shape as ObjectStore::chunkDecodeWork / chunkSelectWork:
    // compressed bytes stream through the decoder, a quarter of the
    // plain bytes are touched per evaluation or selection pass.
    auto decode_work = [](const format::ChunkMeta &chunk) {
        return static_cast<double>(chunk.storedSize) +
               0.25 * static_cast<double>(chunk.plainSize);
    };

    for (size_t rg = 0; rg < meta.numRowGroups(); ++rg) {
        bool may_match = true;
        for (const auto &pred : resolved.filters) {
            auto idx = schema.columnIndex(pred.column);
            if (!idx.isOk())
                return idx.status();
            if (!query::chunkMayMatch(meta.chunk(rg, idx.value()), pred)) {
                may_match = false;
                break;
            }
        }
        if (!may_match)
            continue;

        const uint64_t rows = meta.rowGroups[rg].numRows;
        out.rowsScanned += rows;
        std::set<size_t> touched; // columns charged for decode this rg
        query::Bitmap bitmap(rows, true);
        for (const auto &pred : resolved.filters) {
            size_t col = schema.columnIndex(pred.column).value();
            auto chunk = reader.value().readChunk(rg, col);
            if (!chunk.isOk())
                return chunk.status();
            auto bm =
                query::evalPredicate(chunk.value(), pred.op, pred.literal);
            if (!bm.isOk())
                return bm.status();
            bitmap.intersect(bm.value());
            if (touched.insert(col).second) {
                out.touchedStoredBytes += meta.chunk(rg, col).storedSize;
                out.scanWork += decode_work(meta.chunk(rg, col));
            }
        }

        const uint64_t matched = bitmap.count();
        out.rowsMatched += matched;
        out.rowGroups.push_back(
            {static_cast<uint32_t>(rg), rows,
             rows == 0 ? 0.0
                       : static_cast<double>(matched) /
                             static_cast<double>(rows)});
        if (matched == 0)
            continue;

        for (auto &[name, acc] : selected_by_col) {
            size_t col = schema.columnIndex(name).value();
            auto chunk = reader.value().readChunk(rg, col);
            if (!chunk.isOk())
                return chunk.status();
            if (touched.insert(col).second) {
                out.touchedStoredBytes += meta.chunk(rg, col).storedSize;
                out.scanWork += decode_work(meta.chunk(rg, col));
            } else {
                // Already decoded for a filter: only the select pass.
                out.scanWork +=
                    0.25 *
                    static_cast<double>(meta.chunk(rg, col).plainSize);
            }
            format::ColumnData sel = query::selectRows(chunk.value(), bitmap);
            acc.append(sel);
        }
    }

    for (const auto &proj : resolved.projections) {
        if (proj.column.empty()) { // COUNT(*)
            out.selected.emplace_back();
            continue;
        }
        out.selected.push_back(selected_by_col.at(proj.column));
    }
    return out;
}

} // namespace fusion::lifecycle
