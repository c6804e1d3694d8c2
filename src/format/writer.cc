#include "writer.h"

#include <algorithm>

#include "common/serde.h"

namespace fusion::format {

namespace {

/**
 * Cuts `table` into row groups of options.rowGroupRows from its first
 * row and appends each encoded chunk to `out`, continuing its row-group
 * numbering and file offsets — the one encode loop behind writeTable
 * and extendFile.
 */
void
appendRowGroups(const Table &table, const WriterOptions &options,
                WrittenFile &out)
{
    Bytes &file = out.bytes;
    const size_t num_rows = table.numRows();
    const size_t num_cols = table.numColumns();
    for (size_t begin = 0; begin < num_rows; begin += options.rowGroupRows) {
        size_t end = std::min(num_rows, begin + options.rowGroupRows);
        RowGroupMeta rg;
        rg.numRows = end - begin;
        uint32_t rg_id = static_cast<uint32_t>(out.metadata.rowGroups.size());

        for (size_t c = 0; c < num_cols; ++c) {
            // Materialize this row group's slice of the column.
            ColumnData slice(table.schema().column(c).physical);
            slice.appendRange(table.column(c), begin, end);

            EncodedChunk encoded = encodeChunk(slice, options.chunk);

            ChunkMeta meta;
            meta.rowGroupId = rg_id;
            meta.columnId = static_cast<uint32_t>(c);
            meta.offset = file.size();
            meta.storedSize = encoded.bytes.size();
            meta.plainSize = encoded.plainSize;
            meta.valueCount = encoded.valueCount;
            meta.encoding = encoded.encoding;
            meta.minValue = encoded.minValue;
            meta.maxValue = encoded.maxValue;
            meta.bloom = std::move(encoded.bloom);
            rg.chunks.push_back(std::move(meta));

            appendBytes(file, encoded.bytes);
        }
        out.metadata.rowGroups.push_back(std::move(rg));
    }
}

/** Appends the footer, its length and the trailing magic. */
void
appendFooter(WrittenFile &out)
{
    Bytes footer = out.metadata.serialize();
    appendBytes(out.bytes, footer);
    BinaryWriter writer(out.bytes);
    writer.putU32(static_cast<uint32_t>(footer.size()));
    out.bytes.insert(out.bytes.end(), kFileEndMagic,
                     kFileEndMagic + sizeof(kFileEndMagic));
}

} // namespace

Result<WrittenFile>
writeTable(const Table &table, const WriterOptions &options)
{
    FUSION_RETURN_IF_ERROR(table.validate());
    if (table.numRows() == 0)
        return Status::invalidArgument("cannot write an empty table");
    if (options.rowGroupRows == 0)
        return Status::invalidArgument("rowGroupRows must be positive");

    WrittenFile out;
    out.metadata.schema = table.schema();
    out.metadata.numRows = table.numRows();
    out.bytes.insert(out.bytes.end(), kFileMagic,
                     kFileMagic + sizeof(kFileMagic));
    appendRowGroups(table, options, out);
    appendFooter(out);
    return out;
}

Result<WrittenFile>
extendFile(const FileReader &base, const Table &appended,
           const WriterOptions &options)
{
    FUSION_RETURN_IF_ERROR(appended.validate());
    const FileMetadata &meta = base.metadata();
    if (!(appended.schema() == meta.schema))
        return Status::invalidArgument("appended schema does not match");
    if (options.rowGroupRows == 0)
        return Status::invalidArgument("rowGroupRows must be positive");

    // writeTable cuts groups from row 0 and encodeChunk is a pure
    // function of a chunk's values, so every leading group that is full
    // and laid out in writeTable's order re-encodes to the same bytes
    // at the same offsets.
    size_t keep = 0;
    uint64_t prefix_end = sizeof(kFileMagic);
    for (; keep < meta.numRowGroups(); ++keep) {
        const RowGroupMeta &rg = meta.rowGroups[keep];
        if (rg.numRows != options.rowGroupRows)
            break;
        uint64_t at = prefix_end;
        size_t c = 0;
        for (; c < rg.chunks.size(); ++c) {
            const ChunkMeta &chunk = rg.chunks[c];
            if (chunk.offset != at || chunk.rowGroupId != keep ||
                chunk.columnId != c)
                break;
            at += chunk.storedSize;
        }
        if (c != rg.chunks.size())
            break;
        prefix_end = at;
    }

    Table tail(meta.schema);
    for (size_t rg = keep; rg < meta.numRowGroups(); ++rg) {
        for (size_t c = 0; c < meta.schema.numColumns(); ++c) {
            auto chunk = base.readChunk(rg, c);
            if (!chunk.isOk())
                return chunk.status();
            tail.column(c).append(chunk.value());
        }
    }
    for (size_t c = 0; c < meta.schema.numColumns(); ++c)
        tail.column(c).append(appended.column(c));
    FUSION_RETURN_IF_ERROR(tail.validate());
    const uint64_t num_rows = keep * options.rowGroupRows + tail.numRows();
    if (num_rows == 0)
        return Status::invalidArgument("cannot write an empty table");

    WrittenFile out;
    out.metadata.schema = meta.schema;
    out.metadata.numRows = num_rows;
    out.metadata.rowGroups.assign(meta.rowGroups.begin(),
                                  meta.rowGroups.begin() + keep);
    Slice prefix = base.file().subslice(0, prefix_end);
    out.bytes.assign(prefix.data(), prefix.data() + prefix.size());
    appendRowGroups(tail, options, out);
    appendFooter(out);
    return out;
}

} // namespace fusion::format
