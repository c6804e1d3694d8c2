#include "reader.h"

#include <cstring>

#include "common/serde.h"
#include "writer.h"

namespace fusion::format {

Result<FileReader>
FileReader::open(Slice file)
{
    constexpr size_t kMagicLen = sizeof(kFileMagic);
    constexpr size_t kTrailerLen = 4 + sizeof(kFileEndMagic);
    if (file.size() < kMagicLen + kTrailerLen)
        return Status::corruption("file too small for fpax format");
    if (std::memcmp(file.data(), kFileMagic, kMagicLen) != 0)
        return Status::corruption("bad leading magic");
    if (std::memcmp(file.data() + file.size() - sizeof(kFileEndMagic),
                    kFileEndMagic, sizeof(kFileEndMagic)) != 0)
        return Status::corruption("bad trailing magic");

    BinaryReader trailer(file.subslice(file.size() - kTrailerLen, 4));
    auto footer_len = trailer.getU32();
    if (!footer_len.isOk())
        return footer_len.status();
    uint64_t flen = footer_len.value();
    if (flen + kMagicLen + kTrailerLen > file.size())
        return Status::corruption("footer length out of range");

    Slice footer = file.subslice(file.size() - kTrailerLen - flen, flen);
    auto metadata = FileMetadata::deserialize(footer);
    if (!metadata.isOk())
        return metadata.status();

    // Validate chunk extents before trusting them.
    for (const auto *chunk : metadata.value().allChunks()) {
        if (chunk->offset < kMagicLen ||
            chunk->offset + chunk->storedSize >
                file.size() - kTrailerLen - flen) {
            return Status::corruption("chunk extent out of range");
        }
    }
    return FileReader(file, std::move(metadata.value()));
}

Slice
FileReader::chunkBytes(size_t row_group, size_t column) const
{
    const ChunkMeta &meta = metadata_.chunk(row_group, column);
    return file_.subslice(meta.offset, meta.storedSize);
}

Result<ColumnData>
FileReader::readChunk(size_t row_group, size_t column) const
{
    const ColumnDesc &desc = metadata_.schema.column(column);
    return decodeChunk(chunkBytes(row_group, column), desc.physical);
}

Result<Table>
FileReader::readColumns(const std::vector<std::string> &column_names) const
{
    Schema projected;
    std::vector<size_t> ids;
    for (const auto &name : column_names) {
        auto id = metadata_.schema.columnIndex(name);
        if (!id.isOk())
            return id.status();
        ids.push_back(id.value());
        projected.addColumn(metadata_.schema.column(id.value()));
    }

    Table table(projected);
    for (size_t rg = 0; rg < metadata_.numRowGroups(); ++rg) {
        for (size_t out = 0; out < ids.size(); ++out) {
            auto chunk = readChunk(rg, ids[out]);
            if (!chunk.isOk())
                return chunk.status();
            table.column(out).append(chunk.value());
        }
    }
    FUSION_RETURN_IF_ERROR(table.validate());
    return table;
}

Result<Table>
FileReader::readTable() const
{
    Table table(metadata_.schema);
    for (size_t rg = 0; rg < metadata_.numRowGroups(); ++rg) {
        for (size_t c = 0; c < metadata_.schema.numColumns(); ++c) {
            auto chunk = readChunk(rg, c);
            if (!chunk.isOk())
                return chunk.status();
            table.column(c).append(chunk.value());
        }
    }
    FUSION_RETURN_IF_ERROR(table.validate());
    return table;
}

} // namespace fusion::format
