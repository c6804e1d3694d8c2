/**
 * @file
 * fpax file reader: parses the footer, exposes per-chunk byte extents
 * (for FAC and the stores) and decodes chunks back to columns.
 */
#ifndef FUSION_FORMAT_READER_H
#define FUSION_FORMAT_READER_H

#include <string>
#include <vector>

#include "chunk_codec.h"
#include "column.h"
#include "metadata.h"

namespace fusion::format {

/**
 * Non-owning reader over a complete fpax file image. The underlying
 * bytes must outlive the reader.
 */
class FileReader
{
  public:
    /** Validates magic/footer and builds a reader. */
    static Result<FileReader> open(Slice file);

    /** The whole file image the reader was opened over. */
    Slice file() const { return file_; }
    const FileMetadata &metadata() const { return metadata_; }
    const Schema &schema() const { return metadata_.schema; }

    /** Raw (encoded, compressed) bytes of one chunk. */
    Slice chunkBytes(size_t row_group, size_t column) const;

    /** Decodes one chunk into a column vector. */
    Result<ColumnData> readChunk(size_t row_group, size_t column) const;

    /** Decodes the entire file back into a table. */
    Result<Table> readTable() const;

    /**
     * Decodes only the named columns (in the given order) across all
     * row groups — the columnar-scan access path: untouched columns'
     * chunks are never decoded.
     */
    Result<Table> readColumns(
        const std::vector<std::string> &column_names) const;

  private:
    FileReader(Slice file, FileMetadata metadata)
        : file_(file), metadata_(std::move(metadata))
    {
    }

    Slice file_;
    FileMetadata metadata_;
};

} // namespace fusion::format

#endif // FUSION_FORMAT_READER_H
