/**
 * @file
 * fpax file writer: partitions a table into row groups (PAX), encodes
 * each column of each row group as a self-contained column chunk, and
 * appends a footer with per-chunk extents and statistics.
 *
 * File layout:
 *   [8-byte magic][chunk bytes ...][footer][u32 footer length][8-byte magic]
 */
#ifndef FUSION_FORMAT_WRITER_H
#define FUSION_FORMAT_WRITER_H

#include "chunk_codec.h"
#include "column.h"
#include "metadata.h"
#include "reader.h"

namespace fusion::format {

/** Leading and trailing file magic. */
inline constexpr char kFileMagic[8] = {'F', 'P', 'A', 'X', '0', '0', '0',
                                       '1'};
inline constexpr char kFileEndMagic[8] = {'F', 'P', 'A', 'X', 'E', 'N', 'D',
                                          '1'};

/** Writer tuning knobs. */
struct WriterOptions {
    /** Rows per row group (the last group may be smaller). */
    size_t rowGroupRows = 1 << 16;
    ChunkEncodeOptions chunk;
};

/** A serialized file together with its parsed footer. */
struct WrittenFile {
    Bytes bytes;
    FileMetadata metadata;
};

/** Serializes `table` to the fpax format. */
Result<WrittenFile> writeTable(const Table &table,
                               const WriterOptions &options);

/**
 * Returns exactly what writeTable(base ++ appended, options) returns,
 * encoding only what changed. The longest run of leading base row
 * groups that hold options.rowGroupRows rows and sit in writeTable's
 * chunk order is copied through byte for byte; the remaining base row
 * groups are decoded and re-encoded together with `appended`.
 *
 * The copied prefix keeps the base's chunk encoding, so the result
 * equals writeTable's only when the base was written with
 * options.chunk; with other chunk options it decodes to the same rows.
 */
Result<WrittenFile> extendFile(const FileReader &base,
                               const Table &appended,
                               const WriterOptions &options);

} // namespace fusion::format

#endif // FUSION_FORMAT_WRITER_H
