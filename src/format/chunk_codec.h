/**
 * @file
 * Column chunk encode/decode. A chunk is the paper's *smallest
 * computable unit*: fully self-contained bytes (dictionary page plus
 * data pages, or plain data pages), decodable given only the column's
 * physical type. This self-containedness is exactly what FAC preserves
 * by never splitting a chunk across erasure-code blocks.
 *
 * Chunk layout:
 *   u8      encoding (plain | dictionary)
 *   u8      compression codec
 *   varint  valueCount
 *   dictionary only:
 *     varint dictCount, varint compressedDictLen, <dict page bytes>
 *     u8 codeBitWidth
 *   varint  numDataPages
 *   per page: varint pageValueCount, varint compressedLen, <page bytes>
 *
 * Dictionary data pages hold RLE/bit-packed code streams; plain data
 * pages hold plain-encoded values. All pages are block-compressed.
 *
 * The data plane reads a chunk late-materialised: openChunk
 * decompresses it once into a ChunkView, query::evalPredicate filters
 * the view (a dictionary chunk on its codes) and decodeSelected decodes
 * only the rows a selection keeps.
 */
#ifndef FUSION_FORMAT_CHUNK_CODEC_H
#define FUSION_FORMAT_CHUNK_CODEC_H

#include <span>
#include <string_view>

#include "bloom.h"
#include "codec/codec.h"
#include "column.h"
#include "metadata.h"

namespace fusion::format {

/** Tuning knobs for chunk encoding. */
struct ChunkEncodeOptions {
    codec::Compression compression = codec::Compression::kSnappy;
    bool enableDictionary = true;
    /** Use a dictionary only if cardinality <= ratio * valueCount. */
    double dictMaxCardinalityRatio = 0.5;
    /** ...and cardinality does not exceed this cap. */
    size_t maxDictCardinality = 1 << 16;
    /** Values per data page. */
    size_t pageValueCount = 20000;
    /**
     * Build a per-chunk Bloom filter for equality pruning (extension
     * beyond the paper; off by default because the filters live in the
     * footer and add ~10 bits per distinct value of footer weight).
     */
    bool enableBloomFilter = false;
};

/** Result of encoding one column chunk. */
struct EncodedChunk {
    Bytes bytes;
    ChunkEncoding encoding = ChunkEncoding::kPlain;
    uint64_t plainSize = 0; // plain-encoded size of the same values
    uint64_t valueCount = 0;
    Value minValue;
    Value maxValue;
    BloomFilter bloom; // empty when disabled
};

/** Encodes a column's values into a self-contained chunk. */
EncodedChunk encodeChunk(const ColumnData &column,
                         const ChunkEncodeOptions &options);

/** Decodes a chunk produced by encodeChunk. */
Result<ColumnData> decodeChunk(Slice bytes, PhysicalType type);

/**
 * Walks a plain string page, each value a u32 length then its bytes,
 * checking every length against the bytes left.
 */
class PlainStringReader
{
  public:
    explicit PlainStringReader(Slice page)
        : p_(page.data()), end_(page.data() + page.size())
    {
    }

    /** Steps over the next string into `value`; false when the page
     *  ends before it does. */
    bool
    next(std::string_view &value)
    {
        if (end_ - p_ < 4)
            return false;
        const uint32_t len = loadUnaligned<uint32_t>(p_);
        if (static_cast<size_t>(end_ - p_) - 4 < len)
            return false;
        value = std::string_view(reinterpret_cast<const char *>(p_ + 4), len);
        p_ += 4 + len;
        return true;
    }

  private:
    const uint8_t *p_;
    const uint8_t *end_;
};

/**
 * A chunk decompressed but not decoded: the dictionary, decoded, and
 * every data page's decompressed body (RLE/bit-packed codes, or plain
 * values). Filter and projection read it in place.
 */
struct ChunkView {
    struct Page {
        uint64_t firstRow = 0; ///< chunk row of the page's first value
        uint64_t count = 0;
        Bytes body;
    };
    PhysicalType type = PhysicalType::kInt64;
    ChunkEncoding encoding = ChunkEncoding::kPlain;
    uint64_t valueCount = 0;
    ColumnData dictionary; ///< dictionary chunks only
    int codeWidth = 0;     ///< bits per dictionary code, 0..32
    std::vector<Page> pages;
};

/**
 * Parses and decompresses a chunk. Checks what decodeChunk checks of
 * the header, the dictionary and the page counts, and that every plain
 * page is long enough for its count's fixed-width values (u32 lengths
 * for strings); code streams and string bodies are checked as they
 * are read.
 */
Result<ChunkView> openChunk(Slice bytes, PhysicalType type);

/** Decodes every row of an opened chunk: decodeChunk's output. */
Result<ColumnData> decodeChunk(const ChunkView &chunk);

/**
 * Decodes only the rows set in `rows` (bit i of rows[i / 64] selects
 * row i; ceil(valueCount / 64) words, else kInvalidArgument), in row
 * order: equal to query::selectRows over the fully decoded chunk. RLE
 * runs copy their value once per selected row, bit-packed codes and
 * plain fixed-width values are read by random access, and pages with no
 * selected row are not read. kCorruption for a truncated code stream or
 * string page it reads, and for an out-of-range code at a selected row.
 */
Result<ColumnData> decodeSelected(const ChunkView &chunk,
                                  std::span<const uint64_t> rows);

/** Plain-encodes values (the uncompressed wire form of projections). */
Bytes plainEncode(const ColumnData &column);

/** Inverse of plainEncode for `count` values of the given type. */
Result<ColumnData> plainDecode(Slice bytes, PhysicalType type, size_t count);

} // namespace fusion::format

#endif // FUSION_FORMAT_CHUNK_CODEC_H
