/**
 * @file
 * RLE / bit-packed hybrid encoding for fixed-width unsigned values,
 * modeled on the Parquet RLE encoding. A stream is a sequence of runs:
 *
 *   header = varint;
 *   header & 1 == 0 : RLE run, (header >> 1) repetitions of one value
 *                     stored in ceil(width/8) little-endian bytes;
 *   header & 1 == 1 : bit-packed run of exactly (header >> 1) literal
 *                     values at the stream's bit width, padded to a
 *                     byte boundary.
 *
 * Unlike Parquet, literal runs carry an exact value count (not a count
 * of 8-value groups), so mid-stream literal runs of any length decode
 * unambiguously. The decoder also takes the expected total value count
 * as a cross-check against corrupt headers.
 */
#ifndef FUSION_CODEC_RLE_H
#define FUSION_CODEC_RLE_H

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/serde.h"
#include "common/status.h"

namespace fusion::codec {

/** Encodes `values`, each fitting in `width` bits, to an RLE stream. */
Bytes rleEncode(const std::vector<uint64_t> &values, int width);

/** One run of an RLE stream. */
struct RleRun {
    size_t count = 0;    ///< values the run covers
    bool packed = false; ///< bit-packed literals; else `count` x `value`
    uint64_t value = 0;  ///< the repeated value of an RLE run
    Slice bits;          ///< the packed bytes of a literal run
};

/**
 * Walks the runs of a stream that holds exactly `count` values at
 * `width` bits. Each header is checked against the values still owed,
 * so the runs never cover more than `count` values in total.
 */
class RleReader
{
  public:
    RleReader(Slice input, int width, size_t count);

    /** Values not yet covered by a run returned from next(). */
    size_t remaining() const { return remaining_; }

    /** Parses the next run; kCorruption on a bad or truncated header. */
    Status next(RleRun &run);

  private:
    BinaryReader reader_;
    int width_;
    size_t remaining_;
};

/** Decodes exactly `count` values at `width` bits from an RLE stream. */
Result<std::vector<uint64_t>> rleDecode(Slice input, int width, size_t count);

} // namespace fusion::codec

#endif // FUSION_CODEC_RLE_H
