/**
 * @file
 * Fixed-width bit packing (LSB-first), as used by Parquet-style
 * dictionary indices and RLE literal groups.
 */
#ifndef FUSION_CODEC_BITPACK_H
#define FUSION_CODEC_BITPACK_H

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace fusion::codec {

/** Number of bits required to represent `max_value` (0 for value 0). */
int bitWidthFor(uint64_t max_value);

/**
 * Appends values to a byte buffer at a fixed bit width, LSB-first.
 * Values must fit in `width` bits. flush() pads the final partial byte
 * with zero bits.
 */
class BitPacker
{
  public:
    BitPacker(Bytes &out, int width);

    void put(uint64_t value);
    /** Pads to a byte boundary; must be called once after the last put. */
    void flush();

    int width() const { return width_; }

  private:
    Bytes &out_;
    int width_;
    uint64_t pending_ = 0; // bits not yet written, LSB-aligned
    int pendingBits_ = 0;
};

/**
 * Reads fixed-width values written by BitPacker, a word at a time.
 * Bounds-checked: asking for more values than the slice holds returns
 * kCorruption, and no load reads past the slice.
 */
class BitUnpacker
{
  public:
    BitUnpacker(Slice input, int width);

    /** Reads the next `count` values into out[0, count). */
    Status getMany(size_t count, uint64_t *out);

  private:
    Slice input_;
    int width_;
    uint64_t bitPos_ = 0;
};

/**
 * Random access: value `i` of `bits`, values packed at `width` bits as
 * BitPacker writes them. The caller has checked that the value's bits
 * lie inside the slice (an RLE literal run's slice holds all of its
 * values); no load reads past it.
 */
uint64_t unpackAt(Slice bits, int width, size_t i);

} // namespace fusion::codec

#endif // FUSION_CODEC_BITPACK_H
