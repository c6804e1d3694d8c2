/**
 * @file
 * Row bitmap used by the two-stage executor: storage nodes return one
 * bitmap per filtered chunk; the coordinator ANDs them into the final
 * selection whose popcount is the query's exact selectivity (paper
 * §4.3). Bitmaps are Snappy-compressed on the wire.
 */
#ifndef FUSION_QUERY_BITMAP_H
#define FUSION_QUERY_BITMAP_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace fusion::query {

/** Fixed-size bitset over row indices [0, size). */
class Bitmap
{
  public:
    Bitmap() = default;
    explicit Bitmap(size_t size, bool initial = false);

    /** Adopts ceil(size / 64) words (bit i of word w is row w*64+i);
     *  bits beyond `size` are cleared. */
    Bitmap(size_t size, std::vector<uint64_t> words);

    size_t size() const { return size_; }

    void
    set(size_t i)
    {
        FUSION_CHECK(i < size_);
        words_[i >> 6] |= (1ULL << (i & 63));
    }

    void
    clear(size_t i)
    {
        FUSION_CHECK(i < size_);
        words_[i >> 6] &= ~(1ULL << (i & 63));
    }

    bool
    test(size_t i) const
    {
        FUSION_CHECK(i < size_);
        return words_[i >> 6] & (1ULL << (i & 63));
    }

    /** Number of 64-bit words backing the bitmap. */
    size_t numWords() const { return words_.size(); }

    /** Raw word `w` (bit i of word w is row w*64+i). */
    uint64_t
    word(size_t w) const
    {
        return words_[w];
    }

    /** Every word, for kernels that take a row selection as words. */
    std::span<const uint64_t> words() const { return words_; }

    /**
     * Overwrites word `w`. Bits beyond size() in the last word are
     * masked off so count() stays exact — the fast path for kernels
     * that produce 64 row verdicts at a time.
     */
    void
    setWord(size_t w, uint64_t bits)
    {
        FUSION_CHECK(w < words_.size());
        if (w + 1 == words_.size() && (size_ & 63) != 0)
            bits &= (1ULL << (size_ & 63)) - 1;
        words_[w] = bits;
    }

    /** Number of set bits. */
    size_t count() const;

    /** Fraction of set bits, in [0, 1]. */
    double
    selectivity() const
    {
        return size_ == 0 ? 0.0
                          : static_cast<double>(count()) /
                                static_cast<double>(size_);
    }

    /** In-place intersection; sizes must match. */
    void intersect(const Bitmap &other);

    /** In-place union; sizes must match. */
    void unionWith(const Bitmap &other);

    /** Serialized form (varint size + raw words). */
    Bytes toBytes() const;
    static Result<Bitmap> fromBytes(Slice bytes);

    /** Size of the Snappy-compressed serialized form — what a storage
     *  node actually sends to the coordinator. */
    uint64_t compressedWireSize() const;

    bool operator==(const Bitmap &other) const = default;

  private:
    size_t size_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace fusion::query

#endif // FUSION_QUERY_BITMAP_H
