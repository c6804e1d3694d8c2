#include "bitmap.h"

#include <bit>
#include <cstring>

#include "codec/snappy.h"
#include "common/serde.h"

namespace fusion::query {

Bitmap::Bitmap(size_t size, bool initial) : size_(size)
{
    words_.assign((size + 63) / 64, initial ? ~0ULL : 0ULL);
    if (initial && size % 64 != 0) {
        // Mask tail bits beyond `size` so count() stays exact.
        words_.back() &= (1ULL << (size % 64)) - 1;
    }
}

Bitmap::Bitmap(size_t size, std::vector<uint64_t> words)
    : size_(size), words_(std::move(words))
{
    FUSION_CHECK(words_.size() == (size + 63) / 64);
    if (size % 64 != 0)
        words_.back() &= (1ULL << (size % 64)) - 1;
}

size_t
Bitmap::count() const
{
    size_t total = 0;
    for (uint64_t word : words_)
        total += static_cast<size_t>(std::popcount(word));
    return total;
}

void
Bitmap::intersect(const Bitmap &other)
{
    FUSION_CHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i)
        words_[i] &= other.words_[i];
}

void
Bitmap::unionWith(const Bitmap &other)
{
    FUSION_CHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i)
        words_[i] |= other.words_[i];
}

Bytes
Bitmap::toBytes() const
{
    Bytes out;
    BinaryWriter(out).putVarU64(size_);
    // Little-endian words (common/bytes.h asserts the host order).
    const size_t at = out.size();
    out.resize(at + words_.size() * 8);
    if (!words_.empty())
        std::memcpy(out.data() + at, words_.data(), words_.size() * 8);
    return out;
}

Result<Bitmap>
Bitmap::fromBytes(Slice bytes)
{
    BinaryReader reader(bytes);
    auto size = reader.getVarU64();
    if (!size.isOk())
        return size.status();
    // The words must actually be present before allocating for them.
    uint64_t words = (size.value() + 63) / 64;
    if (words * 8 > reader.remaining())
        return Status::corruption("bitmap size exceeds serialized words");
    Bitmap bitmap(size.value());
    for (auto &word : bitmap.words_) {
        auto w = reader.getU64();
        if (!w.isOk())
            return w.status();
        word = w.value();
    }
    if (size.value() % 64 != 0) {
        uint64_t tail_mask = (1ULL << (size.value() % 64)) - 1;
        if (!bitmap.words_.empty() && (bitmap.words_.back() & ~tail_mask))
            return Status::corruption("bitmap tail bits set beyond size");
    }
    return bitmap;
}

uint64_t
Bitmap::compressedWireSize() const
{
    return codec::snappyCompress(Slice(toBytes())).size();
}

} // namespace fusion::query
