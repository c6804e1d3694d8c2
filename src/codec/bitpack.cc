#include "bitpack.h"

#include <algorithm>
#include <cstring>

namespace fusion::codec {

int
bitWidthFor(uint64_t max_value)
{
    int w = 0;
    while (max_value) {
        ++w;
        max_value >>= 1;
    }
    return w;
}

BitPacker::BitPacker(Bytes &out, int width) : out_(out), width_(width)
{
    FUSION_CHECK(width >= 0 && width <= 64);
}

void
BitPacker::put(uint64_t value)
{
    if (width_ == 0) {
        FUSION_CHECK(value == 0);
        return;
    }
    FUSION_CHECK(width_ == 64 || value < (1ULL << width_));
    int bits_left = width_;
    while (bits_left > 0) {
        int take = std::min(bits_left, 8 - pendingBits_);
        uint64_t mask = (take == 64) ? ~0ULL : ((1ULL << take) - 1);
        pending_ |= (value & mask) << pendingBits_;
        value >>= take;
        pendingBits_ += take;
        bits_left -= take;
        if (pendingBits_ == 8) {
            out_.push_back(static_cast<uint8_t>(pending_));
            pending_ = 0;
            pendingBits_ = 0;
        }
    }
}

void
BitPacker::flush()
{
    if (pendingBits_ > 0) {
        out_.push_back(static_cast<uint8_t>(pending_));
        pending_ = 0;
        pendingBits_ = 0;
    }
}

BitUnpacker::BitUnpacker(Slice input, int width)
    : input_(input), width_(width)
{
    FUSION_CHECK(width >= 0 && width <= 64);
}

namespace {

// Unpacks `count` values from bit `bit` on. Each value is its first
// byte's 8-byte little-endian word shifted down and masked; a value
// wider than 57 bits may also reach a ninth byte (kWide). The caller
// has checked that every value's bits lie inside the slice.
template <bool kWide>
void
unpack(const uint8_t *data, size_t size, size_t width, uint64_t bit,
       size_t count, uint64_t *out)
{
    const uint64_t mask =
        width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    auto value = [&](uint64_t word) {
        const unsigned shift = bit & 7;
        uint64_t v = word >> shift;
        if (kWide && width + shift > 64)
            v |= uint64_t{data[bit / 8 + 8]} << (64 - shift);
        return v & mask;
    };
    // Values whose whole word lies inside the slice load it directly.
    size_t whole = 0;
    if (size >= 8 && (size - 8) * 8 >= bit)
        whole = std::min<uint64_t>(count, ((size - 8) * 8 - bit) / width + 1);
    size_t i = 0;
    for (; i < whole; ++i, bit += width)
        out[i] = value(loadUnaligned<uint64_t>(data + bit / 8));
    // The last few load a zero-filled partial word instead.
    for (; i < count; ++i, bit += width) {
        const size_t byte = bit / 8;
        uint64_t word = 0;
        std::memcpy(&word, data + byte, std::min<size_t>(8, size - byte));
        out[i] = value(word);
    }
}

} // namespace

Status
BitUnpacker::getMany(size_t count, uint64_t *out)
{
    const size_t width = static_cast<size_t>(width_);
    if (width == 0) {
        std::fill_n(out, count, uint64_t{0});
        return Status::ok();
    }
    const uint64_t bits_left = uint64_t{input_.size()} * 8 - bitPos_;
    if (count > bits_left / width)
        return Status::corruption("bit stream exhausted");
    if (width > 57)
        unpack<true>(input_.data(), input_.size(), width, bitPos_, count, out);
    else
        unpack<false>(input_.data(), input_.size(), width, bitPos_, count,
                      out);
    bitPos_ += uint64_t{count} * width;
    return Status::ok();
}

} // namespace fusion::codec
