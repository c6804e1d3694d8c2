#include "bitpack.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

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

// unpack() at a compile-time width W <= 32 (every dictionary code
// width): from a byte-aligned bit, each group of 8 values is W whole
// bytes, so the group's loads and shifts are constants the compiler
// unrolls. The rest (a tail, or a start inside a byte) goes through
// unpack().
template <size_t W>
void
unpackFixed(const uint8_t *data, size_t size, uint64_t bit, size_t count,
            uint64_t *out)
{
    constexpr uint64_t mask = (uint64_t{1} << W) - 1;
    // Groups whose every word lies inside the slice load it directly.
    size_t groups = 0;
    if (bit % 8 == 0 && size >= 8 + bit / 8)
        groups = std::min<uint64_t>(count / 8,
                                    ((size - 8 - bit / 8) * 8) / (8 * W));
    const uint8_t *p = data + bit / 8;
    for (size_t g = 0; g < groups; ++g, p += W, out += 8)
        for (size_t j = 0; j < 8; ++j)
            out[j] = (loadUnaligned<uint64_t>(p + j * W / 8) >>
                      (j * W % 8)) &
                     mask;
    unpack<false>(data, size, W, bit + groups * 8 * W, count - groups * 8,
                  out);
}

using UnpackFn = void (*)(const uint8_t *, size_t, uint64_t, size_t,
                          uint64_t *);

template <size_t... I>
constexpr std::array<UnpackFn, sizeof...(I)>
fixedUnpackers(std::index_sequence<I...>)
{
    return {&unpackFixed<I + 1>...};
}

// unpackFixed<1> .. unpackFixed<32>, indexed by width - 1.
constexpr auto kFixedUnpackers =
    fixedUnpackers(std::make_index_sequence<32>());

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
    if (width <= kFixedUnpackers.size())
        kFixedUnpackers[width - 1](input_.data(), input_.size(), bitPos_,
                                   count, out);
    else if (width > 57)
        unpack<true>(input_.data(), input_.size(), width, bitPos_, count, out);
    else
        unpack<false>(input_.data(), input_.size(), width, bitPos_, count,
                      out);
    bitPos_ += uint64_t{count} * width;
    return Status::ok();
}

uint64_t
unpackAt(Slice bits, int width, size_t i)
{
    if (width == 0)
        return 0;
    const uint64_t bit = uint64_t{i} * static_cast<uint64_t>(width);
    const size_t byte = bit / 8;
    const unsigned shift = bit & 7;
    FUSION_CHECK(bit + static_cast<uint64_t>(width) <=
                 uint64_t{bits.size()} * 8);
    uint64_t word = 0;
    if (bits.size() - byte >= 8)
        word = loadUnaligned<uint64_t>(bits.data() + byte);
    else
        std::memcpy(&word, bits.data() + byte, bits.size() - byte);
    uint64_t v = word >> shift;
    if (static_cast<unsigned>(width) + shift > 64)
        v |= uint64_t{bits.data()[byte + 8]} << (64 - shift);
    return width == 64 ? v : v & ((uint64_t{1} << width) - 1);
}

} // namespace fusion::codec
