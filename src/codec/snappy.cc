#include "snappy.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/serde.h"

namespace fusion::codec {

namespace {

constexpr size_t kMinMatchLen = 4;
constexpr size_t kMaxLiteralTagLen = 60; // lengths beyond use suffix bytes
constexpr int kHashBits = 14;
constexpr size_t kHashTableSize = 1 << kHashBits;

uint32_t
load32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

uint32_t
hash32(uint32_t v)
{
    return (v * 0x1e35a7bdU) >> (32 - kHashBits);
}

void
emitLiteral(Bytes &out, const uint8_t *data, size_t len)
{
    FUSION_CHECK(len > 0);
    size_t n = len - 1;
    if (n < kMaxLiteralTagLen) {
        out.push_back(static_cast<uint8_t>(n << 2));
    } else {
        int bytes = 1;
        if (n >= (1ULL << 24))
            bytes = 4;
        else if (n >= (1ULL << 16))
            bytes = 3;
        else if (n >= (1ULL << 8))
            bytes = 2;
        out.push_back(static_cast<uint8_t>((59 + bytes) << 2));
        for (int i = 0; i < bytes; ++i)
            out.push_back(static_cast<uint8_t>(n >> (8 * i)));
    }
    out.insert(out.end(), data, data + len);
}

// Emits one copy element of len in [4, 64] (or [1,64] for far offsets).
void
emitCopyPiece(Bytes &out, size_t offset, size_t len)
{
    if (offset < 2048 && len >= 4 && len <= 11) {
        out.push_back(static_cast<uint8_t>(
            1 | ((len - 4) << 2) | ((offset >> 8) << 5)));
        out.push_back(static_cast<uint8_t>(offset & 0xff));
    } else if (offset < 65536) {
        out.push_back(static_cast<uint8_t>(2 | ((len - 1) << 2)));
        out.push_back(static_cast<uint8_t>(offset & 0xff));
        out.push_back(static_cast<uint8_t>(offset >> 8));
    } else {
        out.push_back(static_cast<uint8_t>(3 | ((len - 1) << 2)));
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<uint8_t>(offset >> (8 * i)));
    }
}

void
emitCopy(Bytes &out, size_t offset, size_t len)
{
    // Long matches are split into <=64-byte pieces; keep the final piece
    // >= kMinMatchLen so the 1-byte-offset form stays valid.
    while (len > 64) {
        size_t piece = (len - 64 >= kMinMatchLen) ? 64 : 60;
        emitCopyPiece(out, offset, piece);
        len -= piece;
    }
    emitCopyPiece(out, offset, len);
}

// Per-tag decode table, as in Google's Snappy decoder: bits 0-7 hold the
// element's length (a literal's, when its tag carries it), bits 8-10 the
// high offset bits of a 1-byte-offset copy, bits 11-13 the number of
// trailer bytes after the tag (a long literal's length or a copy's
// offset). One lookup replaces a branch per element kind.
constexpr std::array<uint16_t, 256> kTagTable = [] {
    std::array<uint16_t, 256> table{};
    for (unsigned tag = 0; tag < 256; ++tag) {
        unsigned len = 0, high = 0, trailer = 0;
        switch (tag & 3) {
          case 0:
            len = (tag >> 2) + 1;
            trailer = len > kMaxLiteralTagLen ? len - kMaxLiteralTagLen : 0;
            break;
          case 1:
            len = 4 + ((tag >> 2) & 7);
            high = tag >> 5;
            trailer = 1;
            break;
          case 2: len = (tag >> 2) + 1; trailer = 2; break;
          case 3: len = (tag >> 2) + 1; trailer = 4; break;
        }
        table[tag] =
            static_cast<uint16_t>(len | (high << 8) | (trailer << 11));
    }
    return table;
}();

constexpr uint32_t kTrailerMask[5] = {0, 0xff, 0xffff, 0xffffff,
                                      0xffffffff};

// Room past a copy's end that lets the decoder use fixed-size 8-byte
// moves: they may spill up to 15 bytes beyond the element, all inside
// the output and all rewritten by the elements that follow.
constexpr size_t kCopySlack = 16;

void
copy8(uint8_t *dst, const uint8_t *src)
{
    uint64_t v = loadUnaligned<uint64_t>(src);
    std::memcpy(dst, &v, 8);
}

void
copy16(uint8_t *dst, const uint8_t *src)
{
    uint64_t lo = loadUnaligned<uint64_t>(src);
    uint64_t hi = loadUnaligned<uint64_t>(src + 8);
    std::memcpy(dst, &lo, 8);
    std::memcpy(dst + 8, &hi, 8);
}

// Writes op[i] = op[i - offset] for i < len, where 0 < offset <= op -
// output start and op + len <= op_end. The bytes from op - offset repeat
// with period `offset`, so copying from a source D bytes back is exact
// for any multiple D of the period.
void
copyMatch(uint8_t *op, uint8_t *op_end, size_t offset, size_t len)
{
    const uint8_t *src = op - offset;
    uint8_t *const end = op + len;
    if (static_cast<size_t>(op_end - op) >= len + kCopySlack) {
        // Widen a period shorter than a word: each 8-byte move gets its
        // first (op - src) bytes right, which doubles the distance.
        while (op - src < 8) {
            copy8(op, src);
            op += op - src;
        }
        // Now every 8-byte source lies wholly before its destination.
        for (; op < end; op += 8, src += 8)
            copy8(op, src);
        return;
    }
    // Near the output's end: exact moves only. Each memcpy is
    // non-overlapping, and the distance doubles every step.
    while (op < end) {
        size_t n = std::min(static_cast<size_t>(end - op),
                            static_cast<size_t>(op - src));
        std::memcpy(op, src, n);
        op += n;
    }
}

} // namespace

Bytes
snappyCompress(Slice input)
{
    Bytes out;
    BinaryWriter writer(out);
    writer.putVarU64(input.size());

    const uint8_t *base = input.data();
    const size_t n = input.size();
    if (n == 0)
        return out;

    std::vector<uint32_t> table(kHashTableSize, 0);
    // Positions in `table` are stored +1 so 0 means "empty".
    size_t pos = 0;
    size_t literal_start = 0;

    while (pos + kMinMatchLen <= n) {
        uint32_t h = hash32(load32(base + pos));
        uint32_t candidate = table[h];
        table[h] = static_cast<uint32_t>(pos + 1);
        if (candidate != 0) {
            size_t cand = candidate - 1;
            if (load32(base + cand) == load32(base + pos)) {
                // Extend the match as far as possible.
                size_t len = kMinMatchLen;
                while (pos + len < n && base[cand + len] == base[pos + len])
                    ++len;
                if (pos > literal_start) {
                    emitLiteral(out, base + literal_start,
                                pos - literal_start);
                }
                emitCopy(out, pos - cand, len);
                // Seed the table inside the match so later data can
                // reference it (sparse: every 4th byte keeps this cheap).
                size_t end = pos + len;
                for (size_t p = pos + 1; p + kMinMatchLen <= end; p += 4)
                    table[hash32(load32(base + p))] =
                        static_cast<uint32_t>(p + 1);
                pos = end;
                literal_start = pos;
                continue;
            }
        }
        ++pos;
    }
    if (literal_start < n)
        emitLiteral(out, base + literal_start, n - literal_start);
    return out;
}

Result<uint64_t>
snappyUncompressedLength(Slice input)
{
    BinaryReader reader(input);
    return reader.getVarU64();
}

Result<Bytes>
snappyDecompress(Slice input)
{
    BinaryReader reader(input);
    auto ulen = reader.getVarU64();
    if (!ulen.isOk())
        return ulen.status();
    // The format cannot expand beyond ~64 output bytes per input byte
    // (a 3-byte copy element emits at most 64 bytes); a longer claim is
    // corrupt, and trusting it would over-allocate.
    if (ulen.value() > 64 * input.size() + 1024)
        return Status::corruption("snappy length claim implausibly large");

    // Sized once from the validated header; every element below checks
    // that it fits before writing, so the output never grows or moves.
    Bytes out(ulen.value());
    uint8_t *const base = out.data();
    uint8_t *const op_end = base + out.size();
    uint8_t *op = base;
    const uint8_t *ip = input.data() + reader.position();
    const uint8_t *const ip_end = input.data() + input.size();
    const auto truncated = [] {
        return Status::corruption("snappy element truncated");
    };
    const auto overrun = [] {
        return Status::corruption("snappy output length mismatch");
    };

    while (ip < ip_end) {
        const uint8_t tag = *ip++;
        const uint16_t entry = kTagTable[tag];
        const size_t trailer_len = entry >> 11;
        if (static_cast<size_t>(ip_end - ip) < trailer_len)
            return truncated();
        uint32_t trailer = 0;
        if (ip_end - ip >= 4)
            trailer = loadUnaligned<uint32_t>(ip) & kTrailerMask[trailer_len];
        else
            std::memcpy(&trailer, ip, trailer_len);
        ip += trailer_len;
        const size_t out_left = static_cast<size_t>(op_end - op);

        if ((tag & 3) == 0) { // literal
            const size_t len = trailer_len == 0
                                   ? static_cast<size_t>(entry & 0xff)
                                   : static_cast<size_t>(trailer) + 1;
            const size_t in_left = static_cast<size_t>(ip_end - ip);
            if (len <= 16 && in_left >= 16 && out_left >= 16) {
                // Short literal with room on both sides: one fixed-size
                // move; the bytes past `len` are rewritten later.
                copy16(op, ip);
            } else {
                if (in_left < len)
                    return truncated();
                if (out_left < len)
                    return overrun();
                std::memcpy(op, ip, len);
            }
            op += len;
            ip += len;
            continue;
        }

        const size_t len = entry & 0xff;
        const size_t offset = (entry & 0x700) + trailer;
        if (offset == 0 || offset > static_cast<size_t>(op - base))
            return Status::corruption("snappy copy offset out of range");
        if (out_left < len)
            return overrun();
        copyMatch(op, op_end, offset, len);
        op += len;
    }
    if (op != op_end)
        return overrun();
    return out;
}

} // namespace fusion::codec
