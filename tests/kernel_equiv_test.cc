/**
 * @file
 * Equivalence tests for the performance layer. The optimized kernels —
 * split-table / SIMD GF(256) multiply-accumulate, tiled+pooled
 * Reed-Solomon, the word-wise typed predicate/select/aggregate kernels,
 * and the word-at-a-time decode kernels (Snappy, bit-unpacking, RLE,
 * plain pages, dictionary gather) — must be bit-identical to their
 * simple reference implementations on every input, including unaligned
 * lengths, zero coefficients, NaN doubles, and empty columns; on
 * corrupt input a decode kernel rejects exactly when its reference does.
 * The thread pool must leave all simulated-time query results and
 * fault.* counters unchanged for any FUSION_THREADS value.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>

#include "codec/bitpack.h"
#include "codec/rle.h"
#include "codec/snappy.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/thread_pool.h"
#include "ec/reed_solomon.h"
#include "fault_counters.h"
#include "format/chunk_codec.h"
#include "query/eval.h"
#include "query/parser.h"
#include "sim/fault.h"
#include "store/fusion_store.h"
#include "workload/lineitem.h"
#include "workload/taxi.h"

namespace fusion {
namespace {

using ec::Gf256;
using ec::SimdLevel;
using format::ColumnData;
using format::PhysicalType;
using format::Value;
using query::Bitmap;
using query::CompareOp;

// ---------------------------------------------------------------------
// GF(256) multiply-accumulate: every kernel vs the log/exp reference.
// ---------------------------------------------------------------------

void
referenceMulAccumulate(uint8_t *dst, const uint8_t *src, size_t len,
                       uint8_t c)
{
    const Gf256 &gf = Gf256::instance();
    for (size_t i = 0; i < len; ++i)
        dst[i] = gf.add(dst[i], gf.mul(c, src[i]));
}

TEST(GfKernelTest, AllLevelsMatchReferenceOnUnalignedLengths)
{
    const Gf256 &gf = Gf256::instance();
    Rng rng(2024);
    const SimdLevel levels[] = {SimdLevel::kScalar, SimdLevel::kSsse3,
                                SimdLevel::kAvx2};
    const uint8_t coeffs[] = {0, 1, 2, 3, 0x57, 0x8e, 0xff};

    for (size_t len = 0; len <= 64; ++len) {
        for (uint8_t c : coeffs) {
            Bytes src(len), base(len);
            for (auto &b : src)
                b = static_cast<uint8_t>(rng.next());
            for (auto &b : base)
                b = static_cast<uint8_t>(rng.next());

            Bytes expect = base;
            referenceMulAccumulate(expect.data(), src.data(), len, c);
            for (SimdLevel level : levels) {
                Bytes got = base;
                gf.mulAccumulate(got.data(), src.data(), len, c, level);
                ASSERT_EQ(got, expect)
                    << "len=" << len << " c=" << int(c) << " level="
                    << ec::simdLevelName(level);
            }
        }
    }
}

TEST(GfKernelTest, LargeRandomBuffersMatchAcrossLevels)
{
    const Gf256 &gf = Gf256::instance();
    Rng rng(7);
    // Odd length: exercises the 64/32/16-byte main loops plus tails.
    const size_t len = (1 << 16) + 37;
    Bytes src(len), base(len);
    for (auto &b : src)
        b = static_cast<uint8_t>(rng.next());
    for (auto &b : base)
        b = static_cast<uint8_t>(rng.next());

    for (int trial = 0; trial < 16; ++trial) {
        uint8_t c = static_cast<uint8_t>(rng.next());
        Bytes expect = base;
        referenceMulAccumulate(expect.data(), src.data(), len, c);
        for (SimdLevel level :
             {SimdLevel::kScalar, SimdLevel::kSsse3, SimdLevel::kAvx2}) {
            Bytes got = base;
            gf.mulAccumulate(got.data(), src.data(), len, c, level);
            ASSERT_EQ(got, expect) << "c=" << int(c);
        }
    }
}

TEST(GfKernelTest, MulTableAgreesWithLogExpArithmetic)
{
    const Gf256 &gf = Gf256::instance();
    for (int a = 0; a < 256; ++a) {
        // mul via the dense table must satisfy the field axioms the
        // exp/log implementation guarantees.
        ASSERT_EQ(gf.mul(static_cast<uint8_t>(a), 0), 0);
        ASSERT_EQ(gf.mul(0, static_cast<uint8_t>(a)), 0);
        ASSERT_EQ(gf.mul(static_cast<uint8_t>(a), 1), a);
        if (a != 0) {
            ASSERT_EQ(gf.mul(static_cast<uint8_t>(a),
                             gf.inv(static_cast<uint8_t>(a))),
                      1);
        }
    }
}

TEST(GfKernelTest, RsRoundTripsAtUnalignedBlockSizes)
{
    auto rs = ec::ReedSolomon::create(9, 6).value();
    Rng rng(99);
    for (size_t base_len : {0, 1, 13, 63, 64, 1000, 32769}) {
        std::vector<Bytes> blocks(6);
        for (size_t j = 0; j < blocks.size(); ++j) {
            // Variable sizes around base_len exercise zero-extension.
            size_t len = base_len + j;
            blocks[j].resize(len);
            for (auto &b : blocks[j])
                b = static_cast<uint8_t>(rng.next());
        }
        auto stripe = ec::encodeStripe(rs, blocks).value();

        std::vector<std::optional<Bytes>> shards;
        for (const auto &block : stripe.blocks)
            shards.emplace_back(block);
        // Erase three shards: two data (zero-extended on entry), one
        // parity.
        for (size_t victim : {1, 4, 7})
            shards[victim] = std::nullopt;
        for (size_t j = 0; j < 6; ++j)
            if (shards[j].has_value())
                shards[j]->resize(stripe.blockSize, 0);

        auto data = ec::recoverStripeData(rs, std::move(shards),
                                          stripe.dataSizes,
                                          stripe.blockSize);
        ASSERT_TRUE(data.isOk()) << data.status().toString();
        for (size_t j = 0; j < blocks.size(); ++j)
            ASSERT_EQ(data.value()[j], blocks[j]) << "block " << j;
    }
}

// ---------------------------------------------------------------------
// Typed predicate kernels vs the boxed compareValues reference.
// ---------------------------------------------------------------------

const CompareOp kAllOps[] = {CompareOp::kLt, CompareOp::kLe,
                             CompareOp::kGt, CompareOp::kGe,
                             CompareOp::kEq, CompareOp::kNe};

void
expectKernelMatchesReference(const ColumnData &col, const Value &lit)
{
    for (CompareOp op : kAllOps) {
        auto fast = query::evalPredicate(col, op, lit);
        auto ref = query::evalPredicateReference(col, op, lit);
        ASSERT_EQ(fast.isOk(), ref.isOk());
        if (!fast.isOk())
            continue;
        ASSERT_TRUE(fast.value() == ref.value())
            << "op=" << query::compareOpName(op)
            << " lit=" << lit.toString() << " rows=" << col.size();
    }
}

TEST(PredicateKernelTest, IntColumnsMatchReferenceAtWordBoundaries)
{
    Rng rng(1);
    // Sizes straddling the 64-row word boundary and beyond.
    for (size_t rows : {0, 1, 63, 64, 65, 127, 128, 130, 1000}) {
        ColumnData i32(PhysicalType::kInt32);
        ColumnData i64(PhysicalType::kInt64);
        for (size_t i = 0; i < rows; ++i) {
            i32.append(static_cast<int32_t>(rng.uniformInt(-50, 50)));
            i64.append(rng.uniformInt(-50, 50));
        }
        for (int64_t lit : {-100, -50, -1, 0, 7, 50, 100}) {
            expectKernelMatchesReference(i32, Value(lit));
            expectKernelMatchesReference(i64, Value(lit));
            // Fractional double literal against integer columns.
            expectKernelMatchesReference(
                i32, Value(static_cast<double>(lit) + 0.5));
            expectKernelMatchesReference(
                i64, Value(static_cast<double>(lit) + 0.5));
        }
    }
}

TEST(PredicateKernelTest, DoubleColumnsHandleNanAndSignedZero)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    ColumnData col(PhysicalType::kDouble);
    Rng rng(5);
    for (size_t i = 0; i < 200; ++i)
        col.append(rng.uniformReal(-1.0, 1.0));
    col.append(nan);
    col.append(-0.0);
    col.append(0.0);
    col.append(inf);
    col.append(-inf);
    col.append(nan);

    for (double lit : {-0.5, 0.0, -0.0, 0.5, inf, -inf, nan})
        expectKernelMatchesReference(col, Value(lit));
}

TEST(PredicateKernelTest, StringColumnsMatchReference)
{
    Rng rng(11);
    ColumnData col(PhysicalType::kString);
    for (size_t i = 0; i < 150; ++i)
        col.append(randomString(rng, rng.uniformInt(0, 8)));
    col.append(std::string());
    for (const char *lit : {"", "a", "mmmm", "zzzzzzzzz"})
        expectKernelMatchesReference(col, Value(std::string(lit)));
}

TEST(PredicateKernelTest, IncompatibleLiteralStillRejected)
{
    ColumnData col(PhysicalType::kInt64);
    col.append(int64_t{1});
    auto r = query::evalPredicate(col, CompareOp::kEq,
                                  Value(std::string("x")));
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SelectKernelTest, WordWiseGatherMatchesNaiveSelection)
{
    Rng rng(3);
    for (size_t rows : {0, 1, 64, 65, 200, 1000}) {
        ColumnData col(PhysicalType::kInt64);
        for (size_t i = 0; i < rows; ++i)
            col.append(rng.uniformInt(0, 1 << 20));
        Bitmap bits(rows);
        for (size_t i = 0; i < rows; ++i)
            if (rng.chance(0.3))
                bits.set(i);

        ColumnData expect(PhysicalType::kInt64);
        for (size_t i = 0; i < rows; ++i)
            if (bits.test(i))
                expect.append(col.int64s()[i]);
        EXPECT_TRUE(query::selectRows(col, bits) == expect);
    }
    // Dense and empty selections.
    ColumnData strs(PhysicalType::kString);
    for (size_t i = 0; i < 130; ++i)
        strs.append(randomString(rng, 4));
    EXPECT_TRUE(query::selectRows(strs, Bitmap(130, true)) == strs);
    EXPECT_TRUE(query::selectRows(strs, Bitmap(130, false)) ==
                ColumnData(PhysicalType::kString));
}

TEST(AggregateKernelTest, TypedReductionMatchesBoxedLoop)
{
    Rng rng(13);
    ColumnData col(PhysicalType::kDouble);
    for (size_t i = 0; i < 500; ++i)
        col.append(rng.uniformReal(-10.0, 10.0));

    auto boxed = [&](query::AggregateKind kind) {
        double sum = 0.0, mn = 0.0, mx = 0.0;
        bool first = true;
        for (size_t i = 0; i < col.size(); ++i) {
            double v = col.valueAt(i).numeric();
            sum += v;
            if (first || v < mn)
                mn = v;
            if (first || v > mx)
                mx = v;
            first = false;
        }
        switch (kind) {
          case query::AggregateKind::kSum: return sum;
          case query::AggregateKind::kAvg:
            return sum / static_cast<double>(col.size());
          case query::AggregateKind::kMin: return mn;
          case query::AggregateKind::kMax: return mx;
          default: return 0.0;
        }
    };
    for (auto kind : {query::AggregateKind::kSum,
                      query::AggregateKind::kAvg,
                      query::AggregateKind::kMin,
                      query::AggregateKind::kMax}) {
        auto fast = query::computeAggregate(kind, col);
        ASSERT_TRUE(fast.isOk());
        // Identical iteration order ⇒ bit-identical doubles.
        EXPECT_EQ(fast.value(), boxed(kind));
    }
}

// ---------------------------------------------------------------------
// Decode kernels: word-at-a-time Snappy, bit-unpacking, RLE, plain
// pages and the fused dictionary gather vs the byte-at-a-time decoders
// they replaced, kept verbatim below as the reference oracle.
// ---------------------------------------------------------------------

namespace oracle {

Result<Bytes>
snappyDecompress(Slice input)
{
    BinaryReader reader(input);
    auto ulen = reader.getVarU64();
    if (!ulen.isOk())
        return ulen.status();
    if (ulen.value() > 64 * input.size() + 1024)
        return Status::corruption("snappy length claim implausibly large");

    Bytes out;
    out.reserve(ulen.value());

    while (!reader.atEnd()) {
        auto tag_r = reader.getU8();
        if (!tag_r.isOk())
            return tag_r.status();
        uint8_t tag = tag_r.value();
        switch (tag & 3) {
          case 0: { // literal
            size_t len = (tag >> 2) + 1;
            if (len > 60) {
                int extra = static_cast<int>(len - 60);
                uint64_t n = 0;
                for (int i = 0; i < extra; ++i) {
                    auto b = reader.getU8();
                    if (!b.isOk())
                        return b.status();
                    n |= static_cast<uint64_t>(b.value()) << (8 * i);
                }
                len = n + 1;
            }
            auto raw = reader.getRaw(len);
            if (!raw.isOk())
                return raw.status();
            appendBytes(out, raw.value());
            break;
          }
          case 1: { // copy, 1-byte offset
            size_t len = 4 + ((tag >> 2) & 0x7);
            auto b = reader.getU8();
            if (!b.isOk())
                return b.status();
            size_t offset = (static_cast<size_t>(tag >> 5) << 8) | b.value();
            if (offset == 0 || offset > out.size())
                return Status::corruption("snappy copy offset out of range");
            for (size_t i = 0; i < len; ++i)
                out.push_back(out[out.size() - offset]);
            break;
          }
          case 2:
          case 3: { // copy, 2- or 4-byte offset
            size_t len = (tag >> 2) + 1;
            int off_bytes = ((tag & 3) == 2) ? 2 : 4;
            uint64_t offset = 0;
            for (int i = 0; i < off_bytes; ++i) {
                auto b = reader.getU8();
                if (!b.isOk())
                    return b.status();
                offset |= static_cast<uint64_t>(b.value()) << (8 * i);
            }
            if (offset == 0 || offset > out.size())
                return Status::corruption("snappy copy offset out of range");
            for (size_t i = 0; i < len; ++i)
                out.push_back(out[out.size() - offset]);
            break;
          }
        }
    }
    if (out.size() != ulen.value())
        return Status::corruption("snappy output length mismatch");
    return out;
}

class BitUnpacker
{
  public:
    BitUnpacker(Slice input, int width) : input_(input), width_(width) {}

    Result<uint64_t>
    get()
    {
        if (width_ == 0)
            return uint64_t{0};
        uint64_t value = 0;
        int have = 0;
        while (have < width_) {
            if (pendingBits_ == 0) {
                if (bytePos_ >= input_.size())
                    return Status::corruption("bit stream exhausted");
                pending_ = input_[bytePos_++];
                pendingBits_ = 8;
            }
            int take = std::min(width_ - have, pendingBits_);
            uint64_t mask = (1ULL << take) - 1;
            value |= (pending_ & mask) << have;
            pending_ >>= take;
            pendingBits_ -= take;
            have += take;
        }
        return value;
    }

    Status
    getMany(size_t count, std::vector<uint64_t> &out)
    {
        out.reserve(out.size() + count);
        for (size_t i = 0; i < count; ++i) {
            auto v = get();
            if (!v.isOk())
                return v.status();
            out.push_back(v.value());
        }
        return Status::ok();
    }

  private:
    Slice input_;
    int width_;
    size_t bytePos_ = 0;
    uint64_t pending_ = 0;
    int pendingBits_ = 0;
};

Result<std::vector<uint64_t>>
rleDecode(Slice input, int width, size_t count)
{
    std::vector<uint64_t> out;
    out.reserve(count);
    BinaryReader reader(input);
    int value_bytes = (width + 7) / 8;

    while (out.size() < count) {
        auto header = reader.getVarU64();
        if (!header.isOk())
            return header.status();
        uint64_t h = header.value();
        if (h & 1) {
            uint64_t literals = h >> 1;
            if (literals == 0 || literals > (1 << 24))
                return Status::corruption("bad RLE literal count");
            if (literals > count - out.size())
                return Status::corruption("RLE literals exceed value count");
            size_t packed_bytes = (literals * width + 7) / 8;
            auto raw = reader.getRaw(packed_bytes);
            if (!raw.isOk())
                return raw.status();
            BitUnpacker unpacker(raw.value(), width);
            FUSION_RETURN_IF_ERROR(unpacker.getMany(literals, out));
        } else {
            uint64_t run = h >> 1;
            if (run == 0)
                return Status::corruption("zero-length RLE run");
            if (run > count - out.size())
                return Status::corruption("RLE run exceeds value count");
            uint64_t value = 0;
            for (int b = 0; b < value_bytes; ++b) {
                auto byte = reader.getU8();
                if (!byte.isOk())
                    return byte.status();
                value |= static_cast<uint64_t>(byte.value()) << (8 * b);
            }
            out.insert(out.end(), run, value);
        }
    }
    return out;
}

Status
plainDecodeInto(BinaryReader &reader, PhysicalType type, size_t count,
                ColumnData &out)
{
    for (size_t i = 0; i < count; ++i) {
        switch (type) {
          case PhysicalType::kInt32: {
            auto v = reader.getI32();
            if (!v.isOk())
                return v.status();
            out.append(v.value());
            break;
          }
          case PhysicalType::kInt64: {
            auto v = reader.getI64();
            if (!v.isOk())
                return v.status();
            out.append(v.value());
            break;
          }
          case PhysicalType::kDouble: {
            auto v = reader.getDouble();
            if (!v.isOk())
                return v.status();
            out.append(v.value());
            break;
          }
          case PhysicalType::kString: {
            auto len = reader.getU32();
            if (!len.isOk())
                return len.status();
            auto raw = reader.getRaw(len.value());
            if (!raw.isOk())
                return raw.status();
            out.append(raw.value().toString());
            break;
          }
        }
    }
    return Status::ok();
}

Result<ColumnData>
plainDecode(Slice bytes, PhysicalType type, size_t count)
{
    ColumnData out(type);
    BinaryReader reader(bytes);
    FUSION_RETURN_IF_ERROR(plainDecodeInto(reader, type, count, out));
    return out;
}

Status
appendDictionaryValues(const ColumnData &dict,
                       const std::vector<uint64_t> &codes, ColumnData &out)
{
    auto gather = [&](const auto &values) {
        for (uint64_t code : codes) {
            if (code >= values.size())
                return Status::corruption("dictionary code out of range");
            out.append(values[code]);
        }
        return Status::ok();
    };
    switch (dict.type()) {
      case PhysicalType::kInt32: return gather(dict.int32s());
      case PhysicalType::kInt64: return gather(dict.int64s());
      case PhysicalType::kDouble: return gather(dict.doubles());
      case PhysicalType::kString: return gather(dict.strings());
    }
    return Status::ok();
}

Result<Bytes>
decompressPage(codec::Compression c, Slice input)
{
    if (c == codec::Compression::kSnappy)
        return snappyDecompress(input);
    return input.toBytes();
}

// The chunk decoder as it was, built from the oracle pieces above, plus
// the one check the kernels added: a page may not claim more values
// than the chunk has left (without it a corrupt page count reserves an
// unbounded buffer and aborts the process).
Result<ColumnData>
decodeChunk(Slice bytes, PhysicalType type)
{
    BinaryReader reader(bytes);
    auto enc_tag = reader.getU8();
    if (!enc_tag.isOk())
        return enc_tag.status();
    if (enc_tag.value() > 1)
        return Status::corruption("bad chunk encoding tag");
    auto encoding = static_cast<format::ChunkEncoding>(enc_tag.value());
    auto comp_tag = reader.getU8();
    if (!comp_tag.isOk())
        return comp_tag.status();
    if (comp_tag.value() > 1)
        return Status::corruption("bad chunk compression tag");
    auto compression = static_cast<codec::Compression>(comp_tag.value());
    auto count = reader.getVarU64();
    if (!count.isOk())
        return count.status();
    if (count.value() == 0 || count.value() > (1ULL << 28))
        return Status::corruption("implausible chunk value count");

    ColumnData out(type);
    ColumnData dict(type);
    int width = 0;
    const bool dictionary = encoding == format::ChunkEncoding::kDictionary;
    if (dictionary) {
        auto dict_count = reader.getVarU64();
        if (!dict_count.isOk())
            return dict_count.status();
        if (dict_count.value() == 0 || dict_count.value() > count.value())
            return Status::corruption("implausible dictionary size");
        auto dict_page = reader.getLengthPrefixed();
        if (!dict_page.isOk())
            return dict_page.status();
        auto dict_plain = decompressPage(compression, dict_page.value());
        if (!dict_plain.isOk())
            return dict_plain.status();
        auto d = oracle::plainDecode(dict_plain.value(), type,
                                     dict_count.value());
        if (!d.isOk())
            return d.status();
        dict = std::move(d.value());
        auto w = reader.getU8();
        if (!w.isOk())
            return w.status();
        if (w.value() > 32)
            return Status::corruption("bad dictionary code width");
        width = w.value();
    }
    auto num_pages = reader.getVarU64();
    if (!num_pages.isOk())
        return num_pages.status();
    uint64_t decoded = 0;
    for (uint64_t p = 0; p < num_pages.value(); ++p) {
        auto page_count = reader.getVarU64();
        if (!page_count.isOk())
            return page_count.status();
        if (page_count.value() > count.value() - decoded)
            return Status::corruption("page value count exceeds chunk");
        auto page = reader.getLengthPrefixed();
        if (!page.isOk())
            return page.status();
        auto body = decompressPage(compression, page.value());
        if (!body.isOk())
            return body.status();
        if (dictionary) {
            auto codes =
                oracle::rleDecode(body.value(), width, page_count.value());
            if (!codes.isOk())
                return codes.status();
            FUSION_RETURN_IF_ERROR(
                oracle::appendDictionaryValues(dict, codes.value(), out));
        } else {
            BinaryReader page_reader{Slice(body.value())};
            FUSION_RETURN_IF_ERROR(plainDecodeInto(
                page_reader, type, page_count.value(), out));
        }
        decoded += page_count.value();
    }
    if (decoded != count.value())
        return Status::corruption("chunk value count mismatch");
    return out;
}

} // namespace oracle

/** Both decoders reject, or both accept with identical output. */
template <typename T>
::testing::AssertionResult
agree(const Result<T> &got, const Result<T> &want)
{
    if (got.isOk() != want.isOk())
        return ::testing::AssertionFailure()
               << "kernel " << (got.isOk() ? "accepted" : "rejected")
               << ", oracle " << (want.isOk() ? "accepted" : "rejected")
               << " (" << (got.isOk() ? want : got).status().toString()
               << ")";
    if (!got.isOk()) {
        if (got.status().code() != want.status().code())
            return ::testing::AssertionFailure()
                   << "status " << got.status().toString() << " vs "
                   << want.status().toString();
        return ::testing::AssertionSuccess();
    }
    if (!(got.value() == want.value()))
        return ::testing::AssertionFailure() << "outputs differ";
    return ::testing::AssertionSuccess();
}

/**
 * Builds a valid Snappy stream element by element, covering forms the
 * compressor never emits: literal lengths carried in 0-4 suffix bytes
 * whatever their size, copies at every offset from 1 (overlapping) to
 * far back, in all three copy encodings.
 */
Bytes
randomSnappyStream(Rng &rng, size_t target, Bytes &expect)
{
    Bytes body;
    expect.clear();
    while (expect.size() < target) {
        const bool literal = expect.empty() || rng.chance(0.35);
        if (literal) {
            size_t len = rng.chance(0.8)
                             ? static_cast<size_t>(rng.uniformInt(1, 24))
                             : static_cast<size_t>(rng.uniformInt(1, 300));
            const size_t n = len - 1;
            // Fewest suffix bytes that hold n, then maybe more.
            int min_extra = n < 60 ? 0 : n < 256 ? 1 : n < 65536 ? 2 : 3;
            int extra = static_cast<int>(rng.uniformInt(min_extra, 4));
            if (extra == 0) {
                body.push_back(static_cast<uint8_t>(n << 2));
            } else {
                body.push_back(static_cast<uint8_t>((59 + extra) << 2));
                for (int i = 0; i < extra; ++i)
                    body.push_back(static_cast<uint8_t>(n >> (8 * i)));
            }
            for (size_t i = 0; i < len; ++i) {
                uint8_t b = static_cast<uint8_t>(rng.uniformInt(0, 3));
                body.push_back(b);
                expect.push_back(b);
            }
            continue;
        }
        const size_t have = expect.size();
        const int kind = static_cast<int>(rng.uniformInt(1, 3));
        size_t len = kind == 1 ? static_cast<size_t>(rng.uniformInt(4, 11))
                               : static_cast<size_t>(rng.uniformInt(1, 64));
        size_t max_off = kind == 1 ? std::min<size_t>(have, 2047)
                         : kind == 2 ? std::min<size_t>(have, 65535)
                                     : have;
        // Half the copies overlap their own output (offset < len).
        size_t offset =
            rng.chance(0.5)
                ? static_cast<size_t>(
                      rng.uniformInt(1, std::min(max_off, len)))
                : static_cast<size_t>(rng.uniformInt(1, max_off));
        if (kind == 1) {
            body.push_back(static_cast<uint8_t>(1 | ((len - 4) << 2) |
                                                ((offset >> 8) << 5)));
            body.push_back(static_cast<uint8_t>(offset));
        } else {
            body.push_back(static_cast<uint8_t>(kind | ((len - 1) << 2)));
            for (int i = 0; i < (kind == 2 ? 2 : 4); ++i)
                body.push_back(static_cast<uint8_t>(offset >> (8 * i)));
        }
        for (size_t i = 0; i < len; ++i)
            expect.push_back(expect[expect.size() - offset]);
    }
    Bytes stream;
    BinaryWriter(stream).putVarU64(expect.size());
    stream.insert(stream.end(), body.begin(), body.end());
    return stream;
}

Bytes
flipOneByte(const Bytes &input, Rng &rng)
{
    Bytes out = input;
    out[rng.pickIndex(out.size())] ^=
        static_cast<uint8_t>(rng.uniformInt(1, 255));
    return out;
}

TEST(SnappyKernelTest, HandBuiltStreamsMatchOracle)
{
    Rng rng(11);
    for (int trial = 0; trial < 400; ++trial) {
        Bytes expect;
        size_t target = static_cast<size_t>(
            trial % 4 == 0 ? rng.uniformInt(0, 40)
                           : rng.uniformInt(1, 70'000));
        Bytes stream = randomSnappyStream(rng, target, expect);
        auto got = codec::snappyDecompress(Slice(stream));
        ASSERT_TRUE(got.isOk()) << got.status().toString();
        ASSERT_EQ(got.value(), expect) << "trial " << trial;
        ASSERT_TRUE(agree(got, oracle::snappyDecompress(Slice(stream))));

        // Cutting any suffix leaves the stream short of its length.
        for (int cut = 0; cut < 8 && !stream.empty(); ++cut) {
            const auto cut_at = static_cast<std::ptrdiff_t>(
                rng.pickIndex(stream.size()));
            Bytes truncated(stream.begin(), stream.begin() + cut_at);
            ASSERT_FALSE(codec::snappyDecompress(Slice(truncated)).isOk());
            ASSERT_FALSE(oracle::snappyDecompress(Slice(truncated)).isOk());
        }
        // A flipped byte may still parse; then both must agree exactly.
        for (int flip = 0; flip < 8 && !stream.empty(); ++flip) {
            Bytes corrupt = flipOneByte(stream, rng);
            ASSERT_TRUE(agree(codec::snappyDecompress(Slice(corrupt)),
                              oracle::snappyDecompress(Slice(corrupt))))
                << "trial " << trial;
        }
    }
}

TEST(SnappyKernelTest, CompressorOutputMatchesOracle)
{
    Rng rng(12);
    for (size_t size : {0, 1, 7, 15, 16, 17, 63, 64, 65, 1000, 65'536,
                        200'000}) {
        for (double runs : {0.0, 0.5, 0.95}) {
            Bytes input(size);
            for (size_t i = 0; i < size; ++i) {
                // Repeat one of the last few bytes with probability `runs`.
                if (i > 0 && rng.chance(runs)) {
                    size_t back = 1 + rng.pickIndex(std::min<size_t>(i, 9));
                    input[i] = input[i - back];
                } else {
                    input[i] = static_cast<uint8_t>(rng.next());
                }
            }
            Bytes compressed = codec::snappyCompress(Slice(input));
            auto got = codec::snappyDecompress(Slice(compressed));
            ASSERT_TRUE(got.isOk());
            EXPECT_EQ(got.value(), input);
            ASSERT_TRUE(
                agree(got, oracle::snappyDecompress(Slice(compressed))));
        }
    }
}

TEST(BitUnpackKernelTest, EveryWidthAndTailMatchesOracle)
{
    Rng rng(13);
    for (int width = 1; width <= 64; ++width) {
        const uint64_t mask =
            width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
        // Counts around one and two 8-byte words of packed bits.
        for (size_t count : {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 65, 129,
                             1000}) {
            Bytes buf;
            codec::BitPacker packer(buf, width);
            std::vector<uint64_t> values(count);
            for (auto &v : values) {
                v = rng.next() & mask;
                packer.put(v);
            }
            packer.flush();

            // Read in two calls so the second starts mid-byte.
            const size_t first = rng.pickIndex(count + 1);
            codec::BitUnpacker kernel(Slice(buf), width);
            std::vector<uint64_t> got(count);
            ASSERT_TRUE(kernel.getMany(first, got.data()).isOk());
            ASSERT_TRUE(
                kernel.getMany(count - first, got.data() + first).isOk());
            oracle::BitUnpacker ref(Slice(buf), width);
            std::vector<uint64_t> want;
            ASSERT_TRUE(ref.getMany(count, want).isOk());
            ASSERT_EQ(got, want) << "width " << width << " count " << count;
            ASSERT_EQ(got, values);

            // One value more than the buffer holds: both reject.
            const size_t over = buf.size() * 8 / width + 1;
            std::vector<uint64_t> sink(over);
            EXPECT_EQ(codec::BitUnpacker(Slice(buf), width)
                          .getMany(over, sink.data())
                          .code(),
                      StatusCode::kCorruption);
            std::vector<uint64_t> ref_sink;
            EXPECT_EQ(oracle::BitUnpacker(Slice(buf), width)
                          .getMany(over, ref_sink)
                          .code(),
                      StatusCode::kCorruption);
        }
    }
}

TEST(RleKernelTest, EveryWidthMatchesOracle)
{
    Rng rng(14);
    for (int width = 0; width <= 32; ++width) {
        const uint64_t mask =
            width == 0 ? 0 : (uint64_t{1} << width) - 1;
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<uint64_t> values;
            const size_t n = rng.pickIndex(3000);
            while (values.size() < n) {
                uint64_t v = rng.next() & mask;
                size_t run = rng.chance(0.3) ? rng.pickIndex(40) + 1 : 1;
                values.insert(values.end(), run, v);
            }
            Bytes encoded = codec::rleEncode(values, width);
            auto got = codec::rleDecode(Slice(encoded), width, values.size());
            ASSERT_TRUE(got.isOk()) << got.status().toString();
            ASSERT_EQ(got.value(), values);
            ASSERT_TRUE(agree(
                got, oracle::rleDecode(Slice(encoded), width, values.size())));
            if (encoded.empty())
                continue;
            const auto cut_at = static_cast<std::ptrdiff_t>(
                rng.pickIndex(encoded.size()));
            Bytes truncated(encoded.begin(), encoded.begin() + cut_at);
            ASSERT_TRUE(agree(
                codec::rleDecode(Slice(truncated), width, values.size()),
                oracle::rleDecode(Slice(truncated), width, values.size())));
            Bytes corrupt = flipOneByte(encoded, rng);
            ASSERT_TRUE(agree(
                codec::rleDecode(Slice(corrupt), width, values.size()),
                oracle::rleDecode(Slice(corrupt), width, values.size())));
        }
    }
}

ColumnData
randomColumn(PhysicalType type, size_t n, size_t distinct, Rng &rng)
{
    ColumnData col(type);
    for (size_t i = 0; i < n; ++i) {
        int64_t k = static_cast<int64_t>(rng.pickIndex(distinct));
        switch (type) {
          case PhysicalType::kInt32:
            col.append(static_cast<int32_t>(k * 7919 - 1000));
            break;
          case PhysicalType::kInt64: col.append(k * 1'000'003 - 5); break;
          case PhysicalType::kDouble:
            col.append(0.25 * static_cast<double>(k));
            break;
          case PhysicalType::kString:
            col.append(std::string(static_cast<size_t>(k % 23), 'a') +
                       std::to_string(k));
            break;
        }
    }
    return col;
}

TEST(PlainPageKernelTest, EveryTypeMatchesOracle)
{
    Rng rng(15);
    for (PhysicalType type : {PhysicalType::kInt32, PhysicalType::kInt64,
                              PhysicalType::kDouble, PhysicalType::kString}) {
        for (size_t n : {0, 1, 2, 9, 1000}) {
            ColumnData col = randomColumn(type, n, 1'000'000, rng);
            Bytes plain = format::plainEncode(col);
            auto got = format::plainDecode(Slice(plain), type, n);
            ASSERT_TRUE(got.isOk());
            ASSERT_EQ(got.value(), col);
            ASSERT_TRUE(
                agree(got, oracle::plainDecode(Slice(plain), type, n)));
            if (plain.empty())
                continue;
            for (int cut = 0; cut < 4; ++cut) {
                Slice short_page(plain.data(), rng.pickIndex(plain.size()));
                ASSERT_FALSE(format::plainDecode(short_page, type, n).isOk());
                ASSERT_FALSE(oracle::plainDecode(short_page, type, n).isOk());
            }
        }
    }
}

TEST(ChunkDecodeKernelTest, EncodedChunksMatchOracleAndSurviveFlips)
{
    Rng rng(16);
    for (PhysicalType type : {PhysicalType::kInt32, PhysicalType::kInt64,
                              PhysicalType::kDouble, PhysicalType::kString}) {
        for (size_t distinct : {1, 2, 40, 5000}) {
            for (size_t page : {7, 1000, 20000}) {
                ColumnData col = randomColumn(type, 3000, distinct, rng);
                format::ChunkEncodeOptions options;
                options.pageValueCount = page;
                Bytes chunk = format::encodeChunk(col, options).bytes;
                auto got = format::decodeChunk(Slice(chunk), type);
                ASSERT_TRUE(got.isOk()) << got.status().toString();
                ASSERT_EQ(got.value(), col);
                ASSERT_TRUE(
                    agree(got, oracle::decodeChunk(Slice(chunk), type)));
                for (int flip = 0; flip < 10; ++flip) {
                    Bytes corrupt = flipOneByte(chunk, rng);
                    ASSERT_TRUE(
                        agree(format::decodeChunk(Slice(corrupt), type),
                              oracle::decodeChunk(Slice(corrupt), type)));
                }
            }
        }
    }
}

TEST(ChunkDecodeKernelTest, LineitemAndTaxiChunksMatchOracle)
{
    for (const format::Table &table :
         {workload::makeLineitemTable(6000, 42),
          workload::makeTaxiTable(6000, 42)}) {
        for (size_t c = 0; c < table.numColumns(); ++c) {
            const ColumnData &col = table.column(c);
            Bytes chunk = format::encodeChunk(col, {}).bytes;
            auto got = format::decodeChunk(Slice(chunk), col.type());
            ASSERT_TRUE(got.isOk());
            ASSERT_EQ(got.value(), col);
            ASSERT_TRUE(
                agree(got, oracle::decodeChunk(Slice(chunk), col.type())));
        }
    }
}

// ---------------------------------------------------------------------
// Thread pool: correctness and the simulator determinism contract.
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce)
{
    for (size_t threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        const size_t kCount = 10'000;
        // Test scaffolding counts raw visits, not instrumentation.
        // fusion-lint: allow(raw-atomic)
        std::vector<std::atomic<int>> hits(kCount);
        pool.parallelFor(0, kCount,
                         [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < kCount; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i;
        // Empty and single-index ranges.
        pool.parallelFor(5, 5, [](size_t) { FAIL(); });
        std::atomic<int> one{0}; // fusion-lint: allow(raw-atomic)
        pool.parallelFor(41, 42, [&](size_t i) {
            EXPECT_EQ(i, 41u);
            one.fetch_add(1);
        });
        EXPECT_EQ(one.load(), 1);
    }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    std::atomic<int> total{0}; // fusion-lint: allow(raw-atomic)
    pool.parallelFor(0, 8, [&](size_t) {
        // Nested call from a worker must degrade to serial, not hang.
        ThreadPool::shared().parallelFor(0, 16,
                                         [&](size_t) { total++; });
    });
    EXPECT_EQ(total.load(), 8 * 16);
}

struct DeterminismRun {
    std::vector<query::QueryResult> results;
    obs::MetricsSnapshot faults; // the store's fault.* counters
    double simSeconds = 0.0;
};

DeterminismRun
runWorkload(size_t threads)
{
    ThreadPool::setSharedThreads(threads);

    sim::ClusterConfig config;
    config.numNodes = 9;
    sim::Cluster cluster(config);
    store::FusionStore store(cluster, {});
    auto file = workload::buildLineitemFile(3000, 7);
    FUSION_CHECK(file.isOk());
    FUSION_CHECK(store.put("lineitem", file.value().bytes).isOk());

    // A node crashes mid-workload and comes back: exercises retry,
    // reconstruction and pushdown fallback under the thread pool.
    sim::FaultSchedule schedule;
    schedule.crashAt(0.01, 3).reviveAt(0.2, 3);
    sim::FaultInjector faults(cluster, schedule);
    faults.arm();

    const char *sqls[] = {
        "SELECT l_orderkey FROM lineitem WHERE l_quantity < 10",
        "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem "
        "WHERE l_discount < 0.05",
        "SELECT * FROM lineitem WHERE l_orderkey < 50",
        "SELECT l_comment FROM lineitem WHERE l_extendedprice < 15000",
    };
    DeterminismRun run;
    sim::SimEngine &engine = cluster.engine();
    std::vector<std::optional<Result<store::QueryOutcome>>> captured(
        std::size(sqls));
    for (size_t i = 0; i < std::size(sqls); ++i) {
        auto q = query::parseQuery(sqls[i]);
        FUSION_CHECK(q.isOk());
        engine.scheduleAt(0.02 * static_cast<double>(i),
                          [&store, &captured, i, q]() {
                              store.queryAsync(
                                  q.value(),
                                  [&captured,
                                   i](Result<store::QueryOutcome> o) {
                                      captured[i].emplace(std::move(o));
                                  });
                          });
    }
    engine.run();
    for (auto &outcome : captured) {
        FUSION_CHECK(outcome.has_value());
        FUSION_CHECK(outcome->isOk());
        run.results.push_back(outcome->value().result);
    }
    run.faults = testutil::faultCounters(store);
    run.simSeconds = engine.now();
    ThreadPool::setSharedThreads(1);
    return run;
}

// Acceptance: repeated runs with FUSION_THREADS > 1 leave all
// simulated-time query results and fault.* counters bit-identical
// to the single-threaded run.
TEST(ThreadPoolTest, MultiThreadedStoreRunIsBitIdenticalToSerial)
{
    DeterminismRun serial = runWorkload(1);
    for (size_t threads : {2, 4}) {
        DeterminismRun pooled = runWorkload(threads);
        ASSERT_EQ(pooled.results.size(), serial.results.size());
        for (size_t i = 0; i < serial.results.size(); ++i) {
            const query::QueryResult &a = serial.results[i];
            const query::QueryResult &b = pooled.results[i];
            EXPECT_EQ(a.rowsMatched, b.rowsMatched);
            ASSERT_EQ(a.columns.size(), b.columns.size());
            for (size_t c = 0; c < a.columns.size(); ++c) {
                EXPECT_EQ(a.columns[c].isAggregate,
                          b.columns[c].isAggregate);
                if (a.columns[c].isAggregate)
                    EXPECT_EQ(a.columns[c].aggregateValue,
                              b.columns[c].aggregateValue);
                else
                    EXPECT_TRUE(a.columns[c].values ==
                                b.columns[c].values);
            }
        }
        EXPECT_TRUE(pooled.faults == serial.faults)
            << "threads=" << threads;
        EXPECT_EQ(pooled.simSeconds, serial.simSeconds);
    }
}

// Put must place bit-identical blocks for any thread count: the same
// object stored under different FUSION_THREADS reads back identically
// and node-by-node storage matches.
TEST(ThreadPoolTest, ParallelIngestPlacesIdenticalBlocks)
{
    auto file = workload::buildLineitemFile(2000, 3);
    ASSERT_TRUE(file.isOk());

    auto ingest = [&](size_t threads) {
        ThreadPool::setSharedThreads(threads);
        sim::ClusterConfig config;
        config.numNodes = 9;
        auto cluster = std::make_unique<sim::Cluster>(config);
        auto store = std::make_unique<store::FusionStore>(
            *cluster, store::StoreOptions{});
        FUSION_CHECK(store->put("obj", file.value().bytes).isOk());
        std::vector<uint64_t> per_node;
        for (size_t i = 0; i < cluster->numNodes(); ++i)
            per_node.push_back(cluster->node(i).storedBytes());
        auto back = store->get("obj");
        FUSION_CHECK(back.isOk());
        ThreadPool::setSharedThreads(1);
        return std::make_pair(per_node, back.value());
    };
    auto serial = ingest(1);
    auto pooled = ingest(4);
    EXPECT_EQ(serial.first, pooled.first);
    EXPECT_EQ(serial.second, pooled.second);
    EXPECT_EQ(pooled.second, file.value().bytes);
}

} // namespace
} // namespace fusion
