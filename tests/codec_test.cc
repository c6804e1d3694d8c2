/**
 * @file
 * Unit and property tests for src/codec: bit packing, RLE hybrid,
 * dictionary encoding and the Snappy codec.
 */
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "codec/bitpack.h"
#include "codec/codec.h"
#include "codec/dictionary.h"
#include "codec/rle.h"
#include "codec/snappy.h"
#include "common/random.h"
#include "common/serde.h"

namespace fusion::codec {
namespace {

TEST(BitWidthTest, Values)
{
    EXPECT_EQ(bitWidthFor(0), 0);
    EXPECT_EQ(bitWidthFor(1), 1);
    EXPECT_EQ(bitWidthFor(2), 2);
    EXPECT_EQ(bitWidthFor(3), 2);
    EXPECT_EQ(bitWidthFor(255), 8);
    EXPECT_EQ(bitWidthFor(256), 9);
    EXPECT_EQ(bitWidthFor(UINT64_MAX), 64);
}

class BitPackRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(BitPackRoundTrip, RandomValues)
{
    const int width = GetParam();
    Rng rng(1000 + width);
    std::vector<uint64_t> values;
    for (int i = 0; i < 1000; ++i) {
        uint64_t mask =
            (width == 64) ? ~0ULL : ((1ULL << width) - 1);
        values.push_back(rng.next() & mask);
    }

    Bytes buf;
    BitPacker packer(buf, width);
    for (uint64_t v : values)
        packer.put(v);
    packer.flush();

    EXPECT_EQ(buf.size(), (values.size() * width + 7) / 8);

    BitUnpacker unpacker(Slice(buf), width);
    std::vector<uint64_t> got(values.size());
    ASSERT_TRUE(unpacker.getMany(got.size(), got.data()).isOk());
    EXPECT_EQ(got, values);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitPackRoundTrip,
                         ::testing::Values(0, 1, 2, 3, 5, 7, 8, 9, 13, 16,
                                           24, 31, 33, 48, 63, 64));

TEST(BitPackTest, ExhaustedStreamIsCorruption)
{
    Bytes buf;
    BitPacker packer(buf, 8);
    packer.put(7);
    packer.flush();
    BitUnpacker unpacker(Slice(buf), 8);
    uint64_t v = 0;
    EXPECT_TRUE(unpacker.getMany(1, &v).isOk());
    EXPECT_EQ(v, 7u);
    EXPECT_EQ(unpacker.getMany(1, &v).code(), StatusCode::kCorruption);
}

struct RleCase {
    const char *name;
    std::vector<uint64_t> values;
    int width;
};

/** Test listings show the case name, not the struct's raw bytes. */
void
PrintTo(const RleCase &c, std::ostream *os)
{
    *os << c.name;
}

class RleRoundTrip : public ::testing::TestWithParam<RleCase>
{
};

TEST_P(RleRoundTrip, Exact)
{
    const auto &c = GetParam();
    Bytes encoded = rleEncode(c.values, c.width);
    auto decoded = rleDecode(Slice(encoded), c.width, c.values.size());
    ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
    EXPECT_EQ(decoded.value(), c.values);
}

std::vector<RleCase>
rleCases()
{
    std::vector<RleCase> cases;
    cases.push_back({"empty", {}, 4});
    cases.push_back({"single", {3}, 4});
    cases.push_back({"longRun", std::vector<uint64_t>(1000, 9), 4});
    {
        std::vector<uint64_t> alt;
        for (int i = 0; i < 999; ++i)
            alt.push_back(i % 2);
        cases.push_back({"alternating", alt, 1});
    }
    {
        std::vector<uint64_t> mixed;
        for (int r = 0; r < 10; ++r) {
            for (int i = 0; i < 50; ++i)
                mixed.push_back(r); // long runs
            for (int i = 0; i < 7; ++i)
                mixed.push_back(i); // short literals
        }
        cases.push_back({"mixedRunsAndLiterals", mixed, 8});
    }
    {
        Rng rng(77);
        std::vector<uint64_t> rnd;
        for (int i = 0; i < 5000; ++i)
            rnd.push_back(rng.next() & 0xffff);
        cases.push_back({"random16bit", rnd, 16});
    }
    cases.push_back({"allZerosWidthZero", std::vector<uint64_t>(100, 0), 0});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, RleRoundTrip, ::testing::ValuesIn(rleCases()),
                         [](const auto &info) { return info.param.name; });

TEST(RleTest, TruncatedStreamIsCorruption)
{
    std::vector<uint64_t> values(100, 5);
    Bytes encoded = rleEncode(values, 8);
    Bytes truncated(encoded.begin(), encoded.begin() + 1);
    EXPECT_EQ(rleDecode(Slice(truncated), 8, 100).status().code(),
              StatusCode::kCorruption);
}

TEST(RleTest, RunExceedingCountIsCorruption)
{
    // An RLE run of 100 when the decoder expects only 10 values.
    std::vector<uint64_t> values(100, 5);
    Bytes encoded = rleEncode(values, 8);
    EXPECT_EQ(rleDecode(Slice(encoded), 8, 10).status().code(),
              StatusCode::kCorruption);
}

TEST(DictionaryTest, CodesAndCardinality)
{
    DictionaryEncoder<std::string> enc;
    EXPECT_EQ(enc.add("a"), 0u);
    EXPECT_EQ(enc.add("b"), 1u);
    EXPECT_EQ(enc.add("a"), 0u);
    EXPECT_EQ(enc.add("c"), 2u);
    EXPECT_EQ(enc.cardinality(), 3u);
    EXPECT_EQ(enc.valueCount(), 4u);
    std::vector<std::string> expect_dict = {"a", "b", "c"};
    EXPECT_EQ(enc.dictionary(), expect_dict);
}

TEST(DictionaryTest, DecodeRoundTrip)
{
    DictionaryEncoder<int64_t> enc;
    std::vector<int64_t> input = {5, 5, -3, 9, 5, -3};
    for (int64_t v : input)
        enc.add(v);
    std::vector<uint64_t> codes(enc.codes().begin(), enc.codes().end());
    auto decoded = dictionaryDecode(enc.dictionary(), codes);
    ASSERT_TRUE(decoded.isOk());
    EXPECT_EQ(decoded.value(), input);
}

TEST(DictionaryTest, OutOfRangeCodeIsCorruption)
{
    std::vector<int64_t> dict = {1, 2};
    std::vector<uint64_t> codes = {0, 5};
    EXPECT_EQ(dictionaryDecode(dict, codes).status().code(),
              StatusCode::kCorruption);
}

Bytes
toBytes(const std::string &s)
{
    return Bytes(s.begin(), s.end());
}

struct SnappyCase {
    const char *name;
    Bytes input;
};

void
PrintTo(const SnappyCase &c, std::ostream *os)
{
    *os << c.name;
}

class SnappyRoundTrip : public ::testing::TestWithParam<SnappyCase>
{
};

TEST_P(SnappyRoundTrip, Exact)
{
    const Bytes &input = GetParam().input;
    Bytes compressed = snappyCompress(Slice(input));
    auto len = snappyUncompressedLength(Slice(compressed));
    ASSERT_TRUE(len.isOk());
    EXPECT_EQ(len.value(), input.size());
    auto decompressed = snappyDecompress(Slice(compressed));
    ASSERT_TRUE(decompressed.isOk()) << decompressed.status().toString();
    EXPECT_EQ(decompressed.value(), input);
}

std::vector<SnappyCase>
snappyCases()
{
    std::vector<SnappyCase> cases;
    cases.push_back({"empty", {}});
    cases.push_back({"tiny", toBytes("abc")});
    cases.push_back({"repetitive", toBytes(std::string(100000, 'z'))});
    {
        std::string s;
        for (int i = 0; i < 5000; ++i)
            s += "the quick brown fox jumps over the lazy dog. ";
        cases.push_back({"englishLoop", toBytes(s)});
    }
    {
        Rng rng(99);
        Bytes b(200000);
        for (auto &byte : b)
            byte = static_cast<uint8_t>(rng.next());
        cases.push_back({"incompressibleRandom", b});
    }
    {
        // Periodic pattern with period > 2048 to force 2-byte offsets.
        Bytes b;
        Rng rng(5);
        Bytes period(5000);
        for (auto &byte : period)
            byte = static_cast<uint8_t>(rng.uniformInt(0, 3));
        for (int rep = 0; rep < 40; ++rep)
            b.insert(b.end(), period.begin(), period.end());
        cases.push_back({"longPeriod", b});
    }
    {
        // > 64 KiB period to force 4-byte offsets.
        Bytes b;
        Rng rng(6);
        Bytes period(70000);
        for (auto &byte : period)
            byte = static_cast<uint8_t>(rng.next());
        for (int rep = 0; rep < 3; ++rep)
            b.insert(b.end(), period.begin(), period.end());
        cases.push_back({"hugePeriod", b});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, SnappyRoundTrip,
                         ::testing::ValuesIn(snappyCases()),
                         [](const auto &info) { return info.param.name; });

TEST(SnappyTest, CompressesRepetitiveData)
{
    Bytes input = toBytes(std::string(100000, 'q'));
    Bytes compressed = snappyCompress(Slice(input));
    // Copies are emitted in <= 64-byte pieces of 3 bytes each (as in
    // upstream Snappy), so constant input compresses about 21x.
    EXPECT_LT(compressed.size(), input.size() / 15);
}

TEST(SnappyTest, RandomDataExpandsOnlySlightly)
{
    Rng rng(123);
    Bytes input(100000);
    for (auto &b : input)
        b = static_cast<uint8_t>(rng.next());
    Bytes compressed = snappyCompress(Slice(input));
    EXPECT_LT(compressed.size(), input.size() + input.size() / 50 + 16);
}

TEST(SnappyTest, BadOffsetIsCorruption)
{
    Bytes stream;
    BinaryWriter w(stream);
    w.putVarU64(8);
    // Copy with 1-byte offset pointing before the start of output.
    stream.push_back(0x01); // tag: copy1, len 4, offset high bits 0
    stream.push_back(0x05); // offset 5 but output is empty
    EXPECT_EQ(snappyDecompress(Slice(stream)).status().code(),
              StatusCode::kCorruption);
}

TEST(SnappyTest, LengthMismatchIsCorruption)
{
    Bytes input = toBytes("hello world");
    Bytes compressed = snappyCompress(Slice(input));
    compressed[0] += 1; // claim one more byte than present
    EXPECT_EQ(snappyDecompress(Slice(compressed)).status().code(),
              StatusCode::kCorruption);
}

TEST(SnappyTest, TruncatedLiteralIsCorruption)
{
    Bytes input = toBytes("hello world, hello world");
    Bytes compressed = snappyCompress(Slice(input));
    Bytes truncated(compressed.begin(), compressed.begin() + 4);
    EXPECT_EQ(snappyDecompress(Slice(truncated)).status().code(),
              StatusCode::kCorruption);
}

class CompressionDispatch
    : public ::testing::TestWithParam<Compression>
{
};

TEST_P(CompressionDispatch, RoundTrip)
{
    std::string s;
    for (int i = 0; i < 1000; ++i)
        s += "payload-" + std::to_string(i % 13) + ";";
    Bytes input = toBytes(s);
    Bytes compressed = compress(GetParam(), Slice(input));
    auto back = decompress(GetParam(), Slice(compressed));
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), input);
}

INSTANTIATE_TEST_SUITE_P(Codecs, CompressionDispatch,
                         ::testing::Values(Compression::kNone,
                                           Compression::kSnappy));

TEST(CompressionTest, Names)
{
    EXPECT_STREQ(compressionName(Compression::kNone), "none");
    EXPECT_STREQ(compressionName(Compression::kSnappy), "snappy");
}

// Property sweep: snappy round-trips structured inputs of many sizes.
class SnappySizeSweep : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SnappySizeSweep, RoundTrip)
{
    Rng rng(GetParam());
    Bytes input(GetParam());
    // Mix of runs and noise, similar to encoded column pages.
    size_t i = 0;
    while (i < input.size()) {
        if (rng.chance(0.5)) {
            size_t run = std::min<size_t>(input.size() - i,
                                          rng.uniformInt(1, 100));
            uint8_t v = static_cast<uint8_t>(rng.next());
            for (size_t j = 0; j < run; ++j)
                input[i++] = v;
        } else {
            input[i++] = static_cast<uint8_t>(rng.next());
        }
    }
    auto back = snappyDecompress(Slice(snappyCompress(Slice(input))));
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SnappySizeSweep,
                         ::testing::Values(1, 2, 3, 15, 16, 17, 255, 256,
                                           4095, 65535, 65536, 1000000));

} // namespace
} // namespace fusion::codec
