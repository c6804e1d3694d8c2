/**
 * @file
 * Corruption-robustness fuzzing: random byte flips, truncations and
 * garbage inputs against every decoder in the stack (snappy, RLE,
 * chunk, file footer, bitmap, metadata). Decoders must never crash or
 * hang — they either return an error or, rarely, a benign value.
 */
#include <gtest/gtest.h>

#include "codec/rle.h"
#include "codec/snappy.h"
#include "common/random.h"
#include "format/chunk_codec.h"
#include "format/metadata.h"
#include "format/reader.h"
#include "format/writer.h"
#include "query/bitmap.h"
#include "workload/lineitem.h"

namespace fusion {
namespace {

Bytes
flipBytes(const Bytes &input, Rng &rng, int flips)
{
    Bytes out = input;
    for (int i = 0; i < flips && !out.empty(); ++i)
        out[rng.pickIndex(out.size())] ^=
            static_cast<uint8_t>(1 + rng.uniformInt(0, 254));
    return out;
}

Bytes
randomGarbage(Rng &rng, size_t max_size)
{
    Bytes out(rng.pickIndex(max_size + 1));
    for (auto &b : out)
        b = static_cast<uint8_t>(rng.next());
    return out;
}

TEST(FuzzTest, SnappySurvivesCorruption)
{
    Rng rng(1);
    std::string payload;
    for (int i = 0; i < 500; ++i)
        payload += "chunk payload " + std::to_string(i % 17) + ";";
    Bytes compressed = codec::snappyCompress(Slice(payload));

    for (int trial = 0; trial < 300; ++trial) {
        Bytes corrupt = flipBytes(compressed, rng, 1 + trial % 5);
        auto result = codec::snappyDecompress(Slice(corrupt));
        if (result.isOk()) {
            // A lucky flip may still satisfy the format; output must
            // match the declared length at least.
            auto len = codec::snappyUncompressedLength(Slice(corrupt));
            ASSERT_TRUE(len.isOk());
            EXPECT_EQ(result.value().size(), len.value());
        }
    }
    for (int trial = 0; trial < 200; ++trial) {
        Bytes garbage = randomGarbage(rng, 512);
        (void)codec::snappyDecompress(Slice(garbage)); // must not crash
    }
}

TEST(FuzzTest, SnappySurvivesTruncation)
{
    std::string payload(10000, 'x');
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>('a' + i % 7);
    Bytes compressed = codec::snappyCompress(Slice(payload));
    for (size_t keep = 0; keep < compressed.size(); keep += 7) {
        Bytes truncated(compressed.begin(), compressed.begin() + keep);
        auto result = codec::snappyDecompress(Slice(truncated));
        EXPECT_FALSE(result.isOk());
    }
}

TEST(FuzzTest, RleSurvivesCorruption)
{
    Rng rng(2);
    std::vector<uint64_t> values;
    for (int i = 0; i < 4000; ++i)
        values.push_back((i / 37) % 11);
    Bytes encoded = codec::rleEncode(values, 4);

    for (int trial = 0; trial < 300; ++trial) {
        Bytes corrupt = flipBytes(encoded, rng, 1 + trial % 3);
        auto result = codec::rleDecode(Slice(corrupt), 4, values.size());
        if (result.isOk()) {
            EXPECT_EQ(result.value().size(), values.size());
        }
    }
    for (int trial = 0; trial < 200; ++trial) {
        Bytes garbage = randomGarbage(rng, 256);
        (void)codec::rleDecode(Slice(garbage), 4, 1000);
    }
}

TEST(FuzzTest, ChunkDecoderSurvivesCorruption)
{
    Rng rng(3);
    format::ColumnData column(format::PhysicalType::kInt64);
    for (int i = 0; i < 5000; ++i)
        column.append(static_cast<int64_t>(rng.uniformInt(0, 50)));
    format::EncodedChunk encoded = format::encodeChunk(column, {});

    for (int trial = 0; trial < 400; ++trial) {
        Bytes corrupt = flipBytes(encoded.bytes, rng, 1 + trial % 8);
        auto result =
            format::decodeChunk(Slice(corrupt), format::PhysicalType::kInt64);
        if (result.isOk()) {
            // Even a "successful" decode of corrupt data must keep the
            // declared value count.
            EXPECT_EQ(result.value().size(), column.size());
        }
    }
}

TEST(FuzzTest, FileReaderSurvivesCorruption)
{
    auto file = workload::buildLineitemFile(500, 1);
    ASSERT_TRUE(file.isOk());
    Rng rng(4);

    for (int trial = 0; trial < 200; ++trial) {
        Bytes corrupt = flipBytes(file.value().bytes, rng, 1 + trial % 4);
        auto reader = format::FileReader::open(Slice(corrupt));
        if (!reader.isOk())
            continue;
        // Footer may have survived; decoding chunks must stay safe.
        for (size_t rg = 0; rg < reader.value().metadata().numRowGroups();
             ++rg) {
            for (size_t c = 0;
                 c < reader.value().metadata().schema.numColumns(); ++c) {
                (void)reader.value().readChunk(rg, c);
            }
        }
    }
    for (int trial = 0; trial < 100; ++trial) {
        Bytes garbage = randomGarbage(rng, 4096);
        EXPECT_FALSE(format::FileReader::open(Slice(garbage)).isOk());
    }
}

TEST(FuzzTest, FooterSurvivesCorruption)
{
    auto file = workload::buildLineitemFile(300, 2);
    ASSERT_TRUE(file.isOk());
    Bytes footer = file.value().metadata.serialize();
    Rng rng(5);
    for (int trial = 0; trial < 300; ++trial) {
        Bytes corrupt = flipBytes(footer, rng, 1 + trial % 6);
        (void)format::FileMetadata::deserialize(Slice(corrupt));
    }
    for (size_t keep = 0; keep < footer.size(); keep += 11) {
        Bytes truncated(footer.begin(), footer.begin() + keep);
        EXPECT_FALSE(
            format::FileMetadata::deserialize(Slice(truncated)).isOk());
    }
}

TEST(FuzzTest, BitmapSurvivesCorruption)
{
    query::Bitmap bitmap(1000);
    for (size_t i = 0; i < 1000; i += 3)
        bitmap.set(i);
    Bytes bytes = bitmap.toBytes();
    Rng rng(6);
    for (int trial = 0; trial < 200; ++trial) {
        Bytes corrupt = flipBytes(bytes, rng, 1 + trial % 3);
        auto result = query::Bitmap::fromBytes(Slice(corrupt));
        if (result.isOk()) {
            EXPECT_LE(result.value().count(), result.value().size());
        }
    }
}

// Property: whatever bytes a chunk is fed, decode + re-encode of a
// *valid* decode must round trip (no silent value corruption).
TEST(FuzzTest, ValidDecodesAreSelfConsistent)
{
    Rng rng(7);
    for (int trial = 0; trial < 30; ++trial) {
        format::ColumnData column(format::PhysicalType::kInt32);
        size_t n = 100 + rng.pickIndex(2000);
        for (size_t i = 0; i < n; ++i)
            column.append(
                static_cast<int32_t>(rng.uniformInt(-1000, 1000)));
        format::ChunkEncodeOptions options;
        options.pageValueCount = 64 + rng.pickIndex(512);
        format::EncodedChunk encoded = format::encodeChunk(column, options);
        auto decoded = format::decodeChunk(Slice(encoded.bytes),
                                           format::PhysicalType::kInt32);
        ASSERT_TRUE(decoded.isOk());
        ASSERT_TRUE(decoded.value() == column);
        format::EncodedChunk re =
            format::encodeChunk(decoded.value(), options);
        auto re_decoded = format::decodeChunk(Slice(re.bytes),
                                              format::PhysicalType::kInt32);
        ASSERT_TRUE(re_decoded.isOk());
        EXPECT_TRUE(re_decoded.value() == column);
    }
}

} // namespace
} // namespace fusion
