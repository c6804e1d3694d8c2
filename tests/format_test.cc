/**
 * @file
 * Unit tests for src/format: values, columns, chunk codec, writer and
 * reader, footer statistics and corruption handling.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "codec/rle.h"
#include "common/random.h"
#include "common/serde.h"
#include "format/chunk_codec.h"
#include "format/column.h"
#include "format/metadata.h"
#include "format/reader.h"
#include "format/value.h"
#include "format/writer.h"

namespace fusion::format {
namespace {

TEST(ValueTest, TypeAndAccessors)
{
    EXPECT_EQ(Value::ofInt32(3).type(), PhysicalType::kInt32);
    EXPECT_EQ(Value::ofInt64(3).type(), PhysicalType::kInt64);
    EXPECT_EQ(Value::ofDouble(3.0).type(), PhysicalType::kDouble);
    EXPECT_EQ(Value::ofString("x").type(), PhysicalType::kString);
    EXPECT_EQ(Value::ofInt32(-7).asInt32(), -7);
    EXPECT_EQ(Value::ofString("hi").asString(), "hi");
}

TEST(ValueTest, NumericCrossTypeComparison)
{
    EXPECT_TRUE(Value::ofInt32(3) < Value::ofInt64(4));
    EXPECT_TRUE(Value::ofInt64(5) > Value::ofDouble(4.5));
    EXPECT_TRUE(Value::ofInt32(7) == Value::ofDouble(7.0));
}

TEST(ValueTest, StringComparison)
{
    EXPECT_TRUE(Value::ofString("apple") < Value::ofString("banana"));
    EXPECT_TRUE(Value::ofString("b") == Value::ofString("b"));
}

TEST(ValueTest, SerdeRoundTrip)
{
    std::vector<Value> values = {Value::ofInt32(-5), Value::ofInt64(1LL << 40),
                                 Value::ofDouble(2.5),
                                 Value::ofString("fusion")};
    Bytes buf;
    BinaryWriter w(buf);
    for (const auto &v : values)
        v.serialize(w);
    BinaryReader r{Slice(buf)};
    for (const auto &v : values) {
        auto got = Value::deserialize(r);
        ASSERT_TRUE(got.isOk());
        EXPECT_TRUE(got.value() == v);
    }
}

TEST(ColumnDataTest, TypedAppendAndBoxing)
{
    ColumnData col(PhysicalType::kDouble);
    col.append(1.5);
    col.append(2.5);
    EXPECT_EQ(col.size(), 2u);
    EXPECT_TRUE(col.valueAt(1) == Value::ofDouble(2.5));
    col.appendValue(Value::ofDouble(3.5));
    EXPECT_EQ(col.doubles().back(), 3.5);
}

/** `n` rows of `type` cycling through `cardinality` distinct values;
 *  distinct value 0 of a string column is the empty string. */
ColumnData
makeCyclicColumn(PhysicalType type, size_t n, size_t cardinality)
{
    ColumnData col(type);
    for (size_t i = 0; i < n; ++i) {
        const auto j = static_cast<int64_t>(i % cardinality);
        switch (type) {
          case PhysicalType::kInt32:
            col.append(static_cast<int32_t>(j - 7));
            break;
          case PhysicalType::kInt64: col.append((j << 33) - 5); break;
          case PhysicalType::kDouble:
            col.append(static_cast<double>(j) * 0.5 - 3.0);
            break;
          case PhysicalType::kString:
            col.append(j == 0 ? std::string() : std::to_string(j) + "v");
            break;
        }
    }
    return col;
}

constexpr PhysicalType kAllPhysicalTypes[] = {
    PhysicalType::kInt32, PhysicalType::kInt64, PhysicalType::kDouble,
    PhysicalType::kString};

TEST(ColumnDataTest, BulkAppendMatchesBoxedAppendForEveryType)
{
    for (PhysicalType type : kAllPhysicalTypes) {
        ColumnData head = makeCyclicColumn(type, 5, 3);
        const ColumnData tail = makeCyclicColumn(type, 9, 4);
        ColumnData boxed = head;
        for (size_t i = 0; i < tail.size(); ++i)
            boxed.appendValue(tail.valueAt(i));
        head.append(tail);
        EXPECT_TRUE(head == boxed) << physicalTypeName(type);
        EXPECT_EQ(head.size(), 14u);

        ColumnData ranged = makeCyclicColumn(type, 5, 3);
        ColumnData boxed_range = ranged;
        for (size_t i = 2; i < 7; ++i)
            boxed_range.appendValue(tail.valueAt(i));
        ranged.appendRange(tail, 2, 7);
        EXPECT_TRUE(ranged == boxed_range) << physicalTypeName(type);

        ColumnData empty(type);
        empty.append(ColumnData(type));
        EXPECT_TRUE(empty.empty()) << physicalTypeName(type);
    }
}

TEST(ColumnDataTest, PlainEncodedSizeIsExact)
{
    for (PhysicalType type : kAllPhysicalTypes) {
        for (size_t n : {0, 1, 37}) {
            ColumnData col = makeCyclicColumn(type, n, 5);
            EXPECT_EQ(col.plainEncodedSize(), plainEncode(col).size())
                << physicalTypeName(type) << " n=" << n;
        }
    }
}

TEST(TableTest, ValidateCatchesRaggedColumns)
{
    Schema schema({{"a", PhysicalType::kInt64, LogicalType::kNone},
                   {"b", PhysicalType::kInt64, LogicalType::kNone}});
    Table t(schema);
    t.column(0).append(int64_t{1});
    t.column(0).append(int64_t{2});
    t.column(1).append(int64_t{1});
    EXPECT_FALSE(t.validate().isOk());
    t.column(1).append(int64_t{2});
    EXPECT_TRUE(t.validate().isOk());
}

TEST(SchemaTest, ColumnIndexLookup)
{
    Schema schema({{"x", PhysicalType::kInt32, LogicalType::kNone},
                   {"y", PhysicalType::kString, LogicalType::kNone}});
    EXPECT_EQ(schema.columnIndex("y").value(), 1u);
    EXPECT_EQ(schema.columnIndex("z").status().code(),
              StatusCode::kNotFound);
}

ColumnData
makeIntColumn(size_t n, int64_t cardinality, uint64_t seed)
{
    Rng rng(seed);
    ColumnData col(PhysicalType::kInt64);
    for (size_t i = 0; i < n; ++i)
        col.append(rng.uniformInt(0, cardinality - 1));
    return col;
}

ColumnData
makeStringColumn(size_t n, size_t len, uint64_t seed)
{
    Rng rng(seed);
    ColumnData col(PhysicalType::kString);
    for (size_t i = 0; i < n; ++i)
        col.append(randomString(rng, len));
    return col;
}

struct ChunkCase {
    const char *name;
    PhysicalType type;
    int64_t cardinality; // for int columns
    bool enableDict;
};

/** Test listings show the case name, not the struct's raw bytes. */
void
PrintTo(const ChunkCase &c, std::ostream *os)
{
    *os << c.name;
}

class ChunkRoundTrip : public ::testing::TestWithParam<ChunkCase>
{
};

TEST_P(ChunkRoundTrip, Exact)
{
    const auto &c = GetParam();
    ColumnData col = (c.type == PhysicalType::kString)
                         ? makeStringColumn(5000, 12, 17)
                         : makeIntColumn(5000, c.cardinality, 17);
    ChunkEncodeOptions options;
    options.enableDictionary = c.enableDict;
    EncodedChunk encoded = encodeChunk(col, options);
    EXPECT_EQ(encoded.valueCount, col.size());
    auto decoded = decodeChunk(Slice(encoded.bytes), col.type());
    ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
    EXPECT_TRUE(decoded.value() == col);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ChunkRoundTrip,
    ::testing::Values(
        ChunkCase{"lowCardinalityDict", PhysicalType::kInt64, 4, true},
        ChunkCase{"midCardinalityDict", PhysicalType::kInt64, 500, true},
        ChunkCase{"highCardinalityPlain", PhysicalType::kInt64, 1 << 30,
                  true},
        ChunkCase{"dictDisabled", PhysicalType::kInt64, 4, false},
        ChunkCase{"strings", PhysicalType::kString, 0, true}),
    [](const auto &info) { return info.param.name; });

TEST(ChunkCodecTest, LowCardinalityUsesDictionary)
{
    ColumnData col = makeIntColumn(10000, 3, 5);
    EncodedChunk encoded = encodeChunk(col, {});
    EXPECT_EQ(encoded.encoding, ChunkEncoding::kDictionary);
    // 10000 int64 values with 3 distinct values must compress massively.
    EXPECT_LT(encoded.bytes.size(), encoded.plainSize / 20);
}

TEST(ChunkCodecTest, HighCardinalityFallsBackToPlain)
{
    Rng rng(9);
    ColumnData col(PhysicalType::kInt64);
    for (int i = 0; i < 10000; ++i)
        col.append(static_cast<int64_t>(rng.next()));
    EncodedChunk encoded = encodeChunk(col, {});
    EXPECT_EQ(encoded.encoding, ChunkEncoding::kPlain);
}

TEST(ChunkCodecTest, MinMaxStats)
{
    ColumnData col(PhysicalType::kInt32);
    for (int32_t v : {5, -2, 17, 0, 9})
        col.append(v);
    EncodedChunk encoded = encodeChunk(col, {});
    EXPECT_TRUE(encoded.minValue == Value::ofInt32(-2));
    EXPECT_TRUE(encoded.maxValue == Value::ofInt32(17));
}

TEST(ChunkCodecTest, PlainEncodeDecodeAllTypes)
{
    for (PhysicalType t :
         {PhysicalType::kInt32, PhysicalType::kInt64, PhysicalType::kDouble,
          PhysicalType::kString}) {
        ColumnData col(t);
        for (int i = 0; i < 100; ++i) {
            switch (t) {
              case PhysicalType::kInt32: col.append(int32_t(i - 50)); break;
              case PhysicalType::kInt64:
                col.append(int64_t(i) << 32);
                break;
              case PhysicalType::kDouble: col.append(i * 0.25); break;
              case PhysicalType::kString: {
                std::string s = "s";
                s += std::to_string(i);
                col.append(std::move(s));
                break;
              }
            }
        }
        Bytes plain = plainEncode(col);
        auto back = plainDecode(Slice(plain), t, col.size());
        ASSERT_TRUE(back.isOk());
        EXPECT_TRUE(back.value() == col);
    }
}

TEST(ChunkCodecTest, CorruptChunkIsDetected)
{
    ColumnData col = makeIntColumn(1000, 7, 3);
    EncodedChunk encoded = encodeChunk(col, {});
    Bytes corrupt = encoded.bytes;
    corrupt.resize(corrupt.size() / 2);
    EXPECT_FALSE(decodeChunk(Slice(corrupt), col.type()).isOk());
    Bytes bad_tag = encoded.bytes;
    bad_tag[0] = 0x7f;
    EXPECT_FALSE(decodeChunk(Slice(bad_tag), col.type()).isOk());
}

TEST(ChunkCodecTest, RoundTripPropertyPerPhysicalType)
{
    // With 100 values the default dictionary cut is 50 distinct values.
    struct Shape {
        size_t rows;
        size_t cardinality;
        ChunkEncoding want;
    };
    const Shape shapes[] = {
        {1, 1, ChunkEncoding::kPlain},         // one value
        {100, 1, ChunkEncoding::kDictionary},  // all values equal
        {100, 50, ChunkEncoding::kDictionary}, // at the cut
        {100, 51, ChunkEncoding::kPlain},      // just past it
    };
    for (PhysicalType type : kAllPhysicalTypes) {
        for (const Shape &shape : shapes) {
            ColumnData col =
                makeCyclicColumn(type, shape.rows, shape.cardinality);
            EncodedChunk encoded = encodeChunk(col, {});
            EXPECT_EQ(encoded.encoding, shape.want)
                << physicalTypeName(type) << " card=" << shape.cardinality;
            EXPECT_EQ(encoded.plainSize, col.plainEncodedSize());
            auto decoded = decodeChunk(Slice(encoded.bytes), type);
            ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
            EXPECT_TRUE(decoded.value() == col)
                << physicalTypeName(type) << " rows=" << shape.rows
                << " card=" << shape.cardinality;
        }
    }
}

TEST(ChunkCodecTest, TruncatedOrMistaggedReplyIsAnError)
{
    for (PhysicalType type : kAllPhysicalTypes) {
        for (size_t cardinality : {3, 400}) {
            ColumnData col = makeCyclicColumn(type, 400, cardinality);
            const Bytes wire = encodeChunk(col, {}).bytes;
            for (size_t len = 0; len < wire.size(); ++len)
                EXPECT_FALSE(
                    decodeChunk(Slice(wire.data(), len), type).isOk())
                    << physicalTypeName(type) << " prefix " << len << " of "
                    << wire.size();
            // The encoding byte: the other valid tag, then invalid ones.
            for (uint8_t tag : {uint8_t(wire[0] ^ 1), uint8_t(2),
                                uint8_t(0xff)}) {
                Bytes bad = wire;
                bad[0] = tag;
                EXPECT_FALSE(decodeChunk(Slice(bad), type).isOk())
                    << physicalTypeName(type) << " tag " << int(tag);
            }
        }
    }
}

TEST(ChunkCodecTest, PageCountBeyondChunkCountIsCorruption)
{
    // A ten-value chunk whose one page claims 2^40 values. The decoders
    // size their output from the page count, so an unchecked claim would
    // try to allocate terabytes instead of reporting corruption.
    const uint64_t kHugePage = uint64_t{1} << 40;
    for (ChunkEncoding encoding :
         {ChunkEncoding::kDictionary, ChunkEncoding::kPlain}) {
        Bytes chunk;
        BinaryWriter writer(chunk);
        writer.putU8(static_cast<uint8_t>(encoding));
        writer.putU8(static_cast<uint8_t>(codec::Compression::kNone));
        writer.putVarU64(10); // valueCount
        Bytes page;
        if (encoding == ChunkEncoding::kDictionary) {
            ColumnData dict(PhysicalType::kInt64);
            dict.append(int64_t{42});
            writer.putVarU64(1); // dictCount
            writer.putLengthPrefixed(plainEncode(dict));
            writer.putU8(0);                                   // code width
            page = codec::rleEncode(std::vector<uint64_t>(10, 0), 0);
        } else {
            page = plainEncode(makeIntColumn(10, 7, 3));
        }
        writer.putVarU64(1); // numDataPages
        writer.putVarU64(kHugePage);
        writer.putLengthPrefixed(page);

        auto decoded = decodeChunk(Slice(chunk), PhysicalType::kInt64);
        EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
            << "encoding " << static_cast<int>(encoding);
    }
}

Table
makeTestTable(size_t rows)
{
    Schema schema({{"id", PhysicalType::kInt64, LogicalType::kNone},
                   {"flag", PhysicalType::kString, LogicalType::kNone},
                   {"price", PhysicalType::kDouble, LogicalType::kNone},
                   {"day", PhysicalType::kInt32, LogicalType::kDate}});
    Table t(schema);
    Rng rng(21);
    const char *flags[] = {"A", "N", "R"};
    for (size_t i = 0; i < rows; ++i) {
        t.column(0).append(static_cast<int64_t>(i));
        t.column(1).append(std::string(flags[rng.uniformInt(0, 2)]));
        t.column(2).append(rng.uniformReal(1.0, 1000.0));
        t.column(3).append(static_cast<int32_t>(rng.uniformInt(0, 3650)));
    }
    return t;
}

TEST(WriterReaderTest, RoundTripWholeTable)
{
    Table t = makeTestTable(10000);
    WriterOptions options;
    options.rowGroupRows = 3000; // 4 row groups, last one short
    auto written = writeTable(t, options);
    ASSERT_TRUE(written.isOk());

    auto reader = FileReader::open(Slice(written.value().bytes));
    ASSERT_TRUE(reader.isOk()) << reader.status().toString();
    EXPECT_EQ(reader.value().metadata().numRows, 10000u);
    EXPECT_EQ(reader.value().metadata().numRowGroups(), 4u);
    EXPECT_EQ(reader.value().metadata().numChunks(), 16u);

    auto back = reader.value().readTable();
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value().numRows(), t.numRows());
    for (size_t c = 0; c < t.numColumns(); ++c)
        EXPECT_TRUE(back.value().column(c) == t.column(c));
}

TEST(WriterReaderTest, FooterMatchesWriterMetadata)
{
    Table t = makeTestTable(5000);
    auto written = writeTable(t, {});
    ASSERT_TRUE(written.isOk());
    auto reader = FileReader::open(Slice(written.value().bytes));
    ASSERT_TRUE(reader.isOk());

    const FileMetadata &wrote = written.value().metadata;
    const FileMetadata &read = reader.value().metadata();
    ASSERT_EQ(read.numRowGroups(), wrote.numRowGroups());
    for (size_t g = 0; g < read.numRowGroups(); ++g) {
        for (size_t c = 0; c < read.schema.numColumns(); ++c) {
            const ChunkMeta &a = wrote.chunk(g, c);
            const ChunkMeta &b = read.chunk(g, c);
            EXPECT_EQ(a.offset, b.offset);
            EXPECT_EQ(a.storedSize, b.storedSize);
            EXPECT_EQ(a.plainSize, b.plainSize);
            EXPECT_EQ(a.valueCount, b.valueCount);
            EXPECT_TRUE(a.minValue == b.minValue);
            EXPECT_TRUE(a.maxValue == b.maxValue);
        }
    }
}

TEST(WriterReaderTest, ChunkExtentsAreDisjointAndOrdered)
{
    Table t = makeTestTable(8000);
    WriterOptions options;
    options.rowGroupRows = 2000;
    auto written = writeTable(t, options);
    ASSERT_TRUE(written.isOk());
    auto chunks = written.value().metadata.allChunks();
    uint64_t cursor = sizeof(kFileMagic);
    for (const auto *chunk : chunks) {
        EXPECT_EQ(chunk->offset, cursor);
        cursor += chunk->storedSize;
    }
    EXPECT_LT(cursor, written.value().bytes.size());
}

TEST(WriterReaderTest, SingleChunkDecode)
{
    Table t = makeTestTable(4000);
    WriterOptions options;
    options.rowGroupRows = 1000;
    auto written = writeTable(t, options);
    ASSERT_TRUE(written.isOk());
    auto reader = FileReader::open(Slice(written.value().bytes));
    ASSERT_TRUE(reader.isOk());

    auto chunk = reader.value().readChunk(2, 1); // row group 2, "flag"
    ASSERT_TRUE(chunk.isOk());
    EXPECT_EQ(chunk.value().size(), 1000u);
    for (size_t i = 0; i < 1000; ++i)
        EXPECT_EQ(chunk.value().strings()[i], t.column(1).strings()[2000 + i]);
}

TEST(WriterReaderTest, ZoneMapsBoundRowGroupValues)
{
    Table t = makeTestTable(6000);
    WriterOptions options;
    options.rowGroupRows = 1500;
    auto written = writeTable(t, options);
    ASSERT_TRUE(written.isOk());
    const auto &meta = written.value().metadata;
    for (size_t g = 0; g < meta.numRowGroups(); ++g) {
        const ChunkMeta &id_chunk = meta.chunk(g, 0);
        EXPECT_TRUE(id_chunk.minValue ==
                    Value::ofInt64(static_cast<int64_t>(g * 1500)));
        EXPECT_TRUE(id_chunk.maxValue ==
                    Value::ofInt64(static_cast<int64_t>(g * 1500 + 1499)));
    }
}

TEST(WriterReaderTest, EmptyTableRejected)
{
    Schema schema({{"a", PhysicalType::kInt64, LogicalType::kNone}});
    Table t(schema);
    EXPECT_EQ(writeTable(t, {}).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(WriterReaderTest, CorruptMagicRejected)
{
    Table t = makeTestTable(100);
    auto written = writeTable(t, {});
    ASSERT_TRUE(written.isOk());
    Bytes bad = written.value().bytes;
    bad[0] = 'X';
    EXPECT_EQ(FileReader::open(Slice(bad)).status().code(),
              StatusCode::kCorruption);
}

TEST(WriterReaderTest, TruncatedFileRejected)
{
    Table t = makeTestTable(100);
    auto written = writeTable(t, {});
    ASSERT_TRUE(written.isOk());
    Bytes bad = written.value().bytes;
    bad.resize(bad.size() - 3);
    EXPECT_EQ(FileReader::open(Slice(bad)).status().code(),
              StatusCode::kCorruption);
}

TEST(WriterReaderTest, CompressibilityReflectsData)
{
    // A 3-value string column compresses enormously; random doubles don't.
    Schema schema({{"flag", PhysicalType::kString, LogicalType::kNone},
                   {"noise", PhysicalType::kDouble, LogicalType::kNone}});
    Table t(schema);
    Rng rng(31);
    for (int i = 0; i < 20000; ++i) {
        t.column(0).append(std::string(i % 3 == 0 ? "AAA" : "BBB"));
        t.column(1).append(rng.uniform());
    }
    auto written = writeTable(t, {});
    ASSERT_TRUE(written.isOk());
    const auto &meta = written.value().metadata;
    double flag_ratio = meta.chunk(0, 0).compressibility();
    double noise_ratio = meta.chunk(0, 1).compressibility();
    EXPECT_GT(flag_ratio, 20.0);
    EXPECT_LT(noise_ratio, 1.5);
}

TEST(MetadataTest, SerializeDeserializeRoundTrip)
{
    FileMetadata meta;
    meta.schema = Schema({{"c0", PhysicalType::kInt64, LogicalType::kNone},
                          {"c1", PhysicalType::kString,
                           LogicalType::kNone}});
    meta.numRows = 123;
    RowGroupMeta rg;
    rg.numRows = 123;
    ChunkMeta chunk;
    chunk.rowGroupId = 0;
    chunk.columnId = 0;
    chunk.offset = 8;
    chunk.storedSize = 100;
    chunk.plainSize = 400;
    chunk.valueCount = 123;
    chunk.encoding = ChunkEncoding::kDictionary;
    chunk.minValue = Value::ofInt64(1);
    chunk.maxValue = Value::ofInt64(99);
    rg.chunks.push_back(chunk);
    chunk.columnId = 1;
    chunk.minValue = Value::ofString("a");
    chunk.maxValue = Value::ofString("z");
    rg.chunks.push_back(chunk);
    meta.rowGroups.push_back(rg);

    Bytes buf = meta.serialize();
    auto back = FileMetadata::deserialize(Slice(buf));
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_TRUE(back.value().schema == meta.schema);
    EXPECT_EQ(back.value().numRows, 123u);
    ASSERT_EQ(back.value().numChunks(), 2u);
    EXPECT_EQ(back.value().chunk(0, 0).plainSize, 400u);
    EXPECT_TRUE(back.value().chunk(0, 1).maxValue == Value::ofString("z"));
}

TEST(MetadataTest, CompressibilityFormula)
{
    ChunkMeta meta;
    meta.plainSize = 900;
    meta.storedSize = 100;
    EXPECT_DOUBLE_EQ(meta.compressibility(), 9.0);
    meta.storedSize = 0;
    EXPECT_DOUBLE_EQ(meta.compressibility(), 1.0);
}


TEST(WriterReaderTest, ReadColumnsProjectsSubset)
{
    Table t = makeTestTable(3000);
    WriterOptions options;
    options.rowGroupRows = 1000;
    auto written = writeTable(t, options);
    ASSERT_TRUE(written.isOk());
    auto reader = FileReader::open(Slice(written.value().bytes));
    ASSERT_TRUE(reader.isOk());

    auto projected = reader.value().readColumns({"price", "id"});
    ASSERT_TRUE(projected.isOk()) << projected.status().toString();
    ASSERT_EQ(projected.value().numColumns(), 2u);
    EXPECT_EQ(projected.value().schema().column(0).name, "price");
    EXPECT_EQ(projected.value().schema().column(1).name, "id");
    EXPECT_TRUE(projected.value().column(0) == t.column(2));
    EXPECT_TRUE(projected.value().column(1) == t.column(0));

    EXPECT_FALSE(reader.value().readColumns({"missing"}).isOk());
}

// Property: round trip holds across row-group sizes including 1 and
// sizes larger than the table.
class RowGroupSweep : public ::testing::TestWithParam<size_t>
{
};

TEST_P(RowGroupSweep, RoundTrip)
{
    Table t = makeTestTable(700);
    WriterOptions options;
    options.rowGroupRows = GetParam();
    auto written = writeTable(t, options);
    ASSERT_TRUE(written.isOk());
    auto reader = FileReader::open(Slice(written.value().bytes));
    ASSERT_TRUE(reader.isOk());
    auto back = reader.value().readTable();
    ASSERT_TRUE(back.isOk());
    for (size_t c = 0; c < t.numColumns(); ++c)
        EXPECT_TRUE(back.value().column(c) == t.column(c));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RowGroupSweep,
                         ::testing::Values(1, 7, 100, 699, 700, 10000));

// ---- extendFile: a file plus appended rows, encoding only the tail ----

/** 1-5 columns of random physical types. */
Schema
randomSchema(Rng &rng)
{
    const char *names[] = {"a", "b", "c", "d", "e"};
    std::vector<ColumnDesc> cols;
    const size_t n = static_cast<size_t>(rng.uniformInt(1, 5));
    for (size_t c = 0; c < n; ++c)
        cols.push_back({names[c], kAllPhysicalTypes[rng.pickIndex(4)],
                        LogicalType::kNone});
    return Schema(cols);
}

/** `rows` random rows; low-cardinality columns take the dictionary
 *  encoding, high-cardinality ones the plain encoding. */
Table
randomTable(const Schema &schema, size_t rows, Rng &rng)
{
    Table t(schema);
    for (size_t c = 0; c < schema.numColumns(); ++c) {
        const int64_t card = rng.chance(0.5) ? 4 : 1'000'000;
        for (size_t r = 0; r < rows; ++r) {
            const int64_t v = rng.uniformInt(0, card);
            switch (schema.column(c).physical) {
              case PhysicalType::kInt32:
                t.column(c).append(static_cast<int32_t>(v));
                break;
              case PhysicalType::kInt64: t.column(c).append(v * 7919); break;
              case PhysicalType::kDouble:
                t.column(c).append(static_cast<double>(v) * 0.25);
                break;
              case PhysicalType::kString:
                t.column(c).append(std::to_string(v) + "s");
                break;
            }
        }
    }
    return t;
}

Table
concatTables(const Table &a, const Table &b)
{
    Table out = a;
    for (size_t c = 0; c < out.numColumns(); ++c)
        out.column(c).append(b.column(c));
    return out;
}

/**
 * An fpax file whose row groups hold `group_rows` rows each — a layout
 * writeTable never produces. Each group is writeTable's encoding of its
 * own rows, rebased to its place in the file; group `reversed` stores
 * its chunks last column first.
 */
Bytes
writeGroups(const Table &t, const std::vector<size_t> &group_rows,
            size_t reversed = SIZE_MAX)
{
    FileMetadata meta;
    meta.schema = t.schema();
    meta.numRows = t.numRows();
    Bytes file(kFileMagic, kFileMagic + sizeof(kFileMagic));
    size_t begin = 0;
    for (size_t rows : group_rows) {
        WriterOptions options;
        options.rowGroupRows = rows;
        auto one = writeTable(t.sliceRows(begin, begin + rows), options);
        FUSION_CHECK(one.isOk());
        RowGroupMeta rg = one.value().metadata.rowGroups.at(0);
        std::vector<ChunkMeta *> order;
        for (ChunkMeta &chunk : rg.chunks)
            order.push_back(&chunk);
        if (meta.numRowGroups() == reversed)
            std::reverse(order.begin(), order.end());
        for (ChunkMeta *chunk_ptr : order) {
            ChunkMeta &chunk = *chunk_ptr;
            const auto from = one.value().bytes.begin() +
                              static_cast<ptrdiff_t>(chunk.offset);
            chunk.offset = file.size();
            chunk.rowGroupId = static_cast<uint32_t>(meta.numRowGroups());
            file.insert(file.end(), from,
                        from + static_cast<ptrdiff_t>(chunk.storedSize));
        }
        meta.rowGroups.push_back(std::move(rg));
        begin += rows;
    }
    FUSION_CHECK(begin == t.numRows());
    Bytes footer = meta.serialize();
    appendBytes(file, footer);
    BinaryWriter writer(file);
    writer.putU32(static_cast<uint32_t>(footer.size()));
    file.insert(file.end(), kFileEndMagic,
                kFileEndMagic + sizeof(kFileEndMagic));
    return file;
}

/** extendFile(base, appended) must equal writeTable(base ++ appended):
 *  bytes and footer. */
void
expectExtendMatchesRewrite(Slice base_file, const Table &base,
                           const Table &appended,
                           const WriterOptions &options)
{
    auto reader = FileReader::open(base_file);
    ASSERT_TRUE(reader.isOk());
    auto extended = extendFile(reader.value(), appended, options);
    ASSERT_TRUE(extended.isOk()) << extended.status().toString();
    auto want = writeTable(concatTables(base, appended), options);
    ASSERT_TRUE(want.isOk());
    EXPECT_TRUE(extended.value().bytes == want.value().bytes);
    EXPECT_TRUE(extended.value().metadata.serialize() ==
                want.value().metadata.serialize());
}

// Property: over random schemas of all four physical types, random
// rowGroupRows and random row counts, extending a file is byte-identical
// to rewriting the concatenated table — whatever shape the base has.
TEST(ExtendFileTest, MatchesWriteTableOfConcatenation)
{
    enum Shape { kMultiple, kPartial, kSingle, kSmall, kLargeAppend };
    Rng rng(2024);
    for (int trial = 0; trial < 60; ++trial) {
        const auto shape = static_cast<Shape>(trial % 5);
        const size_t group = static_cast<size_t>(rng.uniformInt(1, 40));
        const size_t part = static_cast<size_t>(rng.uniformInt(0, 39));
        const size_t groups = static_cast<size_t>(rng.uniformInt(2, 5));
        size_t base_rows = 0;
        size_t append_rows = static_cast<size_t>(rng.uniformInt(1, 30));
        switch (shape) {
          case kMultiple: base_rows = group * groups; break;
          case kPartial: base_rows = group * groups + 1 + part % group;
            break;
          case kSingle: base_rows = group; break;
          case kSmall: base_rows = 1 + part % group; break;
          case kLargeAppend:
            base_rows = group * groups + part % group + 1;
            append_rows = group * groups + part;
            break;
        }
        SCOPED_TRACE("trial " + std::to_string(trial) + ": group " +
                     std::to_string(group) + ", base " +
                     std::to_string(base_rows) + ", append " +
                     std::to_string(append_rows));
        const Schema schema = randomSchema(rng);
        const Table base = randomTable(schema, base_rows, rng);
        const Table appended = randomTable(schema, append_rows, rng);
        WriterOptions options;
        options.rowGroupRows = group;
        auto base_file = writeTable(base, options);
        ASSERT_TRUE(base_file.isOk());
        expectExtendMatchesRewrite(Slice(base_file.value().bytes), base,
                                   appended, options);
    }
}

TEST(ExtendFileTest, IrregularLeadingGroupsReencodeFromFirstIrregular)
{
    const Table rows = makeTestTable(128); // all four physical types
    const Table base = rows.sliceRows(0, 95);
    const Table appended = rows.sliceRows(95, 128);
    WriterOptions options;
    options.rowGroupRows = 20;
    // Groups 0-1 are full; group 2 is short, so groups 2-4 re-encode.
    const Bytes file = writeGroups(base, {20, 20, 10, 20, 25});
    expectExtendMatchesRewrite(Slice(file), base, appended, options);
    // A short first group leaves nothing to copy through.
    const Bytes short_first = writeGroups(base, {5, 20, 20, 20, 20, 10});
    expectExtendMatchesRewrite(Slice(short_first), base, appended, options);
    // Full groups out of writeTable's chunk order re-encode too.
    const Bytes reordered = writeGroups(base, {20, 20, 20, 20, 15}, 1);
    expectExtendMatchesRewrite(Slice(reordered), base, appended, options);

    // The copied prefix is the base's own bytes up to the short group.
    auto reader = FileReader::open(Slice(file));
    ASSERT_TRUE(reader.isOk());
    auto extended = extendFile(reader.value(), appended, options);
    ASSERT_TRUE(extended.isOk());
    const uint64_t prefix_end = reader.value().metadata().chunk(2, 0).offset;
    EXPECT_TRUE(std::equal(file.begin(),
                           file.begin() + static_cast<ptrdiff_t>(prefix_end),
                           extended.value().bytes.begin()));
}

TEST(ExtendFileTest, EmptyAppendReturnsTheBaseAndBadInputsFail)
{
    Table base = makeTestTable(120);
    WriterOptions options;
    options.rowGroupRows = 40;
    auto base_file = writeTable(base, options);
    ASSERT_TRUE(base_file.isOk());
    auto reader = FileReader::open(Slice(base_file.value().bytes));
    ASSERT_TRUE(reader.isOk());
    auto same = extendFile(reader.value(), Table(base.schema()), options);
    ASSERT_TRUE(same.isOk());
    EXPECT_TRUE(same.value().bytes == base_file.value().bytes);

    Rng rng(5);
    Schema other({{"x", PhysicalType::kInt32, LogicalType::kNone}});
    EXPECT_FALSE(
        extendFile(reader.value(), randomTable(other, 3, rng), options)
            .isOk());
    options.rowGroupRows = 0;
    EXPECT_FALSE(extendFile(reader.value(), base, options).isOk());
}

} // namespace
} // namespace fusion::format
