#include "chunk_codec.h"

#include <algorithm>
#include <string>
#include <type_traits>

#include "codec/bitpack.h"
#include "codec/dictionary.h"
#include "codec/rle.h"
#include "common/serde.h"

namespace fusion::format {

namespace {

using codec::Compression;

Bytes
plainEncodeInt32(const std::vector<int32_t> &v, size_t begin, size_t end)
{
    Bytes out;
    BinaryWriter writer(out);
    for (size_t i = begin; i < end; ++i)
        writer.putI32(v[i]);
    return out;
}

Bytes
plainEncodeInt64(const std::vector<int64_t> &v, size_t begin, size_t end)
{
    Bytes out;
    BinaryWriter writer(out);
    for (size_t i = begin; i < end; ++i)
        writer.putI64(v[i]);
    return out;
}

Bytes
plainEncodeDouble(const std::vector<double> &v, size_t begin, size_t end)
{
    Bytes out;
    BinaryWriter writer(out);
    for (size_t i = begin; i < end; ++i)
        writer.putDouble(v[i]);
    return out;
}

Bytes
plainEncodeString(const std::vector<std::string> &v, size_t begin, size_t end)
{
    // Parquet's BYTE_ARRAY plain encoding: 4-byte length + bytes. The
    // fixed prefix matters because plain size is the uncompressed wire
    // form whose ratio to stored size drives the Cost Equation.
    Bytes out;
    BinaryWriter writer(out);
    for (size_t i = begin; i < end; ++i) {
        writer.putU32(static_cast<uint32_t>(v[i].size()));
        writer.putRaw(Slice(v[i]));
    }
    return out;
}

Bytes
plainEncodeRange(const ColumnData &column, size_t begin, size_t end)
{
    switch (column.type()) {
      case PhysicalType::kInt32:
        return plainEncodeInt32(column.int32s(), begin, end);
      case PhysicalType::kInt64:
        return plainEncodeInt64(column.int64s(), begin, end);
      case PhysicalType::kDouble:
        return plainEncodeDouble(column.doubles(), begin, end);
      case PhysicalType::kString:
        return plainEncodeString(column.strings(), begin, end);
    }
    FUSION_CHECK(false);
    return {};
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

// Computes min/max over a column; column must be non-empty. Unboxed,
// with Value::compare's order: numbers compare as doubles.
void
computeMinMax(const ColumnData &column, Value &min_v, Value &max_v)
{
    FUSION_CHECK(!column.empty());
    auto run = [&](const auto &values) {
        using T = std::decay_t<decltype(values[0])>;
        auto less = [](const T &a, const T &b) {
            if constexpr (std::is_same_v<T, std::string>)
                return a.compare(b) < 0;
            else
                return static_cast<double>(a) < static_cast<double>(b);
        };
        size_t lo = 0, hi = 0;
        for (size_t i = 1; i < values.size(); ++i) {
            if (less(values[i], values[lo]))
                lo = i;
            if (less(values[hi], values[i]))
                hi = i;
        }
        min_v = Value(values[lo]);
        max_v = Value(values[hi]);
    };
    switch (column.type()) {
      case PhysicalType::kInt32: run(column.int32s()); break;
      case PhysicalType::kInt64: run(column.int64s()); break;
      case PhysicalType::kDouble: run(column.doubles()); break;
      case PhysicalType::kString: run(column.strings()); break;
    }
}

// Appends dict[code] for every code, unboxed.
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

// Dictionary-encodes a column into (dict column, codes). Returns false
// when the cardinality thresholds are exceeded and plain should be used.
bool
buildDictionary(const ColumnData &column, const ChunkEncodeOptions &options,
                ColumnData &dict_out, std::vector<uint64_t> &codes_out)
{
    size_t limit = std::min<size_t>(
        options.maxDictCardinality,
        static_cast<size_t>(options.dictMaxCardinalityRatio *
                            static_cast<double>(column.size())));
    if (limit == 0)
        return false;

    auto run = [&](const auto &values) -> bool {
        using T = std::decay_t<decltype(values[0])>;
        codec::DictionaryEncoder<T> enc;
        for (const auto &v : values) {
            enc.add(v);
            if (enc.cardinality() > limit)
                return false;
        }
        dict_out = ColumnData(column.type());
        for (const auto &v : enc.dictionary())
            dict_out.append(T(v));
        codes_out.assign(enc.codes().begin(), enc.codes().end());
        return true;
    };

    switch (column.type()) {
      case PhysicalType::kInt32: return run(column.int32s());
      case PhysicalType::kInt64: return run(column.int64s());
      case PhysicalType::kDouble: return run(column.doubles());
      case PhysicalType::kString: return run(column.strings());
    }
    return false;
}

} // namespace

Bytes
plainEncode(const ColumnData &column)
{
    return plainEncodeRange(column, 0, column.size());
}

Result<ColumnData>
plainDecode(Slice bytes, PhysicalType type, size_t count)
{
    ColumnData out(type);
    BinaryReader reader(bytes);
    FUSION_RETURN_IF_ERROR(plainDecodeInto(reader, type, count, out));
    return out;
}

EncodedChunk
encodeChunk(const ColumnData &column, const ChunkEncodeOptions &options)
{
    FUSION_CHECK_MSG(!column.empty(), "cannot encode an empty chunk");

    EncodedChunk result;
    result.valueCount = column.size();
    computeMinMax(column, result.minValue, result.maxValue);

    ColumnData dict;
    std::vector<uint64_t> codes;
    bool use_dict = options.enableDictionary &&
                    buildDictionary(column, options, dict, codes);

    if (options.enableBloomFilter) {
        // For dictionary chunks the dictionary IS the distinct-value
        // set; hashing it is cheaper and gives the same filter.
        const ColumnData &distinct = use_dict ? dict : column;
        result.bloom = BloomFilter(distinct.size());
        result.bloom.insertColumn(distinct);
    }
    result.encoding =
        use_dict ? ChunkEncoding::kDictionary : ChunkEncoding::kPlain;

    Bytes &out = result.bytes;
    BinaryWriter writer(out);
    writer.putU8(static_cast<uint8_t>(result.encoding));
    writer.putU8(static_cast<uint8_t>(options.compression));
    writer.putVarU64(column.size());

    size_t page_values = std::max<size_t>(1, options.pageValueCount);

    if (use_dict) {
        Bytes dict_plain = plainEncode(dict);
        Bytes dict_page = codec::compress(options.compression, dict_plain);
        writer.putVarU64(dict.size());
        writer.putLengthPrefixed(dict_page);

        int width = codec::bitWidthFor(dict.size() - 1);
        writer.putU8(static_cast<uint8_t>(width));

        size_t num_pages = (codes.size() + page_values - 1) / page_values;
        writer.putVarU64(num_pages);
        for (size_t p = 0; p < num_pages; ++p) {
            size_t begin = p * page_values;
            size_t end = std::min(codes.size(), begin + page_values);
            std::vector<uint64_t> page_codes(codes.begin() + begin,
                                             codes.begin() + end);
            Bytes rle = codec::rleEncode(page_codes, width);
            Bytes page = codec::compress(options.compression, rle);
            writer.putVarU64(end - begin);
            writer.putLengthPrefixed(page);
        }
        // The uncompressed form a projection would ship: plain values.
        result.plainSize = plainEncode(column).size();
    } else {
        size_t num_pages = (column.size() + page_values - 1) / page_values;
        writer.putVarU64(num_pages);
        uint64_t plain_total = 0;
        for (size_t p = 0; p < num_pages; ++p) {
            size_t begin = p * page_values;
            size_t end = std::min(column.size(), begin + page_values);
            Bytes plain = plainEncodeRange(column, begin, end);
            plain_total += plain.size();
            Bytes page = codec::compress(options.compression, plain);
            writer.putVarU64(end - begin);
            writer.putLengthPrefixed(page);
        }
        result.plainSize = plain_total;
    }
    return result;
}

Result<ColumnData>
decodeChunk(Slice bytes, PhysicalType type)
{
    BinaryReader reader(bytes);

    auto enc_tag = reader.getU8();
    if (!enc_tag.isOk())
        return enc_tag.status();
    if (enc_tag.value() > 1)
        return Status::corruption("bad chunk encoding tag");
    auto encoding = static_cast<ChunkEncoding>(enc_tag.value());

    auto comp_tag = reader.getU8();
    if (!comp_tag.isOk())
        return comp_tag.status();
    if (comp_tag.value() > 1)
        return Status::corruption("bad chunk compression tag");
    auto compression = static_cast<Compression>(comp_tag.value());

    auto count = reader.getVarU64();
    if (!count.isOk())
        return count.status();
    // Structural sanity bound so corrupt headers cannot trigger huge
    // allocations downstream.
    constexpr uint64_t kMaxChunkValues = 1ULL << 28;
    if (count.value() == 0 || count.value() > kMaxChunkValues)
        return Status::corruption("implausible chunk value count");

    ColumnData out(type);

    if (encoding == ChunkEncoding::kDictionary) {
        auto dict_count = reader.getVarU64();
        if (!dict_count.isOk())
            return dict_count.status();
        if (dict_count.value() == 0 ||
            dict_count.value() > count.value())
            return Status::corruption("implausible dictionary size");
        auto dict_page = reader.getLengthPrefixed();
        if (!dict_page.isOk())
            return dict_page.status();
        auto dict_plain = codec::decompress(compression, dict_page.value());
        if (!dict_plain.isOk())
            return dict_plain.status();
        auto dict = plainDecode(dict_plain.value(), type,
                                dict_count.value());
        if (!dict.isOk())
            return dict.status();

        auto width = reader.getU8();
        if (!width.isOk())
            return width.status();
        if (width.value() > 32)
            return Status::corruption("bad dictionary code width");

        auto num_pages = reader.getVarU64();
        if (!num_pages.isOk())
            return num_pages.status();
        uint64_t decoded = 0;
        for (uint64_t p = 0; p < num_pages.value(); ++p) {
            auto page_count = reader.getVarU64();
            if (!page_count.isOk())
                return page_count.status();
            auto page = reader.getLengthPrefixed();
            if (!page.isOk())
                return page.status();
            auto rle = codec::decompress(compression, page.value());
            if (!rle.isOk())
                return rle.status();
            auto codes = codec::rleDecode(rle.value(), width.value(),
                                          page_count.value());
            if (!codes.isOk())
                return codes.status();
            FUSION_RETURN_IF_ERROR(
                appendDictionaryValues(dict.value(), codes.value(), out));
            decoded += page_count.value();
        }
        if (decoded != count.value())
            return Status::corruption("chunk value count mismatch");
    } else {
        auto num_pages = reader.getVarU64();
        if (!num_pages.isOk())
            return num_pages.status();
        uint64_t decoded = 0;
        for (uint64_t p = 0; p < num_pages.value(); ++p) {
            auto page_count = reader.getVarU64();
            if (!page_count.isOk())
                return page_count.status();
            auto page = reader.getLengthPrefixed();
            if (!page.isOk())
                return page.status();
            auto plain = codec::decompress(compression, page.value());
            if (!plain.isOk())
                return plain.status();
            BinaryReader page_reader{Slice(plain.value())};
            FUSION_RETURN_IF_ERROR(plainDecodeInto(
                page_reader, type, page_count.value(), out));
            decoded += page_count.value();
        }
        if (decoded != count.value())
            return Status::corruption("chunk value count mismatch");
    }
    return out;
}

} // namespace fusion::format
