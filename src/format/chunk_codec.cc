#include "chunk_codec.h"

#include <algorithm>
#include <cstring>
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

// Makes room for `n` more values in one allocation, growing at least
// geometrically so a chunk of many pages still copies each value O(1)
// times. Callers bound `n` by validated counts first.
template <typename T>
void
reserveMore(std::vector<T> &values, size_t n)
{
    if (values.capacity() - values.size() < n)
        values.reserve(std::max(values.size() + n, 2 * values.capacity()));
}

// Plain-decodes `count` fixed-width values: one length check, one copy.
// Bytes past the last value are ignored, as for every plain page.
template <typename T>
Status
plainDecodeFixed(Slice page, size_t count, std::vector<T> &out)
{
    if (page.size() / sizeof(T) < count)
        return Status::corruption("plain page truncated");
    const size_t at = out.size();
    out.resize(at + count);
    if (count > 0)
        std::memcpy(out.data() + at, page.data(), count * sizeof(T));
    return Status::ok();
}

// Plain-decodes `count` strings, each a u32 length then its bytes, with
// a pointer walk into storage reserved up front.
Status
plainDecodeStrings(Slice page, size_t count, std::vector<std::string> &out)
{
    // Every string costs at least its 4-byte length, which bounds
    // `count` by the page before anything is allocated.
    if (page.size() / 4 < count)
        return Status::corruption("plain page truncated");
    reserveMore(out, count);
    const uint8_t *p = page.data();
    const uint8_t *const end = p + page.size();
    for (size_t i = 0; i < count; ++i) {
        if (end - p < 4)
            return Status::corruption("plain page truncated");
        const uint32_t len = loadUnaligned<uint32_t>(p);
        p += 4;
        if (static_cast<size_t>(end - p) < len)
            return Status::corruption("plain page truncated");
        out.emplace_back(reinterpret_cast<const char *>(p), len);
        p += len;
    }
    return Status::ok();
}

Status
plainDecodeInto(Slice page, PhysicalType type, size_t count, ColumnData &out)
{
    switch (type) {
      case PhysicalType::kInt32:
        return plainDecodeFixed(page, count, out.sink<int32_t>());
      case PhysicalType::kInt64:
        return plainDecodeFixed(page, count, out.sink<int64_t>());
      case PhysicalType::kDouble:
        return plainDecodeFixed(page, count, out.sink<double>());
      case PhysicalType::kString:
        return plainDecodeStrings(page, count, out.sink<std::string>());
    }
    return Status::invalidArgument("unknown physical type");
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

// Codes unpacked per step of a bit-packed run: a stack buffer that
// stays in L1 between the unpack and the gather.
constexpr size_t kCodeBatch = 256;

// Decodes one RLE/bit-packed page of `count` codes straight into `out`
// through the dictionary. An RLE run checks its one code and fills in
// bulk; a bit-packed run checks every code it unpacks.
template <typename T>
Status
gatherDictionaryPage(const std::vector<T> &dict, Slice rle, int width,
                     size_t count, std::vector<T> &out)
{
    const auto out_of_range = [] {
        return Status::corruption("dictionary code out of range");
    };
    reserveMore(out, count);
    codec::RleReader runs(rle, width, count);
    codec::RleRun run;
    uint64_t codes[kCodeBatch];
    while (runs.remaining() > 0) {
        FUSION_RETURN_IF_ERROR(runs.next(run));
        if (!run.packed) {
            if (run.value >= dict.size())
                return out_of_range();
            out.insert(out.end(), run.count, dict[run.value]);
            continue;
        }
        codec::BitUnpacker unpacker(run.bits, width);
        for (size_t done = 0; done < run.count;) {
            const size_t n = std::min(kCodeBatch, run.count - done);
            FUSION_RETURN_IF_ERROR(unpacker.getMany(n, codes));
            for (size_t i = 0; i < n; ++i) {
                if (codes[i] >= dict.size())
                    return out_of_range();
                out.push_back(dict[codes[i]]);
            }
            done += n;
        }
    }
    return Status::ok();
}

Status
gatherDictionaryPage(const ColumnData &dict, Slice rle, int width,
                     size_t count, ColumnData &out)
{
    switch (dict.type()) {
      case PhysicalType::kInt32:
        return gatherDictionaryPage(dict.int32s(), rle, width, count,
                                    out.sink<int32_t>());
      case PhysicalType::kInt64:
        return gatherDictionaryPage(dict.int64s(), rle, width, count,
                                    out.sink<int64_t>());
      case PhysicalType::kDouble:
        return gatherDictionaryPage(dict.doubles(), rle, width, count,
                                    out.sink<double>());
      case PhysicalType::kString:
        return gatherDictionaryPage(dict.strings(), rle, width, count,
                                    out.sink<std::string>());
    }
    return Status::invalidArgument("unknown physical type");
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
    FUSION_RETURN_IF_ERROR(plainDecodeInto(bytes, type, count, out));
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
        result.plainSize = column.plainEncodedSize();
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

    ColumnData dict(type);
    uint8_t width = 0;
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
        FUSION_RETURN_IF_ERROR(plainDecodeInto(dict_plain.value(), type,
                                               dict_count.value(), dict));

        auto width_tag = reader.getU8();
        if (!width_tag.isOk())
            return width_tag.status();
        if (width_tag.value() > 32)
            return Status::corruption("bad dictionary code width");
        width = width_tag.value();
    }

    ColumnData out(type);
    auto num_pages = reader.getVarU64();
    if (!num_pages.isOk())
        return num_pages.status();
    uint64_t decoded = 0;
    for (uint64_t p = 0; p < num_pages.value(); ++p) {
        auto page_count = reader.getVarU64();
        if (!page_count.isOk())
            return page_count.status();
        // Every kernel below sizes its output from this count, so it is
        // bounded by the chunk's (already bounded) count first.
        if (page_count.value() > count.value() - decoded)
            return Status::corruption("page value count exceeds chunk");
        auto page = reader.getLengthPrefixed();
        if (!page.isOk())
            return page.status();
        auto body = codec::decompress(compression, page.value());
        if (!body.isOk())
            return body.status();
        FUSION_RETURN_IF_ERROR(
            encoding == ChunkEncoding::kDictionary
                ? gatherDictionaryPage(dict, body.value(), width,
                                       page_count.value(), out)
                : plainDecodeInto(body.value(), type, page_count.value(),
                                  out));
        decoded += page_count.value();
    }
    if (decoded != count.value())
        return Status::corruption("chunk value count mismatch");
    return out;
}

} // namespace fusion::format
