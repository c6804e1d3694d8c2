#include "eval.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <string_view>

#include "codec/bitpack.h"
#include "codec/rle.h"

namespace fusion::query {

namespace {

using format::ColumnData;
using format::PhysicalType;
using format::Value;

bool
applyOp(int cmp, CompareOp op)
{
    switch (op) {
      case CompareOp::kLt: return cmp < 0;
      case CompareOp::kLe: return cmp <= 0;
      case CompareOp::kGt: return cmp > 0;
      case CompareOp::kGe: return cmp >= 0;
      case CompareOp::kEq: return cmp == 0;
      case CompareOp::kNe: return cmp != 0;
    }
    return false;
}

/**
 * Branch-free row verdict, specialized per CompareOp at compile time.
 * Expressed through the two strict comparisons so the semantics match
 * applyOp() over a three-way compare exactly — including NaN, where
 * both comparisons are false and the row therefore counts as "equal"
 * (kLe/kGe/kEq match, kLt/kGt/kNe do not), as the boxed reference
 * path has always behaved.
 */
template <CompareOp Op, typename T, typename L>
inline bool
rowVerdict(const T &v, const L &lit)
{
    bool lt = v < lit;
    bool gt = lit < v;
    if constexpr (Op == CompareOp::kLt)
        return lt;
    else if constexpr (Op == CompareOp::kLe)
        return !gt;
    else if constexpr (Op == CompareOp::kGt)
        return gt;
    else if constexpr (Op == CompareOp::kGe)
        return !lt;
    else if constexpr (Op == CompareOp::kEq)
        return !lt && !gt;
    else
        return lt || gt; // kNe
}

/**
 * Appends row verdicts in row order, up to 64 at a time, into bitmap
 * words: the sink every predicate kernel writes through, so a page or a
 * code run need not start on a word boundary.
 */
class VerdictWriter
{
  public:
    explicit VerdictWriter(size_t rows)
        : size_(rows), words_((rows + 63) / 64, 0)
    {
    }

    /** Appends the low `n` (<= 64) bits of `bits`; the rest are 0. */
    void
    push(uint64_t bits, size_t n)
    {
        if (n == 0)
            return;
        FUSION_CHECK(pos_ + n <= size_);
        const size_t shift = pos_ & 63;
        words_[pos_ >> 6] |= bits << shift;
        if (shift != 0 && shift + n > 64)
            words_[(pos_ >> 6) + 1] |= bits >> (64 - shift);
        pos_ += n;
    }

    /** Appends `n` copies of one verdict, a word at a time. */
    void
    fill(bool verdict, size_t n)
    {
        if (!verdict) {
            FUSION_CHECK(pos_ + n <= size_);
            pos_ += n;
            return;
        }
        while (n > 0) {
            const size_t k = std::min<size_t>(64 - (pos_ & 63), n);
            push(k == 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1, k);
            n -= k;
        }
    }

    Bitmap
    finish()
    {
        FUSION_CHECK(pos_ == size_);
        return Bitmap(size_, std::move(words_));
    }

  private:
    size_t size_;
    size_t pos_ = 0;
    std::vector<uint64_t> words_;
};

/**
 * Word-wise typed scan over rows at(0) .. at(n - 1), called in that
 * order: evaluates 64 rows into one bitmap word with no per-row branch
 * (the compiler auto-vectorizes the comparison loop for the numeric
 * instantiations), then writes the word in one store.
 */
template <CompareOp Op, typename At, typename L>
void
scanKernel(size_t n, At at, const L &literal, VerdictWriter &out)
{
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        uint64_t bits = 0;
        for (size_t b = 0; b < 64; ++b)
            bits |= static_cast<uint64_t>(rowVerdict<Op>(at(i + b), literal))
                    << b;
        out.push(bits, 64);
    }
    if (i < n) {
        uint64_t bits = 0;
        for (size_t b = 0; i + b < n; ++b)
            bits |= static_cast<uint64_t>(rowVerdict<Op>(at(i + b), literal))
                    << b;
        out.push(bits, n - i);
    }
}

// Hoists the op out of the row loop: one kernel instantiation per
// CompareOp x row source.
template <typename At, typename L>
void
scanTyped(size_t n, At at, CompareOp op, const L &literal,
          VerdictWriter &out)
{
    switch (op) {
      case CompareOp::kLt:
        scanKernel<CompareOp::kLt>(n, at, literal, out);
        break;
      case CompareOp::kLe:
        scanKernel<CompareOp::kLe>(n, at, literal, out);
        break;
      case CompareOp::kGt:
        scanKernel<CompareOp::kGt>(n, at, literal, out);
        break;
      case CompareOp::kGe:
        scanKernel<CompareOp::kGe>(n, at, literal, out);
        break;
      case CompareOp::kEq:
        scanKernel<CompareOp::kEq>(n, at, literal, out);
        break;
      case CompareOp::kNe:
        scanKernel<CompareOp::kNe>(n, at, literal, out);
        break;
    }
}

// Scans a typed value vector.
template <typename T, typename L>
void
scanValues(const std::vector<T> &values, CompareOp op, const L &literal,
           VerdictWriter &out)
{
    const T *v = values.data();
    scanTyped(
        values.size(), [v](size_t i) -> const T & { return v[i]; }, op,
        literal, out);
}

// Scans one plain page of an opened chunk in place: fixed-width values
// by offset (openChunk checked the length), strings by a pointer walk
// that reports a truncated page through `truncated`.
template <typename T, typename L>
void
scanPlainPage(const format::ChunkView::Page &page, CompareOp op,
              const L &literal, VerdictWriter &out, bool &truncated)
{
    if constexpr (!std::is_same_v<T, std::string>) {
        const uint8_t *p = page.body.data();
        scanTyped(
            page.count,
            [p](size_t i) { return loadUnaligned<T>(p + i * sizeof(T)); },
            op, literal, out);
    } else {
        format::PlainStringReader strings(page.body);
        scanTyped(
            page.count,
            [&](size_t) {
                std::string_view value;
                if (!truncated && !strings.next(value))
                    truncated = true;
                return value;
            },
            op, literal, out);
    }
}

// Code-form evaluation of a dictionary chunk: the predicate runs once
// per dictionary entry (evalPredicate over the dictionary) and each
// code run takes its entry's verdict, an RLE run in one fill, a
// bit-packed run 64 codes per word. Every code is range-checked.
Result<Bitmap>
evalDictionaryChunk(const format::ChunkView &chunk, CompareOp op,
                    const Value &literal)
{
    auto entries = evalPredicate(chunk.dictionary, op, literal);
    if (!entries.isOk())
        return entries.status();
    // One byte per entry: a code's verdict is one load, no shift.
    const uint64_t dict_size = chunk.dictionary.size();
    std::vector<uint8_t> verdicts(dict_size);
    for (uint64_t e = 0; e < dict_size; ++e)
        verdicts[e] = entries.value().test(e) ? 1 : 0;
    const auto out_of_range = [] {
        return Status::corruption("dictionary code out of range");
    };

    VerdictWriter out(chunk.valueCount);
    uint64_t codes[64];
    for (const format::ChunkView::Page &page : chunk.pages) {
        codec::RleReader runs(page.body, chunk.codeWidth, page.count);
        codec::RleRun run;
        while (runs.remaining() > 0) {
            FUSION_RETURN_IF_ERROR(runs.next(run));
            if (!run.packed) {
                if (run.value >= dict_size)
                    return out_of_range();
                out.fill(verdicts[run.value] != 0, run.count);
                continue;
            }
            codec::BitUnpacker unpacker(run.bits, chunk.codeWidth);
            for (size_t done = 0; done < run.count;) {
                const size_t n = std::min<size_t>(64, run.count - done);
                FUSION_RETURN_IF_ERROR(unpacker.getMany(n, codes));
                uint64_t top = 0;
                for (size_t b = 0; b < n; ++b)
                    top = std::max(top, codes[b]);
                if (top >= dict_size)
                    return out_of_range();
                uint64_t bits = 0;
                for (size_t b = 0; b < n; ++b)
                    bits |= uint64_t{verdicts[codes[b]]} << b;
                out.push(bits, n);
                done += n;
            }
        }
    }
    return out.finish();
}

bool
literalCompatible(PhysicalType column_type, PhysicalType literal_type)
{
    bool column_numeric = column_type != PhysicalType::kString;
    bool literal_numeric = literal_type != PhysicalType::kString;
    return column_numeric == literal_numeric;
}

} // namespace

bool
compareValues(const Value &lhs, CompareOp op, const Value &rhs)
{
    return applyOp(lhs.compare(rhs), op);
}

Result<Bitmap>
evalPredicate(const ColumnData &column, CompareOp op, const Value &literal)
{
    if (!literalCompatible(column.type(), literal.type()))
        return Status::invalidArgument(
            "predicate literal type incompatible with column type");

    VerdictWriter out(column.size());
    switch (column.type()) {
      case PhysicalType::kInt32:
        scanValues(column.int32s(), op, literal.numeric(), out);
        break;
      case PhysicalType::kInt64:
        scanValues(column.int64s(), op, literal.numeric(), out);
        break;
      case PhysicalType::kDouble:
        scanValues(column.doubles(), op, literal.numeric(), out);
        break;
      case PhysicalType::kString:
        scanValues(column.strings(), op, literal.asString(), out);
        break;
    }
    return out.finish();
}

Result<Bitmap>
evalPredicate(const format::ChunkView &chunk, CompareOp op,
              const Value &literal)
{
    if (!literalCompatible(chunk.type, literal.type()))
        return Status::invalidArgument(
            "predicate literal type incompatible with column type");
    if (chunk.encoding == format::ChunkEncoding::kDictionary)
        return evalDictionaryChunk(chunk, op, literal);

    VerdictWriter out(chunk.valueCount);
    bool truncated = false;
    const std::string_view text = chunk.type == PhysicalType::kString
                                      ? std::string_view(literal.asString())
                                      : std::string_view();
    for (const format::ChunkView::Page &page : chunk.pages) {
        switch (chunk.type) {
          case PhysicalType::kInt32:
            scanPlainPage<int32_t>(page, op, literal.numeric(), out,
                                   truncated);
            break;
          case PhysicalType::kInt64:
            scanPlainPage<int64_t>(page, op, literal.numeric(), out,
                                   truncated);
            break;
          case PhysicalType::kDouble:
            scanPlainPage<double>(page, op, literal.numeric(), out,
                                  truncated);
            break;
          case PhysicalType::kString:
            scanPlainPage<std::string>(page, op, text, out, truncated);
            break;
        }
        if (truncated)
            return Status::corruption("plain page truncated");
    }
    return out.finish();
}

Result<Bitmap>
evalPredicateReference(const ColumnData &column, CompareOp op,
                       const Value &literal)
{
    if (!literalCompatible(column.type(), literal.type()))
        return Status::invalidArgument(
            "predicate literal type incompatible with column type");
    Bitmap out(column.size());
    for (size_t i = 0; i < column.size(); ++i)
        if (compareValues(column.valueAt(i), op, literal))
            out.set(i);
    return out;
}

bool
zoneMapMayMatch(const format::ChunkMeta &meta, const Predicate &pred)
{
    const Value &min_v = meta.minValue;
    const Value &max_v = meta.maxValue;
    if (!literalCompatible(min_v.type(), pred.literal.type()))
        return true; // type confusion: be conservative, scan the chunk
    switch (pred.op) {
      case CompareOp::kLt: return compareValues(min_v, CompareOp::kLt,
                                                pred.literal);
      case CompareOp::kLe: return compareValues(min_v, CompareOp::kLe,
                                                pred.literal);
      case CompareOp::kGt: return compareValues(max_v, CompareOp::kGt,
                                                pred.literal);
      case CompareOp::kGe: return compareValues(max_v, CompareOp::kGe,
                                                pred.literal);
      case CompareOp::kEq:
        return compareValues(min_v, CompareOp::kLe, pred.literal) &&
               compareValues(max_v, CompareOp::kGe, pred.literal);
      case CompareOp::kNe:
        // Only an all-equal chunk matching the literal can be skipped.
        return !(min_v == max_v && min_v == pred.literal);
    }
    return true;
}

namespace {

/**
 * Converts an equality literal to the column's stored type when the
 * conversion is exact, so Bloom hashing (which is type-sensitive) sees
 * the same bytes the writer inserted. Returns nullopt when conversion
 * would be lossy or the types are incompatible.
 */
std::optional<Value>
normalizeLiteralForColumn(PhysicalType column_type, const Value &literal)
{
    if (literal.type() == column_type)
        return literal;
    if (column_type == PhysicalType::kString ||
        literal.type() == PhysicalType::kString)
        return std::nullopt;
    double v = literal.numeric();
    switch (column_type) {
      case PhysicalType::kInt32: {
        auto as_int = static_cast<int32_t>(v);
        if (static_cast<double>(as_int) == v)
            return Value(as_int);
        return std::nullopt;
      }
      case PhysicalType::kInt64: {
        auto as_int = static_cast<int64_t>(v);
        if (static_cast<double>(as_int) == v)
            return Value(as_int);
        return std::nullopt;
      }
      case PhysicalType::kDouble:
        return Value(v);
      case PhysicalType::kString:
        break;
    }
    return std::nullopt;
}

} // namespace

bool
chunkMayMatch(const format::ChunkMeta &meta, const Predicate &pred)
{
    if (!zoneMapMayMatch(meta, pred))
        return false;
    if (pred.op != CompareOp::kEq || meta.bloom.empty())
        return true;
    auto literal =
        normalizeLiteralForColumn(meta.minValue.type(), pred.literal);
    if (!literal.has_value())
        return true; // inexact conversion: cannot safely consult bloom
    return meta.bloom.mayContain(*literal);
}

namespace {

// Word-wise row gather: zero words are skipped in one test and set
// bits are enumerated with countr_zero instead of per-row test calls.
template <typename T, typename Append>
void
gatherRows(const std::vector<T> &values, const Bitmap &rows,
           const Append &append)
{
    for (size_t w = 0; w < rows.numWords(); ++w) {
        uint64_t bits = rows.word(w);
        while (bits != 0) {
            size_t b = static_cast<size_t>(std::countr_zero(bits));
            append(values[w * 64 + b]);
            bits &= bits - 1;
        }
    }
}

} // namespace

format::ColumnData
selectRows(const ColumnData &column, const Bitmap &rows)
{
    FUSION_CHECK(column.size() == rows.size());
    ColumnData out(column.type());
    switch (column.type()) {
      case PhysicalType::kInt32:
        gatherRows(column.int32s(), rows,
                   [&out](int32_t v) { out.append(v); });
        break;
      case PhysicalType::kInt64:
        gatherRows(column.int64s(), rows,
                   [&out](int64_t v) { out.append(v); });
        break;
      case PhysicalType::kDouble:
        gatherRows(column.doubles(), rows,
                   [&out](double v) { out.append(v); });
        break;
      case PhysicalType::kString:
        gatherRows(column.strings(), rows,
                   [&out](const std::string &v) { out.append(v); });
        break;
    }
    return out;
}

Result<double>
computeAggregate(AggregateKind kind, const ColumnData &values)
{
    if (kind == AggregateKind::kCount)
        return static_cast<double>(values.size());
    if (values.type() == PhysicalType::kString)
        return Status::invalidArgument(
            "numeric aggregate over a string column");
    // SQL yields NULL for aggregates over zero rows; without a null
    // representation we approximate with 0 (documented behaviour).
    if (values.size() == 0)
        return 0.0;

    // Typed reduction over the raw array — no per-row boxing. Sum
    // order and min/max NaN handling match the boxed loop exactly.
    double sum = 0.0, min_v = 0.0, max_v = 0.0;
    auto reduce = [&](const auto &raw) {
        min_v = max_v = static_cast<double>(raw[0]);
        for (size_t i = 0; i < raw.size(); ++i) {
            double v = static_cast<double>(raw[i]);
            sum += v;
            if (v < min_v)
                min_v = v;
            if (v > max_v)
                max_v = v;
        }
    };
    switch (values.type()) {
      case PhysicalType::kInt32: reduce(values.int32s()); break;
      case PhysicalType::kInt64: reduce(values.int64s()); break;
      case PhysicalType::kDouble: reduce(values.doubles()); break;
      case PhysicalType::kString: break; // rejected above
    }
    switch (kind) {
      case AggregateKind::kSum: return sum;
      case AggregateKind::kAvg:
        return sum / static_cast<double>(values.size());
      case AggregateKind::kMin: return min_v;
      case AggregateKind::kMax: return max_v;
      case AggregateKind::kCount:
      case AggregateKind::kNone: break;
    }
    return Status::invalidArgument("bad aggregate kind");
}

} // namespace fusion::query
