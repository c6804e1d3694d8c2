/**
 * @file
 * In-memory columnar data: a typed column vector and a table (schema +
 * columns). This is the decoded form produced by the reader and
 * consumed by the writer and the query engine.
 */
#ifndef FUSION_FORMAT_COLUMN_H
#define FUSION_FORMAT_COLUMN_H

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "types.h"
#include "value.h"

namespace fusion::format {

/** A single decoded column: a homogeneous vector of one physical type. */
class ColumnData
{
  public:
    ColumnData() : data_(std::vector<int64_t>{}) {}
    explicit ColumnData(PhysicalType t);

    PhysicalType type() const;
    size_t size() const;
    bool empty() const { return size() == 0; }

    void append(int32_t v) { std::get<Int32s>(data_).push_back(v); }
    void append(int64_t v) { std::get<Int64s>(data_).push_back(v); }
    void append(double v) { std::get<Doubles>(data_).push_back(v); }
    void append(std::string v)
    {
        std::get<Strings>(data_).push_back(std::move(v));
    }

    /**
     * Typed bulk-append sink: the column's value vector, for decoders
     * that append runs of T (the column's value type) directly instead
     * of one variant-dispatched value at a time.
     */
    template <typename T>
    std::vector<T> &
    sink()
    {
        return std::get<std::vector<T>>(data_);
    }

    /** Appends rows [begin, end) of `other`, another column of this
     *  type, as one typed range insert. */
    void appendRange(const ColumnData &other, size_t begin, size_t end);

    /** Appends every value of `other`, another column of this type. */
    void
    append(const ColumnData &other)
    {
        appendRange(other, 0, other.size());
    }

    /** Appends a Value; its type must match the column type. */
    void appendValue(const Value &v);

    /** Value at row i, boxed. */
    Value valueAt(size_t i) const;

    const std::vector<int32_t> &int32s() const
    {
        return std::get<Int32s>(data_);
    }
    const std::vector<int64_t> &int64s() const
    {
        return std::get<Int64s>(data_);
    }
    const std::vector<double> &doubles() const
    {
        return std::get<Doubles>(data_);
    }
    const std::vector<std::string> &strings() const
    {
        return std::get<Strings>(data_);
    }

    /** Bytes this column occupies in plain encoding: exactly
     *  plainEncode(*this).size(). */
    uint64_t plainEncodedSize() const;

    bool operator==(const ColumnData &o) const { return data_ == o.data_; }

  private:
    using Int32s = std::vector<int32_t>;
    using Int64s = std::vector<int64_t>;
    using Doubles = std::vector<double>;
    using Strings = std::vector<std::string>;

    std::variant<Int32s, Int64s, Doubles, Strings> data_;
};

/** An in-memory table: schema plus one ColumnData per column. */
class Table
{
  public:
    Table() = default;
    explicit Table(Schema schema);

    const Schema &schema() const { return schema_; }
    size_t numColumns() const { return columns_.size(); }
    size_t numRows() const;

    ColumnData &column(size_t id) { return columns_.at(id); }
    const ColumnData &column(size_t id) const { return columns_.at(id); }

    /** Verifies all columns have equal length and match the schema. */
    Status validate() const;

    /** Sub-table with rows [begin, end) from every column. */
    Table sliceRows(size_t begin, size_t end) const;

  private:
    Schema schema_;
    std::vector<ColumnData> columns_;
};

} // namespace fusion::format

#endif // FUSION_FORMAT_COLUMN_H
