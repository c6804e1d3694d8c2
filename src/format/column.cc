#include "column.h"

namespace fusion::format {

ColumnData::ColumnData(PhysicalType t)
{
    switch (t) {
      case PhysicalType::kInt32: data_ = Int32s{}; break;
      case PhysicalType::kInt64: data_ = Int64s{}; break;
      case PhysicalType::kDouble: data_ = Doubles{}; break;
      case PhysicalType::kString: data_ = Strings{}; break;
    }
}

PhysicalType
ColumnData::type() const
{
    switch (data_.index()) {
      case 0: return PhysicalType::kInt32;
      case 1: return PhysicalType::kInt64;
      case 2: return PhysicalType::kDouble;
      default: return PhysicalType::kString;
    }
}

size_t
ColumnData::size() const
{
    return std::visit([](const auto &v) { return v.size(); }, data_);
}

void
ColumnData::appendRange(const ColumnData &other, size_t begin, size_t end)
{
    FUSION_CHECK(other.type() == type() && &other != this);
    FUSION_CHECK(begin <= end && end <= other.size());
    std::visit(
        [&other, begin, end](auto &dst) {
            const auto &src =
                std::get<std::decay_t<decltype(dst)>>(other.data_);
            dst.insert(dst.end(), src.begin() + begin, src.begin() + end);
        },
        data_);
}

void
ColumnData::appendValue(const Value &v)
{
    FUSION_CHECK(v.type() == type());
    switch (type()) {
      case PhysicalType::kInt32: append(v.asInt32()); break;
      case PhysicalType::kInt64: append(v.asInt64()); break;
      case PhysicalType::kDouble: append(v.asDouble()); break;
      case PhysicalType::kString: append(v.asString()); break;
    }
}

Value
ColumnData::valueAt(size_t i) const
{
    switch (type()) {
      case PhysicalType::kInt32: return Value(int32s().at(i));
      case PhysicalType::kInt64: return Value(int64s().at(i));
      case PhysicalType::kDouble: return Value(doubles().at(i));
      case PhysicalType::kString: return Value(strings().at(i));
    }
    FUSION_CHECK(false);
    return Value();
}

uint64_t
ColumnData::plainEncodedSize() const
{
    switch (type()) {
      case PhysicalType::kInt32: return int32s().size() * 4;
      case PhysicalType::kInt64: return int64s().size() * 8;
      case PhysicalType::kDouble: return doubles().size() * 8;
      case PhysicalType::kString: {
        uint64_t total = 0;
        for (const auto &s : strings())
            total += 4 + s.size(); // u32 length prefix + bytes
        return total;
      }
    }
    return 0;
}

Table::Table(Schema schema) : schema_(std::move(schema))
{
    columns_.reserve(schema_.numColumns());
    for (const auto &desc : schema_.columns())
        columns_.emplace_back(desc.physical);
}

size_t
Table::numRows() const
{
    return columns_.empty() ? 0 : columns_.front().size();
}

Status
Table::validate() const
{
    if (columns_.size() != schema_.numColumns())
        return Status::internal("column count does not match schema");
    for (size_t i = 0; i < columns_.size(); ++i) {
        if (columns_[i].type() != schema_.column(i).physical)
            return Status::internal("column " + std::to_string(i) +
                                    " type does not match schema");
        if (columns_[i].size() != numRows())
            return Status::internal("ragged table: column " +
                                    std::to_string(i) + " length differs");
    }
    return Status::ok();
}

Table
Table::sliceRows(size_t begin, size_t end) const
{
    FUSION_CHECK(begin <= end && end <= numRows());
    Table out(schema_);
    for (size_t c = 0; c < columns_.size(); ++c)
        out.column(c).appendRange(columns_[c], begin, end);
    return out;
}

} // namespace fusion::format
