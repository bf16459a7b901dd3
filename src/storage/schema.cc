#include "storage/schema.h"

namespace prever::storage {

Result<size_t> Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column named '" + name + "'");
}

Status Schema::ValidateRow(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, schema has " +
        std::to_string(columns_.size()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].type() != columns_[i].type) {
      return Status::InvalidArgument(
          "column '" + columns_[i].name + "' expects " +
          ValueTypeName(columns_[i].type) + ", got " +
          ValueTypeName(row[i].type()));
    }
  }
  return Status::Ok();
}

Result<Value> Schema::KeyOf(const Row& row) const {
  if (key_column_ >= row.size()) {
    return Status::InvalidArgument("row too short for key column");
  }
  return row[key_column_];
}

void Schema::EncodeTo(BinaryWriter& w) const {
  w.WriteU32(static_cast<uint32_t>(columns_.size()));
  for (const Column& c : columns_) {
    w.WriteString(c.name);
    w.WriteU8(static_cast<uint8_t>(c.type));
  }
  w.WriteU32(static_cast<uint32_t>(key_column_));
}

Result<Schema> Schema::DecodeFrom(BinaryReader& r) {
  // A column is at least a length-prefixed name and a type byte.
  PREVER_ASSIGN_OR_RETURN(uint32_t n, r.ReadCount(5));
  std::vector<Column> columns;
  columns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Column c;
    PREVER_ASSIGN_OR_RETURN(c.name, r.ReadString());
    PREVER_ASSIGN_OR_RETURN(uint8_t t, r.ReadU8());
    if (t > static_cast<uint8_t>(ValueType::kTimestamp)) {
      return Status::Corruption("bad column type tag");
    }
    c.type = static_cast<ValueType>(t);
    columns.push_back(std::move(c));
  }
  PREVER_ASSIGN_OR_RETURN(uint32_t key, r.ReadU32());
  if (key >= n && n > 0) return Status::Corruption("key column out of range");
  return Schema(std::move(columns), key);
}

}  // namespace prever::storage
