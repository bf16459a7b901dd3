#include "storage/table.h"

namespace prever::storage {

Status Table::Insert(const Row& row) {
  PREVER_RETURN_IF_ERROR(schema_.ValidateRow(row));
  PREVER_ASSIGN_OR_RETURN(Value key, schema_.KeyOf(row));
  auto [it, inserted] = rows_.emplace(std::move(key), row);
  if (!inserted) {
    return Status::AlreadyExists("key " + it->first.ToString() +
                                 " already present in table '" + name_ + "'");
  }
  ++mod_count_;
  return Status::Ok();
}

Status Table::Update(const Row& row, std::optional<Row>* before) {
  PREVER_RETURN_IF_ERROR(schema_.ValidateRow(row));
  PREVER_ASSIGN_OR_RETURN(Value key, schema_.KeyOf(row));
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    return Status::NotFound("key " + key.ToString() + " not in table '" +
                            name_ + "'");
  }
  if (before != nullptr) before->emplace(std::move(it->second));
  it->second = row;
  ++mod_count_;
  return Status::Ok();
}

Status Table::Upsert(const Row& row, std::optional<Row>* before) {
  PREVER_RETURN_IF_ERROR(schema_.ValidateRow(row));
  PREVER_ASSIGN_OR_RETURN(Value key, schema_.KeyOf(row));
  auto [it, inserted] = rows_.try_emplace(std::move(key), row);
  if (!inserted) {
    if (before != nullptr) before->emplace(std::move(it->second));
    it->second = row;
  }
  ++mod_count_;
  return Status::Ok();
}

Status Table::Delete(const Value& key, std::optional<Row>* before) {
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    return Status::NotFound("key " + key.ToString() + " not in table '" +
                            name_ + "'");
  }
  if (before != nullptr) before->emplace(std::move(it->second));
  rows_.erase(it);
  ++mod_count_;
  return Status::Ok();
}

Result<Row> Table::Get(const Value& key) const {
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    return Status::NotFound("key " + key.ToString() + " not in table '" +
                            name_ + "'");
  }
  return it->second;
}

bool Table::Contains(const Value& key) const { return rows_.count(key) > 0; }

void Table::Scan(const std::function<bool(const Row&)>& visitor) const {
  for (const auto& [key, row] : rows_) {
    if (!visitor(row)) return;
  }
}

}  // namespace prever::storage
