#include "storage/database.h"

namespace prever::storage {

void Mutation::EncodeTo(BinaryWriter& w) const {
  w.WriteU8(static_cast<uint8_t>(op));
  w.WriteString(table);
  if (op == Op::kDelete) {
    key.EncodeTo(w);
  } else {
    w.WriteU32(static_cast<uint32_t>(row.size()));
    for (const Value& v : row) v.EncodeTo(w);
  }
}

Result<Mutation> Mutation::DecodeFrom(BinaryReader& r) {
  Mutation m;
  PREVER_ASSIGN_OR_RETURN(uint8_t op, r.ReadU8());
  if (op > static_cast<uint8_t>(Op::kDelete)) {
    return Status::Corruption("bad mutation op");
  }
  m.op = static_cast<Op>(op);
  PREVER_ASSIGN_OR_RETURN(m.table, r.ReadString());
  if (m.op == Op::kDelete) {
    PREVER_ASSIGN_OR_RETURN(m.key, Value::DecodeFrom(r));
  } else {
    // Every encoded value takes at least a tag byte and a one-byte payload.
    PREVER_ASSIGN_OR_RETURN(uint32_t n, r.ReadCount(2));
    m.row.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      PREVER_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(r));
      m.row.push_back(std::move(v));
    }
  }
  return m;
}

Bytes Mutation::Encode() const {
  BinaryWriter w;
  EncodeTo(w);
  return w.Take();
}

Result<Mutation> Mutation::Decode(const Bytes& data) {
  BinaryReader r(data);
  PREVER_ASSIGN_OR_RETURN(Mutation m, DecodeFrom(r));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after mutation");
  return m;
}

Status Database::EnableWal(const std::string& path) {
  return wal_.Open(path);
}

Status Database::CreateTable(const std::string& name, const Schema& schema) {
  auto [it, inserted] = tables_.emplace(name, Table(name, schema));
  if (!inserted) return Status::AlreadyExists("table '" + name + "' exists");
  return Status::Ok();
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table '" + name + "'");
  return &it->second;
}

Result<Table*> Database::GetMutableTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table '" + name + "'");
  return &it->second;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Status Database::ApplyToTable(const Mutation& mutation,
                              std::optional<Row>* before) {
  PREVER_ASSIGN_OR_RETURN(Table * table, GetMutableTable(mutation.table));
  switch (mutation.op) {
    case Mutation::Op::kInsert:
      return table->Insert(mutation.row);
    case Mutation::Op::kUpdate:
      return table->Update(mutation.row, before);
    case Mutation::Op::kUpsert:
      return table->Upsert(mutation.row, before);
    case Mutation::Op::kDelete:
      return table->Delete(mutation.key, before);
  }
  return Status::Internal("unreachable");
}

Status Database::Apply(const Mutation& mutation) {
  // Validate the target exists up front so we never log a doomed mutation.
  if (!HasTable(mutation.table)) {
    return Status::NotFound("no table '" + mutation.table + "'");
  }
  if (wal_.is_open()) {
    PREVER_RETURN_IF_ERROR(wal_.Append(mutation.Encode()));
  }
  std::optional<Row> before;
  PREVER_RETURN_IF_ERROR(ApplyToTable(mutation, &before));
  ++version_;
  NotifyCommit(mutation, before);
  return Status::Ok();
}

uint64_t Database::AddCommitObserver(CommitObserver observer) {
  uint64_t id = next_observer_id_++;
  observers_.emplace_back(id, std::move(observer));
  return id;
}

void Database::RemoveCommitObserver(uint64_t id) {
  for (auto it = observers_.begin(); it != observers_.end(); ++it) {
    if (it->first == id) {
      observers_.erase(it);
      return;
    }
  }
}

void Database::NotifyCommit(const Mutation& mutation,
                            const std::optional<Row>& before) {
  const Row* old = before ? &*before : nullptr;
  for (const auto& [id, observer] : observers_) {
    observer(mutation, old, version_);
  }
}

Status Database::ReplayLog(const std::string& path, bool* truncated) {
  PREVER_ASSIGN_OR_RETURN(std::vector<Bytes> records,
                          WriteAheadLog::Recover(path, truncated));
  for (const Bytes& record : records) {
    PREVER_ASSIGN_OR_RETURN(Mutation m, Mutation::Decode(record));
    std::optional<Row> before;
    PREVER_RETURN_IF_ERROR(ApplyToTable(m, &before));
    ++version_;
    NotifyCommit(m, before);
  }
  return Status::Ok();
}

}  // namespace prever::storage
