#ifndef PREVER_STORAGE_DATABASE_H_
#define PREVER_STORAGE_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace prever::storage {

/// A single mutation against one table. Mutations are the unit of WAL
/// logging and — one level up — the payload of a PReVer `Update`.
struct Mutation {
  enum class Op : uint8_t { kInsert = 0, kUpdate = 1, kUpsert = 2, kDelete = 3 };

  Op op = Op::kInsert;
  std::string table;
  Row row;     ///< For insert/update/upsert.
  Value key;   ///< For delete.

  void EncodeTo(BinaryWriter& w) const;
  static Result<Mutation> DecodeFrom(BinaryReader& r);
  Bytes Encode() const;
  static Result<Mutation> Decode(const Bytes& data);
};

/// Multi-table database owned by a data manager. Optionally durable via a
/// write-ahead log: every applied mutation is logged before it mutates the
/// table, and `RecoverFrom` replays a log into a fresh database.
class Database {
 public:
  Database() = default;

  /// Enables durability. Call before applying mutations.
  Status EnableWal(const std::string& path);

  Status CreateTable(const std::string& name, const Schema& schema);
  bool HasTable(const std::string& name) const;
  Result<const Table*> GetTable(const std::string& name) const;
  Result<Table*> GetMutableTable(const std::string& name);

  /// All table names in deterministic (map) order — lets the checkpoint
  /// serializer (src/recovery/) enumerate state without a side channel.
  std::vector<std::string> TableNames() const;

  /// Validates and applies one mutation (WAL-first when durable).
  Status Apply(const Mutation& mutation);

  /// Number of successfully applied mutations (the database version).
  uint64_t version() const { return version_; }

  /// Commit observers: invoked after every successfully applied mutation
  /// (Apply and ReplayLog), with the mutation, the row it replaced or
  /// removed, and the post-commit version. `before` is null for an insert
  /// and for an upsert of a new key. Incremental verification caches hang
  /// off this hook to retract the old row and fold in the new one.
  /// Observers must not mutate the database.
  using CommitObserver =
      std::function<void(const Mutation&, const Row* before, uint64_t)>;

  /// Registers an observer; returns an id for RemoveCommitObserver.
  uint64_t AddCommitObserver(CommitObserver observer);
  void RemoveCommitObserver(uint64_t id);

  /// Replays a WAL into this (empty) database. Tables must be created first
  /// (schemas are not logged — they are static configuration in PReVer).
  Status ReplayLog(const std::string& path, bool* truncated = nullptr);

 private:
  /// Applies to the target table, moving a replaced or removed row into
  /// `before`.
  Status ApplyToTable(const Mutation& mutation, std::optional<Row>* before);
  void NotifyCommit(const Mutation& mutation, const std::optional<Row>& before);

  std::map<std::string, Table> tables_;
  WriteAheadLog wal_;
  uint64_t version_ = 0;
  std::vector<std::pair<uint64_t, CommitObserver>> observers_;
  uint64_t next_observer_id_ = 1;
};

}  // namespace prever::storage

#endif  // PREVER_STORAGE_DATABASE_H_
