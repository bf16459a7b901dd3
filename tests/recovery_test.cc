// Unit tests for the durable-checkpoint and commit-journal layer
// (src/recovery): CRC-framed checkpoint round-trips, corrupt-final
// quarantine + fallback to the previous checkpoint, database image
// round-trips, journal append/recover/truncate, and ledger suffix replay.
// The concurrent state-transfer test at the bottom runs under the TSan
// stage of scripts/check.sh.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/serial.h"
#include "common/sim_clock.h"
#include "core/ordering.h"
#include "ledger/ledger_db.h"
#include "recovery/checkpoint.h"
#include "recovery/durable_replica.h"
#include "recovery/journal.h"
#include "storage/database.h"

namespace prever::recovery {
namespace {

namespace fs = std::filesystem;
using storage::Mutation;
using storage::Schema;
using storage::Value;
using storage::ValueType;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "prever_recovery_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

ledger::LedgerDb MakeLedger(size_t n, uint64_t salt = 0) {
  ledger::LedgerDb ledger;
  for (size_t i = 0; i < n; ++i) {
    ledger.Append(ToBytes("entry-" + std::to_string(salt) + "-" +
                          std::to_string(i)),
                  static_cast<SimTime>(i + 1));
  }
  return ledger;
}

/// Encoded LedgerEntry records for entries [from, ledger.size()).
std::vector<Bytes> EncodedSuffix(const ledger::LedgerDb& ledger,
                                 uint64_t from) {
  std::vector<Bytes> out;
  for (uint64_t seq = from; seq < ledger.size(); ++seq) {
    auto entry = ledger.GetEntry(seq);
    EXPECT_TRUE(entry.ok());
    out.push_back(entry->Encode());
  }
  return out;
}

void FlipByteInNewest(const CheckpointStore& store) {
  auto files = store.ListFiles();
  ASSERT_FALSE(files.empty());
  std::string path = store.dir() + "/" + files.back();
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  // Flip a byte in the middle: lands in a record body, so the CRC check
  // (not the frame parser) must catch it.
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, size / 2, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

TEST_F(RecoveryTest, CheckpointRoundTrip) {
  CheckpointStore store(dir_);
  ASSERT_TRUE(store.Init().ok());

  ledger::LedgerDb ledger = MakeLedger(5);
  storage::Database db;
  ASSERT_TRUE(
      db.CreateTable("t", Schema({{"id", ValueType::kString},
                                  {"n", ValueType::kInt64}}))
          .ok());
  Mutation m;
  m.op = Mutation::Op::kInsert;
  m.table = "t";
  m.row = {Value::String("a"), Value::Int64(7)};
  ASSERT_TRUE(db.Apply(m).ok());

  CheckpointContents contents;
  contents.ledger = &ledger;
  contents.consensus_seq = 42;
  contents.spent_serials = {ToBytes("s1"), ToBytes("s2")};
  contents.db_image = EncodeDatabaseImage(db);
  contents.app_state = ToBytes("opaque-consensus-blob");
  contents.db_version = db.version();
  contents.catalog_revision = 3;
  auto id = store.Save(contents);
  ASSERT_TRUE(id.ok());

  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->manifest.checkpoint_id, *id);
  EXPECT_EQ(loaded->manifest.consensus_seq, 42u);
  EXPECT_EQ(loaded->manifest.ledger_size, 5u);
  EXPECT_EQ(loaded->manifest.db_version, db.version());
  EXPECT_EQ(loaded->manifest.catalog_revision, 3u);
  // The rebuilt ledger is digest-identical to the source.
  EXPECT_TRUE(loaded->ledger.Digest() == ledger.Digest());
  EXPECT_EQ(loaded->manifest.ledger_root, ledger.Digest().root);
  EXPECT_EQ(loaded->spent_serials,
            (std::vector<Bytes>{ToBytes("s1"), ToBytes("s2")}));
  EXPECT_EQ(loaded->app_state, ToBytes("opaque-consensus-blob"));

  storage::Database restored;
  auto version = RestoreDatabaseImage(loaded->db_image, &restored);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, db.version());
  auto table = restored.GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->size(), 1u);
}

TEST_F(RecoveryTest, LoadLatestWithoutCheckpointsIsNotFound) {
  CheckpointStore store(dir_);
  ASSERT_TRUE(store.Init().ok());
  EXPECT_EQ(store.LoadLatest().status().code(), StatusCode::kNotFound);
}

TEST_F(RecoveryTest, CorruptFinalQuarantinedWithFallbackToPrevious) {
  CheckpointStore store(dir_);
  ASSERT_TRUE(store.Init().ok());

  // Checkpoint A at 3 entries, checkpoint B at 6 — then corrupt B.
  ledger::LedgerDb ledger = MakeLedger(3);
  CheckpointContents a;
  a.ledger = &ledger;
  a.consensus_seq = 3;
  ASSERT_TRUE(store.Save(a).ok());
  for (size_t i = 3; i < 6; ++i) {
    ledger.Append(ToBytes("entry-0-" + std::to_string(i)),
                  static_cast<SimTime>(i + 1));
  }
  CheckpointContents b;
  b.ledger = &ledger;
  b.consensus_seq = 6;
  ASSERT_TRUE(store.Save(b).ok());

  FlipByteInNewest(store);

  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  // The corrupt newest was quarantined; the previous checkpoint serves.
  EXPECT_EQ(loaded->manifest.consensus_seq, 3u);
  EXPECT_EQ(loaded->ledger.size(), 3u);
  EXPECT_EQ(store.quarantined(), 1u);
  EXPECT_EQ(store.ListFiles().size(), 1u);
  size_t quarantined_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().string().find(".quarantined") != std::string::npos) {
      ++quarantined_files;
    }
  }
  EXPECT_EQ(quarantined_files, 1u);

  // The journal suffix covers the difference: a LONGER replay (from seq 3
  // instead of 6) lands on the same final ledger state.
  auto appended = ReplayLedgerSuffix(EncodedSuffix(ledger, 3), &loaded->ledger);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(*appended, 3u);
  EXPECT_TRUE(loaded->ledger.Digest() == ledger.Digest());
}

TEST_F(RecoveryTest, TruncatedFinalQuarantinedWithFallbackToPrevious) {
  CheckpointStore store(dir_);
  ASSERT_TRUE(store.Init().ok());
  ledger::LedgerDb ledger = MakeLedger(2);
  CheckpointContents a;
  a.ledger = &ledger;
  a.consensus_seq = 2;
  ASSERT_TRUE(store.Save(a).ok());
  ledger.Append(ToBytes("entry-0-2"), 3);
  CheckpointContents b;
  b.ledger = &ledger;
  b.consensus_seq = 3;
  ASSERT_TRUE(store.Save(b).ok());

  // Truncate the newest file's tail — a crash mid-write of the final file
  // (e.g. a torn rename target on a non-atomic filesystem).
  auto files = store.ListFiles();
  std::string path = store.dir() + "/" + files.back();
  fs::resize_file(path, fs::file_size(path) - 5);

  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->manifest.consensus_seq, 2u);
  EXPECT_EQ(store.quarantined(), 1u);

  // With EVERY checkpoint corrupt, recovery reports NotFound and callers
  // fall back to full journal replay.
  FlipByteInNewest(store);
  EXPECT_EQ(store.LoadLatest().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.quarantined(), 2u);
}

TEST_F(RecoveryTest, GarbageCollectKeepsNewest) {
  CheckpointStore store(dir_);
  ASSERT_TRUE(store.Init().ok());
  ledger::LedgerDb ledger = MakeLedger(1);
  for (int i = 0; i < 4; ++i) {
    CheckpointContents c;
    c.ledger = &ledger;
    c.consensus_seq = static_cast<uint64_t>(i + 1);
    ASSERT_TRUE(store.Save(c).ok());
  }
  EXPECT_EQ(store.ListFiles().size(), 4u);
  uint64_t reclaimed = store.GarbageCollect(2);
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(store.ListFiles().size(), 2u);
  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->manifest.consensus_seq, 4u);
}

TEST_F(RecoveryTest, DatabaseImageRoundTripMultipleTables) {
  storage::Database db;
  ASSERT_TRUE(db.CreateTable("x", Schema({{"id", ValueType::kString},
                                          {"v", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable("y", Schema({{"id", ValueType::kString},
                                          {"at", ValueType::kTimestamp}}))
                  .ok());
  for (int i = 0; i < 5; ++i) {
    Mutation m;
    m.op = Mutation::Op::kInsert;
    m.table = "x";
    m.row = {Value::String("k" + std::to_string(i)), Value::Int64(i * 10)};
    ASSERT_TRUE(db.Apply(m).ok());
  }
  Mutation m;
  m.op = Mutation::Op::kInsert;
  m.table = "y";
  m.row = {Value::String("t"), Value::Timestamp(kHour)};
  ASSERT_TRUE(db.Apply(m).ok());

  Bytes image = EncodeDatabaseImage(db);
  storage::Database restored;
  auto version = RestoreDatabaseImage(image, &restored);
  ASSERT_TRUE(version.ok()) << version.status().message();
  EXPECT_EQ(*version, db.version());
  EXPECT_EQ(restored.TableNames(), db.TableNames());
  auto x = restored.GetTable("x");
  ASSERT_TRUE(x.ok());
  EXPECT_EQ((*x)->size(), 5u);
  // Restored rows are value-identical (spot check one).
  (*x)->Scan([&](const storage::Row& row) {
    auto id = row[0].AsString();
    auto v = row[1].AsInt64();
    EXPECT_TRUE(id.ok() && v.ok());
    if (id.ok() && *id == "k3") {
      EXPECT_EQ(*v, 30);
    }
    return true;
  });

  // Restoring into a database that already has a table of the same name
  // must fail instead of merging.
  storage::Database occupied;
  ASSERT_TRUE(occupied.CreateTable("x", Schema({{"id", ValueType::kString}}))
                  .ok());
  EXPECT_FALSE(RestoreDatabaseImage(image, &occupied).ok());
}

TEST_F(RecoveryTest, JournalAppendRecoverTruncate) {
  ASSERT_TRUE(fs::create_directories(dir_));
  std::string path = dir_ + "/journal.wal";
  CommitJournal journal;
  ASSERT_TRUE(journal.Open(path).ok());
  for (uint64_t pos = 1; pos <= 4; ++pos) {
    JournalEvent e;
    e.position = pos;
    e.batch_id = 100 + pos;
    e.entries = {ToBytes("p" + std::to_string(pos))};
    ASSERT_TRUE(journal.Append(e).ok());
  }

  bool truncated = false;
  auto events = CommitJournal::Recover(path, &truncated);
  ASSERT_TRUE(events.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(events->size(), 4u);
  EXPECT_EQ((*events)[2].position, 3u);
  EXPECT_EQ((*events)[2].batch_id, 103u);
  EXPECT_EQ((*events)[2].entries,
            (std::vector<Bytes>{ToBytes("p3")}));

  // Torn tail: the last record loses bytes; recovery keeps the clean prefix.
  journal.Close();
  fs::resize_file(path, fs::file_size(path) - 3);
  events = CommitJournal::Recover(path, &truncated);
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(truncated);
  ASSERT_EQ(events->size(), 3u);

  // TruncateBelow drops the checkpoint-covered prefix and reclaims bytes.
  ASSERT_TRUE(journal.Open(path).ok());
  auto reclaimed = journal.TruncateBelow(2);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_GT(*reclaimed, 0u);
  events = CommitJournal::Recover(path, &truncated);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].position, 3u);

  // A missing file is an empty journal, not an error.
  auto empty = CommitJournal::Recover(dir_ + "/nonexistent.wal", &truncated);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(RecoveryTest, HostileJournalEntryCountIsCorruption) {
  BinaryWriter w;
  w.WriteU64(1);           // position
  w.WriteU64(2);           // batch id
  w.WriteU32(0xFFFFFFFF);  // entry count the record cannot hold
  EXPECT_EQ(JournalEvent::Decode(w.bytes()).status().code(),
            StatusCode::kCorruption);
}

TEST_F(RecoveryTest, ReplayLedgerSuffixSkipsCoveredAndRejectsGaps) {
  ledger::LedgerDb source = MakeLedger(4);
  // Restored checkpoint covers the first 2 entries.
  ledger::LedgerDb restored = MakeLedger(2);

  // Records overlap the checkpoint (0..3): covered entries skip, the rest
  // extend, final state digest-identical.
  auto appended = ReplayLedgerSuffix(EncodedSuffix(source, 0), &restored);
  ASSERT_TRUE(appended.ok()) << appended.status().message();
  EXPECT_EQ(*appended, 2u);
  EXPECT_TRUE(restored.Digest() == source.Digest());

  // A gap (records starting past the ledger's size) is Corruption.
  ledger::LedgerDb more = MakeLedger(6);
  auto gap = ReplayLedgerSuffix(EncodedSuffix(more, 5), &restored);
  EXPECT_EQ(gap.status().code(), StatusCode::kCorruption);
}

// Concurrent state transfer: replicas encode, ship, and rebuild state in
// parallel — per-thread checkpoint stores and ledgers, with the SOURCE
// ledger and database image shared read-only across every thread. Runs
// under the TSan stage of scripts/check.sh.
TEST_F(RecoveryTest, ConcurrentStateTransferRebuildsIdenticalState) {
  ledger::LedgerDb source = MakeLedger(64);
  storage::Database db;
  ASSERT_TRUE(db.CreateTable("t", Schema({{"id", ValueType::kString},
                                          {"n", ValueType::kInt64}}))
                  .ok());
  for (int i = 0; i < 16; ++i) {
    Mutation m;
    m.op = Mutation::Op::kInsert;
    m.table = "t";
    m.row = {Value::String("k" + std::to_string(i)), Value::Int64(i)};
    ASSERT_TRUE(db.Apply(m).ok());
  }
  const Bytes image = EncodeDatabaseImage(db);
  const ledger::LedgerDigest want = source.Digest();

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto fail = [&](const std::string& why) { errors[t] = why; };
      CheckpointStore store(dir_ + "/r" + std::to_string(t));
      if (!store.Init().ok()) return fail("init");
      // Checkpoint the shared source at 32 entries, replay the rest from
      // the "journal" — the state-transfer shape: snapshot + suffix.
      ledger::LedgerDb prefix;
      for (uint64_t seq = 0; seq < 32; ++seq) {
        auto entry = source.GetEntry(seq);
        if (!entry.ok()) return fail("get entry");
        prefix.Append(entry->payload, entry->timestamp);
      }
      CheckpointContents contents;
      contents.ledger = &prefix;
      contents.consensus_seq = 32;
      contents.db_image = image;
      if (!store.Save(contents).ok()) return fail("save");
      auto loaded = store.LoadLatest();
      if (!loaded.ok()) return fail("load");
      std::vector<Bytes> suffix;
      for (uint64_t seq = 32; seq < source.size(); ++seq) {
        auto entry = source.GetEntry(seq);
        if (!entry.ok()) return fail("get suffix entry");
        suffix.push_back(entry->Encode());
      }
      auto appended = ReplayLedgerSuffix(suffix, &loaded->ledger);
      if (!appended.ok() || *appended != 32) return fail("replay");
      if (!(loaded->ledger.Digest() == want)) return fail("digest mismatch");
      storage::Database rebuilt;
      if (!RestoreDatabaseImage(loaded->db_image, &rebuilt).ok()) {
        return fail("restore image");
      }
      auto table = rebuilt.GetTable("t");
      if (!table.ok() || (*table)->size() != 16) return fail("table rows");
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], "") << "thread " << t;
  }
}

// ----------------------------------------------------- DurableReplica --

TEST_F(RecoveryTest, DurableReplicaRebuildsFromCheckpointPlusJournal) {
  DurableReplica durable(dir_, /*checkpoint_every=*/3);
  ASSERT_TRUE(durable.Open().ok());
  ledger::LedgerDb live;
  auto blob = [] { return ToBytes("app"); };
  std::vector<uint64_t> checkpointed_at;
  for (uint64_t pos = 1; pos <= 7; ++pos) {
    live.Append(ToBytes("p" + std::to_string(pos)), static_cast<SimTime>(pos));
    JournalEvent event{pos, 100 + pos, EncodedSuffix(live, live.size() - 1)};
    if (durable.JournalCommit(event, live, blob)) {
      checkpointed_at.push_back(pos);
    }
  }
  EXPECT_EQ(checkpointed_at, (std::vector<uint64_t>{3, 6}));
  EXPECT_EQ(durable.checkpoints_saved(), 2u);
  // An installed state the chain already covers is not saved again.
  durable.PersistInstalledState(live, 5, blob);
  EXPECT_EQ(durable.checkpoints_saved(), 2u);

  durable.Crash();
  ledger::LedgerDb lost = MakeLedger(1);
  EXPECT_FALSE(durable.JournalCommit({8, 108, EncodedSuffix(lost, 0)}, lost,
                                     blob))
      << "a crashed replica must write nothing";
  auto rebuilt = durable.Rebuild();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(rebuilt->floor, 7u);
  EXPECT_EQ(ToString(rebuilt->app_state), "app");
  EXPECT_EQ(rebuilt->ledger.Digest().root, live.Digest().root);
  // Only the event past the newest checkpoint (at 6) is replayed.
  EXPECT_EQ(rebuilt->batch_ids, (std::vector<uint64_t>{107}));
  EXPECT_EQ(durable.entries_replayed(), 1u);
}

TEST_F(RecoveryTest, VolatileReplicasCannotRestart) {
  core::RaftOrdering raft(3, net::SimNetConfig{});
  EXPECT_EQ(raft.durable(0), nullptr);
  EXPECT_EQ(raft.RestartReplica(0).code(), StatusCode::kNotSupported);
  core::PbftOrdering pbft(4, net::SimNetConfig{});
  EXPECT_EQ(pbft.durable(0), nullptr);
  EXPECT_EQ(pbft.RestartReplica(0).code(), StatusCode::kNotSupported);
}

}  // namespace
}  // namespace prever::recovery
