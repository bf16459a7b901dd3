#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "storage/database.h"

namespace prever::storage {
namespace {

// ------------------------------------------------------------------ Value

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(*Value::Int64(42).AsInt64(), 42);
  EXPECT_EQ(*Value::String("x").AsString(), "x");
  EXPECT_EQ(*Value::Bool(true).AsBool(), true);
  EXPECT_EQ(*Value::Timestamp(7).AsTimestamp(), 7u);
}

TEST(ValueTest, TypeMismatchErrors) {
  EXPECT_FALSE(Value::Int64(1).AsString().ok());
  EXPECT_FALSE(Value::String("x").AsInt64().ok());
  EXPECT_FALSE(Value::Bool(true).AsTimestamp().ok());
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_EQ(*Value::Int64(-5).AsNumeric(), -5);
  EXPECT_EQ(*Value::Timestamp(100).AsNumeric(), 100);
  EXPECT_FALSE(Value::String("5").AsNumeric().ok());
  EXPECT_FALSE(Value::Bool(true).AsNumeric().ok());
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value::Int64(3), Value::Int64(3));
  EXPECT_NE(Value::Int64(3), Value::Int64(4));
  EXPECT_NE(Value::Int64(1), Value::Bool(true));
  EXPECT_LT(Value::Int64(1), Value::Int64(2));
  EXPECT_LT(Value::String("a"), Value::String("b"));
}

TEST(ValueTest, EncodeDecodeRoundTrip) {
  for (const Value& v :
       {Value::Int64(-123), Value::String("hello"), Value::Bool(false),
        Value::Timestamp(999999)}) {
    BinaryWriter w;
    v.EncodeTo(w);
    BinaryReader r(w.bytes());
    auto decoded = Value::DecodeFrom(r);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, v);
  }
}

TEST(ValueTest, DecodeRejectsBadTag) {
  Bytes data = {0x09};
  BinaryReader r(data);
  EXPECT_FALSE(Value::DecodeFrom(r).ok());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Int64(7).ToString(), "7");
  EXPECT_EQ(Value::String("a").ToString(), "\"a\"");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Timestamp(5).ToString(), "@5");
}

// ----------------------------------------------------------------- Schema

Schema WorklogSchema() {
  return Schema({{"id", ValueType::kString},
                 {"worker", ValueType::kString},
                 {"hours", ValueType::kInt64},
                 {"at", ValueType::kTimestamp}},
                0);
}

TEST(SchemaTest, ColumnIndex) {
  Schema s = WorklogSchema();
  EXPECT_EQ(*s.ColumnIndex("hours"), 2u);
  EXPECT_FALSE(s.ColumnIndex("nope").ok());
}

TEST(SchemaTest, ValidateRow) {
  Schema s = WorklogSchema();
  Row good = {Value::String("t1"), Value::String("w1"), Value::Int64(8),
              Value::Timestamp(0)};
  EXPECT_TRUE(s.ValidateRow(good).ok());

  Row short_row = {Value::String("t1")};
  EXPECT_FALSE(s.ValidateRow(short_row).ok());

  Row wrong_type = {Value::String("t1"), Value::String("w1"),
                    Value::String("8"), Value::Timestamp(0)};
  EXPECT_FALSE(s.ValidateRow(wrong_type).ok());
}

TEST(SchemaTest, KeyOf) {
  Schema s = WorklogSchema();
  Row row = {Value::String("t1"), Value::String("w1"), Value::Int64(8),
             Value::Timestamp(0)};
  EXPECT_EQ(*s.KeyOf(row), Value::String("t1"));
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema s = WorklogSchema();
  BinaryWriter w;
  s.EncodeTo(w);
  BinaryReader r(w.bytes());
  auto decoded = Schema::DecodeFrom(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_columns(), 4u);
  EXPECT_EQ(decoded->columns()[2].name, "hours");
  EXPECT_EQ(decoded->key_column(), 0u);
}

TEST(SchemaTest, HostileColumnCountIsCorruption) {
  BinaryWriter w;
  w.WriteU32(0xFFFFFFFF);  // Column count no 4-byte buffer can hold.
  BinaryReader r(w.bytes());
  EXPECT_EQ(Schema::DecodeFrom(r).status().code(), StatusCode::kCorruption);
}

// ------------------------------------------------------------------ Table

Row MakeWorklogRow(const std::string& id, const std::string& worker,
                   int64_t hours, SimTime at) {
  return {Value::String(id), Value::String(worker), Value::Int64(hours),
          Value::Timestamp(at)};
}

TEST(TableTest, InsertGetDelete) {
  Table t("worklog", WorklogSchema());
  EXPECT_TRUE(t.Insert(MakeWorklogRow("t1", "w1", 8, 100)).ok());
  EXPECT_EQ(t.size(), 1u);
  auto row = t.Get(Value::String("t1"));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*(*row)[2].AsInt64(), 8);
  EXPECT_TRUE(t.Delete(Value::String("t1")).ok());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.Get(Value::String("t1")).ok());
}

TEST(TableTest, InsertDuplicateKeyFails) {
  Table t("worklog", WorklogSchema());
  ASSERT_TRUE(t.Insert(MakeWorklogRow("t1", "w1", 8, 100)).ok());
  Status s = t.Insert(MakeWorklogRow("t1", "w2", 4, 200));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(TableTest, UpdateRequiresExisting) {
  Table t("worklog", WorklogSchema());
  EXPECT_EQ(t.Update(MakeWorklogRow("t1", "w1", 8, 100)).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(t.Insert(MakeWorklogRow("t1", "w1", 8, 100)).ok());
  EXPECT_TRUE(t.Update(MakeWorklogRow("t1", "w1", 9, 100)).ok());
  EXPECT_EQ(*(*t.Get(Value::String("t1")))[2].AsInt64(), 9);
}

TEST(TableTest, UpsertInsertsOrReplaces) {
  Table t("worklog", WorklogSchema());
  EXPECT_TRUE(t.Upsert(MakeWorklogRow("t1", "w1", 8, 100)).ok());
  EXPECT_TRUE(t.Upsert(MakeWorklogRow("t1", "w1", 12, 100)).ok());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*(*t.Get(Value::String("t1")))[2].AsInt64(), 12);
}

TEST(TableTest, ReplacingOpsHandBackThePreImage) {
  Table t("worklog", WorklogSchema());
  std::optional<Row> before;
  ASSERT_TRUE(t.Upsert(MakeWorklogRow("t1", "w1", 8, 100), &before).ok());
  EXPECT_FALSE(before.has_value());  // New key: nothing replaced.
  ASSERT_TRUE(t.Upsert(MakeWorklogRow("t1", "w2", 9, 200), &before).ok());
  EXPECT_EQ(before, MakeWorklogRow("t1", "w1", 8, 100));
  before.reset();
  ASSERT_TRUE(t.Update(MakeWorklogRow("t1", "w3", 10, 300), &before).ok());
  EXPECT_EQ(before, MakeWorklogRow("t1", "w2", 9, 200));
  before.reset();
  ASSERT_TRUE(t.Delete(Value::String("t1"), &before).ok());
  EXPECT_EQ(before, MakeWorklogRow("t1", "w3", 10, 300));
  EXPECT_EQ(t.size(), 0u);
}

TEST(TableTest, InsertValidatesSchema) {
  Table t("worklog", WorklogSchema());
  Row bad = {Value::Int64(1), Value::String("w"), Value::Int64(1),
             Value::Timestamp(0)};
  EXPECT_EQ(t.Insert(bad).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, ScanIsKeyOrderedAndStoppable) {
  Table t("worklog", WorklogSchema());
  ASSERT_TRUE(t.Insert(MakeWorklogRow("b", "w1", 2, 0)).ok());
  ASSERT_TRUE(t.Insert(MakeWorklogRow("a", "w1", 1, 0)).ok());
  ASSERT_TRUE(t.Insert(MakeWorklogRow("c", "w1", 3, 0)).ok());
  std::vector<std::string> seen;
  t.Scan([&](const Row& row) {
    seen.push_back(*row[0].AsString());
    return seen.size() < 2;
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
}

// --------------------------------------------------------------- Mutation

TEST(MutationTest, EncodeDecodeRowOps) {
  Mutation m;
  m.op = Mutation::Op::kInsert;
  m.table = "worklog";
  m.row = MakeWorklogRow("t1", "w1", 8, 100);
  auto decoded = Mutation::Decode(m.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, Mutation::Op::kInsert);
  EXPECT_EQ(decoded->table, "worklog");
  EXPECT_EQ(decoded->row, m.row);
}

TEST(MutationTest, EncodeDecodeDelete) {
  Mutation m;
  m.op = Mutation::Op::kDelete;
  m.table = "worklog";
  m.key = Value::String("t1");
  auto decoded = Mutation::Decode(m.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, Mutation::Op::kDelete);
  EXPECT_EQ(decoded->key, Value::String("t1"));
}

TEST(MutationTest, DecodeRejectsTrailingGarbage) {
  Mutation m;
  m.op = Mutation::Op::kDelete;
  m.table = "t";
  m.key = Value::Int64(1);
  Bytes data = m.Encode();
  data.push_back(0xff);
  EXPECT_FALSE(Mutation::Decode(data).ok());
}

TEST(MutationTest, HostileRowCountIsCorruption) {
  // [op=insert]["t"][row count 0xFFFFFFFF]: 10 bytes that once sized a
  // reservation of four billion values.
  BinaryWriter w;
  w.WriteU8(0);
  w.WriteString("t");
  w.WriteU32(0xFFFFFFFF);
  ASSERT_EQ(w.bytes().size(), 10u);
  EXPECT_EQ(Mutation::Decode(w.bytes()).status().code(),
            StatusCode::kCorruption);
}

// --------------------------------------------------------------- Database

TEST(DatabaseTest, CreateAndApply) {
  Database db;
  ASSERT_TRUE(db.CreateTable("worklog", WorklogSchema()).ok());
  EXPECT_FALSE(db.CreateTable("worklog", WorklogSchema()).ok());

  Mutation m;
  m.op = Mutation::Op::kInsert;
  m.table = "worklog";
  m.row = MakeWorklogRow("t1", "w1", 8, 100);
  EXPECT_TRUE(db.Apply(m).ok());
  EXPECT_EQ(db.version(), 1u);
  EXPECT_EQ((*db.GetTable("worklog"))->size(), 1u);
}

TEST(DatabaseTest, ApplyToMissingTableFails) {
  Database db;
  Mutation m;
  m.op = Mutation::Op::kInsert;
  m.table = "nope";
  EXPECT_EQ(db.Apply(m).code(), StatusCode::kNotFound);
  EXPECT_EQ(db.version(), 0u);
}

TEST(DatabaseTest, FailedApplyDoesNotBumpVersion) {
  Database db;
  ASSERT_TRUE(db.CreateTable("worklog", WorklogSchema()).ok());
  Mutation m;
  m.op = Mutation::Op::kUpdate;  // Nothing to update.
  m.table = "worklog";
  m.row = MakeWorklogRow("t1", "w1", 8, 100);
  EXPECT_FALSE(db.Apply(m).ok());
  EXPECT_EQ(db.version(), 0u);
}

/// Records what commit observers saw: the op and the pre-image, if any.
struct ObservedCommit {
  Mutation::Op op;
  std::optional<Row> before;
  uint64_t version;
};

void RecordCommits(Database& db, std::vector<ObservedCommit>* seen) {
  db.AddCommitObserver(
      [seen](const Mutation& m, const Row* before, uint64_t version) {
        seen->push_back({m.op,
                         before != nullptr ? std::optional<Row>(*before)
                                           : std::nullopt,
                         version});
      });
}

std::vector<Mutation> PreImageScript() {
  std::vector<Mutation> script(5);
  for (Mutation& m : script) m.table = "worklog";
  script[0].op = Mutation::Op::kInsert;
  script[0].row = MakeWorklogRow("t1", "w1", 8, 100);
  script[1].op = Mutation::Op::kUpsert;  // New key.
  script[1].row = MakeWorklogRow("t2", "w1", 4, 100);
  script[2].op = Mutation::Op::kUpsert;  // Replaces t1.
  script[2].row = MakeWorklogRow("t1", "w2", 9, 200);
  script[3].op = Mutation::Op::kUpdate;
  script[3].row = MakeWorklogRow("t1", "w3", 10, 300);
  script[4].op = Mutation::Op::kDelete;
  script[4].key = Value::String("t1");
  return script;
}

void ExpectPreImages(const std::vector<ObservedCommit>& seen) {
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_FALSE(seen[0].before.has_value());
  EXPECT_FALSE(seen[1].before.has_value());
  EXPECT_EQ(seen[2].before, MakeWorklogRow("t1", "w1", 8, 100));
  EXPECT_EQ(seen[3].before, MakeWorklogRow("t1", "w2", 9, 200));
  EXPECT_EQ(seen[4].before, MakeWorklogRow("t1", "w3", 10, 300));
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].version, i + 1);
  }
}

TEST(DatabaseTest, CommitObserversSeeThePreImage) {
  Database db;
  ASSERT_TRUE(db.CreateTable("worklog", WorklogSchema()).ok());
  std::vector<ObservedCommit> seen;
  RecordCommits(db, &seen);
  for (const Mutation& m : PreImageScript()) ASSERT_TRUE(db.Apply(m).ok());
  ExpectPreImages(seen);
}

// -------------------------------------------------------------------- WAL

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "prever_wal_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(WalTest, AppendAndRecover) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append(ToBytes("one")).ok());
    ASSERT_TRUE(wal.Append(ToBytes("two")).ok());
  }
  bool truncated = true;
  auto records = WriteAheadLog::Recover(path_, &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(ToString((*records)[0]), "one");
  EXPECT_EQ(ToString((*records)[1]), "two");
}

TEST_F(WalTest, AppendBatchIsByteIdenticalToSerialAppends) {
  std::vector<Bytes> records = {ToBytes("one"), ToBytes("two"), Bytes{},
                                ToBytes(std::string(1000, 'x'))};
  std::string serial_path = path_ + ".serial";
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(serial_path).ok());
    for (const Bytes& r : records) ASSERT_TRUE(wal.Append(r).ok());
  }
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.AppendBatch(records).ok());
  }
  auto slurp = [](const std::string& p) {
    std::FILE* f = std::fopen(p.c_str(), "rb");
    std::string all;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) all.append(buf, n);
    std::fclose(f);
    return all;
  };
  EXPECT_EQ(slurp(path_), slurp(serial_path));
  std::remove(serial_path.c_str());

  bool truncated = true;
  auto recovered = WriteAheadLog::Recover(path_, &truncated);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(recovered->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*recovered)[i], records[i]) << i;
  }
}

TEST_F(WalTest, AppendBatchEmptyIsNoOp) {
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path_).ok());
  ASSERT_TRUE(wal.AppendBatch({}).ok());
  ASSERT_TRUE(wal.Append(ToBytes("after")).ok());
  wal.Close();
  auto records = WriteAheadLog::Recover(path_);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
}

TEST_F(WalTest, MissingFileIsEmptyHistory) {
  auto records = WriteAheadLog::Recover(path_);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST_F(WalTest, TornTailIsSkipped) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append(ToBytes("good")).ok());
  }
  // Append a torn record: header promising more bytes than present.
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  uint8_t torn[8] = {100, 0, 0, 0, 1, 2, 3, 4};
  std::fwrite(torn, 1, 8, f);
  std::fclose(f);

  bool truncated = false;
  auto records = WriteAheadLog::Recover(path_, &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(truncated);
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ(ToString((*records)[0]), "good");
}

TEST_F(WalTest, CorruptRecordStopsRecovery) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append(ToBytes("first")).ok());
    ASSERT_TRUE(wal.Append(ToBytes("second")).ok());
  }
  // Flip a byte inside the second record's payload.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  std::fseek(f, -1, SEEK_END);
  int c = 0;
  std::fread(&c, 1, 1, f);
  std::fseek(f, -1, SEEK_END);
  uint8_t flipped = static_cast<uint8_t>(c) ^ 0xff;
  std::fwrite(&flipped, 1, 1, f);
  std::fclose(f);

  bool truncated = false;
  auto records = WriteAheadLog::Recover(path_, &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(truncated);
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ(ToString((*records)[0]), "first");
}

TEST_F(WalTest, TruncationMidRecordRecoversLongestValidPrefix) {
  // A crash during a write can leave the last record cut at ANY byte: inside
  // the payload, inside the crc, or inside the length field. Recovery must
  // return the records before it in every case.
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append(ToBytes("alpha")).ok());
    ASSERT_TRUE(wal.Append(ToBytes("beta")).ok());
    ASSERT_TRUE(wal.Append(ToBytes("gamma-long-payload")).ok());
  }
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long full = std::ftell(f);
  std::fclose(f);
  // Third record occupies 8 + 18 bytes; walk the cut point through it.
  for (long cut = full - 1; cut > full - 26; --cut) {
    ASSERT_EQ(::truncate(path_.c_str(), cut), 0);
    bool truncated = false;
    auto records = WriteAheadLog::Recover(path_, &truncated);
    ASSERT_TRUE(records.ok()) << "cut at " << cut;
    EXPECT_TRUE(truncated) << "cut at " << cut;
    ASSERT_EQ(records->size(), 2u) << "cut at " << cut;
    EXPECT_EQ(ToString((*records)[0]), "alpha");
    EXPECT_EQ(ToString((*records)[1]), "beta");
  }
}

TEST_F(WalTest, DatabaseReplaysTornLogUpToLastIntactRecord) {
  {
    Database db;
    ASSERT_TRUE(db.CreateTable("worklog", WorklogSchema()).ok());
    ASSERT_TRUE(db.EnableWal(path_).ok());
    for (int i = 0; i < 4; ++i) {
      Mutation m;
      m.op = Mutation::Op::kInsert;
      m.table = "worklog";
      m.row = MakeWorklogRow("t" + std::to_string(i), "w1", i, 100 * i);
      ASSERT_TRUE(db.Apply(m).ok());
    }
  }
  // Tear the final record mid-payload.
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long full = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(path_.c_str(), full - 3), 0);

  Database recovered;
  ASSERT_TRUE(recovered.CreateTable("worklog", WorklogSchema()).ok());
  ASSERT_TRUE(recovered.ReplayLog(path_).ok());
  const Table* t = *recovered.GetTable("worklog");
  EXPECT_EQ(t->size(), 3u);
  EXPECT_TRUE(t->Contains(Value::String("t2")));
  EXPECT_FALSE(t->Contains(Value::String("t3")));
}

TEST_F(WalTest, DatabaseCrashRecovery) {
  // Write through a WAL-enabled database, then rebuild from the log alone.
  {
    Database db;
    ASSERT_TRUE(db.CreateTable("worklog", WorklogSchema()).ok());
    ASSERT_TRUE(db.EnableWal(path_).ok());
    for (int i = 0; i < 5; ++i) {
      Mutation m;
      m.op = Mutation::Op::kInsert;
      m.table = "worklog";
      m.row = MakeWorklogRow("t" + std::to_string(i), "w1", i, 100 * i);
      ASSERT_TRUE(db.Apply(m).ok());
    }
    Mutation del;
    del.op = Mutation::Op::kDelete;
    del.table = "worklog";
    del.key = Value::String("t0");
    ASSERT_TRUE(db.Apply(del).ok());
  }  // "Crash".

  Database recovered;
  ASSERT_TRUE(recovered.CreateTable("worklog", WorklogSchema()).ok());
  ASSERT_TRUE(recovered.ReplayLog(path_).ok());
  EXPECT_EQ(recovered.version(), 6u);
  const Table* t = *recovered.GetTable("worklog");
  EXPECT_EQ(t->size(), 4u);
  EXPECT_FALSE(t->Contains(Value::String("t0")));
  EXPECT_TRUE(t->Contains(Value::String("t4")));
}

TEST_F(WalTest, ReplayPassesPreImagesToObservers) {
  {
    Database db;
    ASSERT_TRUE(db.CreateTable("worklog", WorklogSchema()).ok());
    ASSERT_TRUE(db.EnableWal(path_).ok());
    for (const Mutation& m : PreImageScript()) ASSERT_TRUE(db.Apply(m).ok());
  }
  Database recovered;
  ASSERT_TRUE(recovered.CreateTable("worklog", WorklogSchema()).ok());
  std::vector<ObservedCommit> seen;
  RecordCommits(recovered, &seen);
  ASSERT_TRUE(recovered.ReplayLog(path_).ok());
  ExpectPreImages(seen);
}

}  // namespace
}  // namespace prever::storage
