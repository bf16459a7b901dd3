#include "recovery/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/crc32.h"
#include "common/serial.h"
#include "mutate/mutation.h"
#include "obs/registry.h"
#include "obs/tracing.h"

namespace prever::recovery {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kCheckpointMagic = 0x50525643;  // "PRVC".
constexpr uint32_t kCheckpointFormat = 1;
constexpr char kFilePrefix[] = "ckpt-";
constexpr char kFileSuffix[] = ".ckpt";

obs::Counter& SavesCounter() {
  return *obs::Registry::Default().GetCounter(
      "prever_recovery_checkpoint_saves");
}
obs::Counter& LoadsCounter() {
  return *obs::Registry::Default().GetCounter(
      "prever_recovery_checkpoint_loads");
}
obs::Counter& QuarantineCounter() {
  return *obs::Registry::Default().GetCounter(
      "prever_recovery_checkpoints_quarantined");
}
obs::Counter& ReclaimedCounter() {
  return *obs::Registry::Default().GetCounter(
      "prever_recovery_log_bytes_reclaimed");
}
obs::Counter& ReplayedCounter() {
  return *obs::Registry::Default().GetCounter(
      "prever_recovery_replayed_entries");
}

std::string FileNameFor(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(kFilePrefix) + buf + kFileSuffix;
}

/// Parses "ckpt-<16 hex>.ckpt"; nullopt-style via ok flag.
bool ParseFileId(const std::string& name, uint64_t* id) {
  const std::string prefix = kFilePrefix;
  const std::string suffix = kFileSuffix;
  if (name.size() != prefix.size() + 16 + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = prefix.size(); i < prefix.size() + 16; ++i) {
    char c = name[i];
    uint64_t digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = 10 + (c - 'a');
    else return false;
    v = (v << 4) | digit;
  }
  *id = v;
  return true;
}

/// Reads every CRC32-framed record of a checkpoint file. Unlike the WAL's
/// clean-prefix recovery, ANY damage (torn header/payload, CRC mismatch,
/// trailing garbage) makes the whole checkpoint unusable: the file was
/// renamed into place only after a full flush, so damage means corruption,
/// not an interrupted append.
Result<std::vector<Bytes>> ReadRecords(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no checkpoint file: " + path);
  std::vector<Bytes> records;
  Status status = Status::Ok();
  for (;;) {
    uint8_t header[8];
    size_t got = std::fread(header, 1, 8, f);
    if (got == 0) break;  // Clean EOF.
    if (got < 8) {
      status = Status::Corruption("torn record header in " + path);
      break;
    }
    uint32_t len = 0, crc = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(header[i]) << (8 * i);
    }
    for (int i = 0; i < 4; ++i) {
      crc |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
    }
    constexpr uint32_t kMaxRecord = 64u << 20;
    if (len > kMaxRecord) {
      status = Status::Corruption("oversized record in " + path);
      break;
    }
    Bytes payload(len);
    if (len != 0 && std::fread(payload.data(), 1, len, f) != len) {
      status = Status::Corruption("torn record payload in " + path);
      break;
    }
    if (PREVER_MUTATION(RECOVERY_CRC_CHECK_SKIP, Crc32(payload) != crc,
                        false)) {
      status = Status::Corruption("record CRC mismatch in " + path);
      break;
    }
    records.push_back(std::move(payload));
  }
  std::fclose(f);
  if (!status.ok()) return status;
  return records;
}

Status WriteRecords(const std::string& path,
                    const std::vector<Bytes>& records) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open checkpoint tmp: " + path);
  }
  Bytes buffer;
  size_t total = 0;
  for (const Bytes& r : records) total += 8 + r.size();
  buffer.reserve(total);
  for (const Bytes& r : records) {
    uint32_t len = static_cast<uint32_t>(r.size());
    uint32_t crc = Crc32(r);
    for (int i = 0; i < 4; ++i) {
      buffer.push_back(static_cast<uint8_t>(len >> (8 * i)));
    }
    for (int i = 0; i < 4; ++i) {
      buffer.push_back(static_cast<uint8_t>(crc >> (8 * i)));
    }
    buffer.insert(buffer.end(), r.begin(), r.end());
  }
  bool ok = buffer.empty() ||
            std::fwrite(buffer.data(), 1, buffer.size(), f) == buffer.size();
  ok = ok && std::fflush(f) == 0;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(path.c_str());
    return Status::Internal("checkpoint write failed: " + path);
  }
  return Status::Ok();
}

Bytes EncodeManifest(const CheckpointManifest& m) {
  BinaryWriter w;
  w.WriteU32(kCheckpointMagic);
  w.WriteU32(kCheckpointFormat);
  w.WriteU64(m.checkpoint_id);
  w.WriteU64(m.consensus_seq);
  w.WriteU64(m.ledger_size);
  w.WriteBytes(m.ledger_root);
  w.WriteU64(m.db_version);
  w.WriteU64(m.catalog_revision);
  return w.Take();
}

Result<CheckpointManifest> DecodeManifest(const Bytes& data) {
  BinaryReader r(data);
  PREVER_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kCheckpointMagic) {
    return Status::Corruption("bad checkpoint magic");
  }
  PREVER_ASSIGN_OR_RETURN(uint32_t format, r.ReadU32());
  if (format != kCheckpointFormat) {
    return Status::Corruption("unknown checkpoint format " +
                              std::to_string(format));
  }
  CheckpointManifest m;
  PREVER_ASSIGN_OR_RETURN(m.checkpoint_id, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(m.consensus_seq, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(m.ledger_size, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(m.ledger_root, r.ReadBytes());
  PREVER_ASSIGN_OR_RETURN(m.db_version, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(m.catalog_revision, r.ReadU64());
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in manifest");
  return m;
}

Result<Checkpoint> ParseCheckpointFile(const std::string& path) {
  PREVER_ASSIGN_OR_RETURN(std::vector<Bytes> records, ReadRecords(path));
  if (records.empty()) return Status::Corruption("empty checkpoint file");
  PREVER_ASSIGN_OR_RETURN(CheckpointManifest manifest,
                          DecodeManifest(records[0]));
  // Fixed layout: manifest, ledger entries, serials, db image, app state.
  if (records.size() != 1 + manifest.ledger_size + 3) {
    return Status::Corruption("checkpoint record count mismatch");
  }
  std::vector<Bytes> entry_records(
      records.begin() + 1, records.begin() + 1 + manifest.ledger_size);
  PREVER_ASSIGN_OR_RETURN(ledger::LedgerDb ledger,
                          ledger::LedgerDb::FromRecords(entry_records));
  // The manifest's root commits to the ledger state; recompute and compare
  // so a checkpoint whose journal and manifest disagree (bit rot the CRC
  // happened to miss, or a buggy writer) is rejected rather than trusted.
  if (PREVER_MUTATION(RECOVERY_ROOT_CHECK_SKIP,
                      ledger.Digest().root != manifest.ledger_root, false)) {
    return Status::IntegrityViolation(
        "checkpoint Merkle root does not match recomputed ledger root");
  }
  Checkpoint ckpt;
  ckpt.manifest = std::move(manifest);
  ckpt.ledger = std::move(ledger);
  const Bytes& serials_blob = records[records.size() - 3];
  BinaryReader sr(serials_blob);
  PREVER_ASSIGN_OR_RETURN(uint64_t n_serials, sr.ReadU64());
  // Each serial is at least its u32 length prefix: a larger count cannot
  // be real, so it must not size the reservation.
  if (n_serials > sr.remaining() / 4) {
    return Status::Corruption("serial count exceeds remaining bytes");
  }
  ckpt.spent_serials.reserve(n_serials);
  for (uint64_t i = 0; i < n_serials; ++i) {
    PREVER_ASSIGN_OR_RETURN(Bytes serial, sr.ReadBytes());
    ckpt.spent_serials.push_back(std::move(serial));
  }
  if (!sr.AtEnd()) return Status::Corruption("trailing bytes in serials");
  ckpt.db_image = records[records.size() - 2];
  ckpt.app_state = records[records.size() - 1];
  return ckpt;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {}

Status CheckpointStore::Init() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create checkpoint dir " + dir_ + ": " +
                            ec.message());
  }
  return Status::Ok();
}

std::vector<std::string> CheckpointStore::ListFiles() const {
  std::vector<std::pair<uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    uint64_t id = 0;
    if (ParseFileId(name, &id)) found.emplace_back(id, std::move(name));
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> names;
  names.reserve(found.size());
  for (auto& [id, name] : found) names.push_back(std::move(name));
  return names;
}

Result<uint64_t> CheckpointStore::Save(const CheckpointContents& contents) {
  if (contents.ledger == nullptr) {
    return Status::InvalidArgument("checkpoint needs a ledger");
  }
  uint64_t id = next_id_;
  for (const std::string& name : ListFiles()) {
    uint64_t existing = 0;
    if (ParseFileId(name, &existing) && existing >= id) id = existing + 1;
  }

  CheckpointManifest manifest;
  manifest.checkpoint_id = id;
  manifest.consensus_seq = contents.consensus_seq;
  manifest.ledger_size = contents.ledger->size();
  manifest.ledger_root = contents.ledger->Digest().root;
  manifest.db_version = contents.db_version;
  manifest.catalog_revision = contents.catalog_revision;

  std::vector<Bytes> records;
  records.reserve(2 + manifest.ledger_size + 2);
  records.push_back(EncodeManifest(manifest));
  for (Bytes& entry : contents.ledger->EncodeEntries()) {
    records.push_back(std::move(entry));
  }
  BinaryWriter serials;
  serials.WriteU64(contents.spent_serials.size());
  for (const Bytes& s : contents.spent_serials) serials.WriteBytes(s);
  records.push_back(serials.Take());
  records.push_back(contents.db_image);
  records.push_back(contents.app_state);

  std::string final_path = dir_ + "/" + FileNameFor(id);
  std::string tmp_path = final_path + ".tmp";
  PREVER_RETURN_IF_ERROR(WriteRecords(tmp_path, records));
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Internal("checkpoint rename failed: " + final_path);
  }
  next_id_ = id + 1;
  SavesCounter().Inc();
  return id;
}

Result<Checkpoint> CheckpointStore::LoadLatest() {
  PREVER_CAUSAL_SPAN(causal_load, obs::TraceStage::kRecoverLoad);
  std::vector<std::string> files = ListFiles();
  // Newest first: a later checkpoint covers a longer prefix, so falling back
  // to an older one is safe (longer journal replay) while loading a stale
  // one as if it were the newest silently rewinds acknowledged state.
  if (PREVER_MUTATION(RECOVERY_STALE_CHECKPOINT_ACCEPT, true, false)) {
    std::reverse(files.begin(), files.end());
  }
  for (const std::string& name : files) {
    std::string path = dir_ + "/" + name;
    Result<Checkpoint> parsed = ParseCheckpointFile(path);
    if (parsed.ok()) {
      LoadsCounter().Inc();
      return parsed;
    }
    // Quarantine, never delete: keep the corrupt bytes for forensics while
    // guaranteeing this file is never considered again.
    std::string quarantine = path + ".quarantined";
    std::rename(path.c_str(), quarantine.c_str());
    ++quarantined_;
    QuarantineCounter().Inc();
  }
  return Status::NotFound("no intact checkpoint in " + dir_);
}

uint64_t CheckpointStore::GarbageCollect(size_t keep) {
  std::vector<std::string> files = ListFiles();
  uint64_t reclaimed = 0;
  size_t deletable = files.size() > keep ? files.size() - keep : 0;
  for (size_t i = 0; i < deletable; ++i) {
    std::string path = dir_ + "/" + files[i];
    std::error_code ec;
    uint64_t size = fs::file_size(path, ec);
    if (!ec && fs::remove(path, ec) && !ec) reclaimed += size;
  }
  if (reclaimed > 0) ReclaimedCounter().Inc(reclaimed);
  return reclaimed;
}

Bytes EncodeDatabaseImage(const storage::Database& db) {
  BinaryWriter w;
  w.WriteU64(db.version());
  std::vector<std::string> names = db.TableNames();
  w.WriteU32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    const storage::Table* table = *db.GetTable(name);
    w.WriteString(name);
    table->schema().EncodeTo(w);
    w.WriteU64(table->size());
    table->Scan([&w](const storage::Row& row) {
      w.WriteU32(static_cast<uint32_t>(row.size()));
      for (const storage::Value& v : row) v.EncodeTo(w);
      return true;
    });
  }
  return w.Take();
}

Result<uint64_t> RestoreDatabaseImage(const Bytes& image,
                                      storage::Database* db) {
  BinaryReader r(image);
  PREVER_ASSIGN_OR_RETURN(uint64_t version, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(uint32_t n_tables, r.ReadU32());
  for (uint32_t t = 0; t < n_tables; ++t) {
    PREVER_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    PREVER_ASSIGN_OR_RETURN(storage::Schema schema,
                            storage::Schema::DecodeFrom(r));
    PREVER_ASSIGN_OR_RETURN(uint64_t n_rows, r.ReadU64());
    PREVER_RETURN_IF_ERROR(db->CreateTable(name, schema));
    PREVER_ASSIGN_OR_RETURN(storage::Table * table, db->GetMutableTable(name));
    for (uint64_t i = 0; i < n_rows; ++i) {
      // Every encoded value takes at least two bytes.
      PREVER_ASSIGN_OR_RETURN(uint32_t n_values, r.ReadCount(2));
      storage::Row row;
      row.reserve(n_values);
      for (uint32_t j = 0; j < n_values; ++j) {
        PREVER_ASSIGN_OR_RETURN(storage::Value v,
                                storage::Value::DecodeFrom(r));
        row.push_back(std::move(v));
      }
      PREVER_RETURN_IF_ERROR(table->Insert(row));
    }
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in db image");
  return version;
}

Result<uint64_t> ReplayLedgerSuffix(const std::vector<Bytes>& records,
                                    ledger::LedgerDb* ledger) {
  PREVER_CAUSAL_SPAN(causal_replay, obs::TraceStage::kRecoverReplay);
  uint64_t appended = 0;
  for (const Bytes& record : records) {
    PREVER_ASSIGN_OR_RETURN(ledger::LedgerEntry entry,
                            ledger::LedgerEntry::Decode(record));
    // Entries the checkpoint already covers are skipped, NOT re-appended:
    // the journal always starts at sequence 0 of its epoch while the
    // checkpoint may cover an arbitrary prefix of it.
    if (PREVER_MUTATION(RECOVERY_REPLAY_OFF_BY_ONE,
                        entry.sequence < ledger->size(),
                        entry.sequence <= ledger->size())) {
      continue;
    }
    if (entry.sequence != ledger->size()) {
      return Status::Corruption("journal replay gap at sequence " +
                                std::to_string(ledger->size()));
    }
    ledger->Append(entry.payload, entry.timestamp);
    ++appended;
  }
  if (appended > 0) ReplayedCounter().Inc(appended);
  return appended;
}

}  // namespace prever::recovery
