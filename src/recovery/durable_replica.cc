#include "recovery/durable_replica.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/registry.h"

namespace prever::recovery {

namespace {

obs::Histogram& RecoveryTimeHistogram() {
  static obs::Histogram* h =
      obs::Registry::Default().GetHistogram("prever_recovery_time_us");
  return *h;
}

}  // namespace

DurableReplica::DurableReplica(std::string dir, uint64_t checkpoint_every)
    : store_(dir + "/ckpt"),
      journal_path_(dir + "/journal.wal"),
      checkpoint_every_(std::max<uint64_t>(checkpoint_every, 1)) {}

Status DurableReplica::Open() {
  PREVER_RETURN_IF_ERROR(store_.Init());
  return journal_.Open(journal_path_);
}

bool DurableReplica::JournalCommit(const JournalEvent& event,
                                   const ledger::LedgerDb& ledger,
                                   const std::function<Bytes()>& app_state) {
  if (crashed_ || !journal_.is_open()) return false;
  (void)journal_.Append(event);
  if (++events_since_ckpt_ < checkpoint_every_) return false;
  events_since_ckpt_ = 0;
  return SaveCheckpoint(ledger, event.position, app_state());
}

void DurableReplica::PersistInstalledState(
    const ledger::LedgerDb& ledger, uint64_t position,
    const std::function<Bytes()>& app_state) {
  if (crashed_ || !journal_.is_open()) return;
  if (position <= last_ckpt_seq_) return;  // The chain already covers it.
  (void)SaveCheckpoint(ledger, position, app_state());
}

bool DurableReplica::SaveCheckpoint(const ledger::LedgerDb& ledger,
                                    uint64_t position, Bytes app_state) {
  CheckpointContents contents;
  contents.ledger = &ledger;
  contents.consensus_seq = position;
  contents.app_state = std::move(app_state);
  if (!store_.Save(contents).ok()) return false;
  ++checkpoints_saved_;
  prev_ckpt_seq_ = last_ckpt_seq_;
  last_ckpt_seq_ = position;
  events_since_ckpt_ = 0;
  store_.GarbageCollect(2);
  (void)journal_.TruncateBelow(prev_ckpt_seq_);
  return true;
}

void DurableReplica::Crash() {
  crashed_ = true;
  journal_.Close();
}

Result<RebuiltReplica> DurableReplica::Rebuild() {
  auto t0 = std::chrono::steady_clock::now();
  RebuiltReplica out;
  uint64_t checkpoint_seq = 0;
  auto ckpt = store_.LoadLatest();
  if (ckpt.ok()) {
    out.ledger = std::move(ckpt->ledger);
    checkpoint_seq = ckpt->manifest.consensus_seq;
    out.floor = checkpoint_seq;
    out.app_state = std::move(ckpt->app_state);
  } else if (ckpt.status().code() != StatusCode::kNotFound) {
    return ckpt.status();
  }
  PREVER_ASSIGN_OR_RETURN(std::vector<JournalEvent> events,
                          CommitJournal::Recover(journal_path_));
  // Exactly the events replayed survive the restart: torn tails, events the
  // checkpoint covers, and events past a replay gap are dropped.
  std::vector<JournalEvent> kept;
  for (JournalEvent& event : events) {
    if (event.position <= checkpoint_seq) continue;
    auto appended = ReplayLedgerSuffix(event.entries, &out.ledger);
    if (!appended.ok()) {
      // A gap means the checkpoint bridging two journal epochs (persisted
      // when state transfer replaced the ledger wholesale) was itself lost
      // to corruption. Keep the longest contiguous durable prefix; snapshot
      // install or state transfer re-delivers the rest.
      break;
    }
    entries_replayed_ += *appended;
    out.batch_ids.push_back(event.batch_id);
    out.floor = std::max(out.floor, event.position);
    kept.push_back(std::move(event));
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - t0);
  RecoveryTimeHistogram().Record(static_cast<uint64_t>(elapsed.count()));

  // Re-anchor the chain on the checkpoint that actually loaded (the newest
  // may have been quarantined); prev = 0 keeps the journal conservatively
  // long until the next save re-establishes a chain.
  last_ckpt_seq_ = checkpoint_seq;
  prev_ckpt_seq_ = 0;
  journal_.Close();
  std::remove(journal_path_.c_str());
  PREVER_RETURN_IF_ERROR(journal_.Open(journal_path_));
  for (const JournalEvent& event : kept) {
    PREVER_RETURN_IF_ERROR(journal_.Append(event));
  }
  crashed_ = false;
  events_since_ckpt_ = 0;
  return out;
}

}  // namespace prever::recovery
