#ifndef PREVER_RECOVERY_DURABLE_REPLICA_H_
#define PREVER_RECOVERY_DURABLE_REPLICA_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "ledger/ledger_db.h"
#include "recovery/checkpoint.h"
#include "recovery/journal.h"

namespace prever::recovery {

/// What one replica's durable state holds at restart, before the consensus
/// layer is involved.
struct RebuiltReplica {
  ledger::LedgerDb ledger;
  uint64_t floor = 0;  ///< Highest consensus position the ledger covers.
  Bytes app_state;     ///< The checkpoint's opaque consensus blob.
  std::vector<uint64_t> batch_ids;  ///< Batches of the replayed journal events.
};

/// One replica's durable state (DESIGN.md "Crash recovery & state
/// transfer"): a checkpoint store in `<dir>/ckpt` and a commit journal in
/// `<dir>/journal.wal`. The ordering services own one per replica when
/// their recovery config names a durable directory, and drive its three
/// operations: journal each commit (checkpointing every `checkpoint_every`
/// commits), persist consensus-installed state, and rebuild at restart.
///
/// The journal is truncated only below the *previous* checkpoint, so a
/// corrupt newest checkpoint still recovers from the one before it plus a
/// longer journal replay. Not thread-safe; the owner serializes calls.
class DurableReplica {
 public:
  DurableReplica(std::string dir, uint64_t checkpoint_every);

  /// Creates the directory tree and opens the journal for appending.
  Status Open();

  /// Journals one commit event. Every `checkpoint_every` events it also
  /// checkpoints `ledger` at the event's position with the blob
  /// `app_state()` returns, and returns true when that checkpoint was saved.
  /// A crashed replica writes nothing.
  bool JournalCommit(const JournalEvent& event, const ledger::LedgerDb& ledger,
                     const std::function<Bytes()>& app_state);

  /// A consensus-level state install (Raft InstallSnapshot, PBFT state
  /// transfer) replaces the ledger wholesale, bypassing the journal, which
  /// would then have a hole below the installed state. Saving the installed
  /// state as a checkpoint keeps the on-disk chain contiguous. No-op when
  /// crashed or when the existing chain already covers `position`.
  void PersistInstalledState(const ledger::LedgerDb& ledger, uint64_t position,
                             const std::function<Bytes()>& app_state);

  /// The process dies: nothing more is written until Rebuild. The files
  /// stay exactly as the kill left them.
  void Crash();

  /// The recovery read path: the newest intact checkpoint (corrupt ones are
  /// quarantined by the store) plus the journal suffix above it. A replay
  /// gap ends the replay; consensus re-delivers the rest. The journal is
  /// then rewritten to exactly the events replayed and reopened, and the
  /// checkpoint chain re-anchored on what survived. Records wall-clock time
  /// into `prever_recovery_time_us`.
  Result<RebuiltReplica> Rebuild();

  const std::string& journal_path() const { return journal_path_; }
  CheckpointStore& store() { return store_; }
  const CheckpointStore& store() const { return store_; }

  /// Checkpoints saved by JournalCommit and PersistInstalledState.
  uint64_t checkpoints_saved() const { return checkpoints_saved_; }
  /// Ledger entries appended by journal replay, over every Rebuild.
  uint64_t entries_replayed() const { return entries_replayed_; }

 private:
  bool SaveCheckpoint(const ledger::LedgerDb& ledger, uint64_t position,
                      Bytes app_state);

  CheckpointStore store_;
  CommitJournal journal_;
  std::string journal_path_;
  uint64_t checkpoint_every_;
  uint64_t events_since_ckpt_ = 0;
  /// consensus_seq of the newest and second-newest durable checkpoints.
  uint64_t last_ckpt_seq_ = 0;
  uint64_t prev_ckpt_seq_ = 0;
  bool crashed_ = false;
  uint64_t checkpoints_saved_ = 0;
  uint64_t entries_replayed_ = 0;
};

}  // namespace prever::recovery

#endif  // PREVER_RECOVERY_DURABLE_REPLICA_H_
