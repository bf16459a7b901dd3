#ifndef PREVER_TESTING_CRASH_RECOVERY_H_
#define PREVER_TESTING_CRASH_RECOVERY_H_

#include <string>

#include "common/sim_clock.h"
#include "core/ordering.h"

namespace prever::simtest {

/// Where in the durability pipeline a seed-chosen crash lands. Beyond the
/// clean crash-stop, the damaging kinds model a kill in the middle of a
/// durable write: the harness mutilates the on-disk state exactly as an
/// interrupted write would, then restarts through the real recovery path.
enum class CrashPoint : uint8_t {
  kClean = 0,           ///< Crash between durable operations; files intact.
  kMidWalAppend,        ///< Torn commit-journal tail (partial last record).
  kMidCheckpointTmp,    ///< Torn checkpoint .tmp left in the store directory.
  kMidCheckpointFinal,  ///< Newest final checkpoint corrupted (flipped byte):
                        ///< must be quarantined, previous checkpoint + longer
                        ///< journal replay must cover.
};

const char* CrashPointName(CrashPoint point);

/// Configuration for one randomized end-to-end crash/recovery scenario: an
/// ordering service commits payloads while seed-chosen replicas are killed
/// (CrashReplica) at seed-chosen crash points, the victim's durable state
/// is damaged per the crash point, and every victim restarts through the
/// ordering's own RestartReplica: checkpoint load + journal replay +
/// consensus-level recovery (Raft snapshot/log replay, PBFT checkpoint
/// install + state transfer).
struct CrashRecoveryOptions {
  size_t num_replicas = 4;
  size_t num_payloads = 48;
  size_t max_crashes = 3;
  /// Max payloads committed by the survivors while a victim is down — forces
  /// the restarted replica to catch up past its own durable state.
  size_t max_gap = 4;
  /// The ordering's recovery config. `durable_dir` must be writable and
  /// unique per concurrent scenario (default: a per-seed temp directory);
  /// the tree is removed at scenario end. Raft ignores the PBFT-only
  /// `checkpoint_interval` and `enable_state_transfer`.
  core::OrderingRecoveryConfig recovery = [] {
    core::OrderingRecoveryConfig r;
    r.checkpoint_interval = 4;
    r.enable_state_transfer = true;
    return r;
  }();
};

struct CrashRecoveryReport {
  bool ok = true;
  uint64_t seed = 0;
  std::string violation;  ///< First failed check; empty when ok.
  std::string trace;      ///< Deterministic event trace (crashes, recoveries).
  size_t crashes = 0;
  size_t recoveries = 0;
  uint64_t checkpoints_saved = 0;
  uint64_t checkpoints_quarantined = 0;
  uint64_t journal_entries_replayed = 0;
  uint64_t committed = 0;  ///< Replica-0 ledger size at scenario end.

  /// Human-readable failure report with the seed for replay.
  std::string Summary(const char* protocol) const;
};

/// One scenario over core::RaftOrdering or core::PbftOrdering. The
/// protocols differ only in data: whether replica 0 (the commit counter
/// Flush waits on) may be a victim (Raft: yes; PBFT: no), how many replicas
/// may be down at once ((n-1)/2 vs f), the quiet tail after the last Flush
/// (5 s vs 10 s, PBFT state transfer needs the longer one), and which log
/// must stay bounded by the checkpoint interval (the physical Raft log,
/// compacted at every durable checkpoint, vs the PBFT message log,
/// garbage-collected below the stable checkpoint). Final checks: the
/// commit counter equals the payloads submitted, every payload committed
/// exactly once on replica 0, all replica ledgers digest-identical on their
/// common prefix, a final checkpoint's manifest matches the recomputed
/// Merkle root, and that log bound.
template <typename OrderingT>
CrashRecoveryReport RunCrashRecoveryScenario(
    uint64_t seed, const CrashRecoveryOptions& options);

extern template CrashRecoveryReport RunCrashRecoveryScenario<
    core::RaftOrdering>(uint64_t seed, const CrashRecoveryOptions& options);
extern template CrashRecoveryReport RunCrashRecoveryScenario<
    core::PbftOrdering>(uint64_t seed, const CrashRecoveryOptions& options);

}  // namespace prever::simtest

#endif  // PREVER_TESTING_CRASH_RECOVERY_H_
