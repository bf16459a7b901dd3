#include "testing/crash_recovery.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <system_error>
#include <vector>

#include "common/rng.h"
#include "core/ordering.h"
#include "recovery/checkpoint.h"
#include "recovery/durable_replica.h"
#include "testing/invariants.h"

namespace prever::simtest {

namespace {

namespace fs = std::filesystem;

/// One scheduled kill: after committing payload `at`, replica `victim` dies
/// at `point`; it restarts once `recover_at` payloads have been submitted.
struct CrashEvent {
  size_t at = 0;
  size_t recover_at = 0;
  size_t victim = 0;
  CrashPoint point = CrashPoint::kClean;
};

/// Mutilates the victim's durable files exactly as a kill at `point` would.
void ApplyCrashDamage(recovery::DurableReplica& d, CrashPoint point, Rng& rng,
                      std::string* trace) {
  std::error_code ec;
  switch (point) {
    case CrashPoint::kClean:
      break;
    case CrashPoint::kMidWalAppend: {
      // A torn final journal record: the kill landed mid-fwrite. Recovery
      // must keep the clean prefix and the consensus layer re-delivers the
      // lost tail.
      auto size = fs::file_size(d.journal_path(), ec);
      if (!ec && size > 0) {
        uint64_t cut = 1 + rng.NextBelow(std::min<uint64_t>(8, size));
        fs::resize_file(d.journal_path(), size - cut, ec);
        if (trace) {
          *trace += "  torn journal tail: -" + std::to_string(cut) + "B\n";
        }
      }
      break;
    }
    case CrashPoint::kMidCheckpointTmp: {
      // A kill mid-checkpoint-write leaves a partial .tmp the loader must
      // never consider.
      std::string tmp = d.store().dir() + "/ckpt-ffffffffffffffff.ckpt.tmp";
      if (FILE* f = std::fopen(tmp.c_str(), "wb")) {
        Bytes garbage = rng.NextBytes(64 + rng.NextBelow(192));
        std::fwrite(garbage.data(), 1, garbage.size(), f);
        std::fclose(f);
        if (trace) *trace += "  torn checkpoint .tmp left behind\n";
      }
      break;
    }
    case CrashPoint::kMidCheckpointFinal: {
      // Bit-rot / partial rename on the newest final checkpoint: CRC must
      // catch it, the loader must quarantine and fall back.
      std::vector<std::string> files = d.store().ListFiles();
      if (!files.empty()) {
        std::string path = d.store().dir() + "/" + files.back();
        auto size = fs::file_size(path, ec);
        if (!ec && size > 0) {
          uint64_t offset = rng.NextBelow(size);
          if (FILE* f = std::fopen(path.c_str(), "r+b")) {
            std::fseek(f, static_cast<long>(offset), SEEK_SET);
            int c = std::fgetc(f);
            std::fseek(f, static_cast<long>(offset), SEEK_SET);
            std::fputc((c ^ 0x5a) & 0xff, f);
            std::fclose(f);
            if (trace) {
              *trace += "  flipped byte " + std::to_string(offset) +
                        " of newest checkpoint\n";
            }
          }
        }
      }
      break;
    }
  }
}

Bytes MakePayload(uint64_t seed, size_t index) {
  std::string s = "pay-" + std::to_string(seed) + "-" + std::to_string(index);
  return Bytes(s.begin(), s.end());
}

/// Seed-derived kill schedule: non-overlapping crash windows, victims and
/// crash points uniform. `allow_replica0` is false for PBFT (replica 0 is
/// the commit counter the flush loop waits on).
std::vector<CrashEvent> PlanCrashes(uint64_t seed,
                                    const CrashRecoveryOptions& options,
                                    bool allow_replica0) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  size_t n_crashes = 1 + rng.NextBelow(std::max<size_t>(options.max_crashes, 1));
  std::vector<CrashEvent> plan;
  size_t cursor = 2 + rng.NextBelow(4);
  for (size_t c = 0; c < n_crashes && cursor + 2 < options.num_payloads; ++c) {
    CrashEvent ev;
    ev.at = cursor;
    ev.victim = allow_replica0 ? rng.NextBelow(options.num_replicas)
                               : 1 + rng.NextBelow(options.num_replicas - 1);
    ev.point = static_cast<CrashPoint>(rng.NextBelow(4));
    size_t gap = rng.NextBelow(options.max_gap + 1);
    ev.recover_at = std::min(ev.at + gap, options.num_payloads - 1);
    plan.push_back(ev);
    cursor = ev.recover_at + 1 + rng.NextBelow(6);
  }
  return plan;
}

/// Save-then-reload: a final checkpoint must survive its own validation and
/// carry the recomputed Merkle root of the live ledger.
template <typename OrderingT>
Status CheckCheckpointRoot(OrderingT& ordering,
                           recovery::CheckpointStore& store) {
  recovery::CheckpointContents contents;
  contents.ledger = &ordering.ReplicaLedger(0);
  contents.consensus_seq = ~uint64_t{0};  // Sentinel: newest by id anyway.
  PREVER_RETURN_IF_ERROR(store.Save(contents).status());
  PREVER_ASSIGN_OR_RETURN(recovery::Checkpoint reloaded, store.LoadLatest());
  auto live = ordering.ReplicaLedger(0).Digest();
  if (reloaded.manifest.ledger_root != live.root ||
      reloaded.ledger.Digest().root != live.root) {
    return Status::IntegrityViolation(
        "final checkpoint root != recomputed ledger Merkle root");
  }
  return Status::Ok();
}

void CleanupWorkDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

std::string DefaultWorkDir(const char* proto, uint64_t seed) {
  std::error_code ec;
  fs::path base = fs::temp_directory_path(ec);
  if (ec) base = ".";
  return (base / ("prever_crashrec_" + std::string(proto) + "_" +
                  std::to_string(seed)))
      .string();
}

/// The scenarios' group-commit window: batches of 4, two in flight.
const core::OrderingPipelineConfig kPipeline = [] {
  core::OrderingPipelineConfig p;
  p.max_batch = 4;
  p.max_inflight = 2;
  return p;
}();

/// What differs between the protocols' scenarios, as data.
template <typename OrderingT>
struct Protocol;

template <>
struct Protocol<core::RaftOrdering> {
  static constexpr const char* kName = "raft";
  /// Replica 0 may die: the scenario enqueues without waiting while it is
  /// down.
  static constexpr bool kReplica0MayDie = true;
  /// Quiet tail after the last Flush: followers drain replication traffic.
  static constexpr SimTime kQuietTail = 5 * kSecond;
  static size_t MaxDown(size_t n) { return (n - 1) / 2; }
  static auto Make(const CrashRecoveryOptions& o,
                   const net::SimNetConfig& net) {
    return std::make_unique<core::RaftOrdering>(o.num_replicas, net,
                                                kPipeline, o.recovery);
  }
  /// The physical log, compacted below the applied floor at every durable
  /// checkpoint: at most `checkpoint_every` applied batches since the last
  /// compaction, plus the re-submitted duplicates and in-flight window.
  static constexpr const char* kLogName = "physical Raft log";
  static size_t LogEntries(core::RaftOrdering& ordering, size_t i) {
    return ordering.cluster().replica(i).physical_log_entries();
  }
  static size_t LogBound(const CrashRecoveryOptions& options) {
    return options.recovery.checkpoint_every + 2 * kPipeline.max_inflight;
  }
};

template <>
struct Protocol<core::PbftOrdering> {
  static constexpr const char* kName = "pbft";
  static constexpr bool kReplica0MayDie = false;
  /// State-transfer rounds (fetch -> responses -> certified suffix
  /// execution) need network time past the last Flush.
  static constexpr SimTime kQuietTail = 10 * kSecond;
  static size_t MaxDown(size_t n) { return std::max<size_t>((n - 1) / 3, 1); }
  static auto Make(const CrashRecoveryOptions& o,
                   const net::SimNetConfig& net) {
    return std::make_unique<core::PbftOrdering>(
        o.num_replicas, net, "pbft-crashrec", kPipeline, o.recovery);
  }
  /// The message log, garbage-collected below the stable checkpoint: the
  /// protocol checkpoint interval plus the watermark window.
  static constexpr const char* kLogName = "PBFT message log";
  static size_t LogEntries(core::PbftOrdering& ordering, size_t i) {
    return ordering.cluster().replica(i).log_slots();
  }
  static size_t LogBound(const CrashRecoveryOptions& options) {
    return 4 * (options.recovery.checkpoint_interval +
                2 * kPipeline.max_inflight * kPipeline.max_batch + 64);
  }
};

/// The durable counters the report carries, summed over the replicas.
template <typename OrderingT>
void ReadDurableCounters(OrderingT& ordering, CrashRecoveryReport* report) {
  report->checkpoints_saved = 0;
  report->checkpoints_quarantined = 0;
  report->journal_entries_replayed = 0;
  for (size_t i = 0; i < ordering.num_replicas(); ++i) {
    const recovery::DurableReplica& d = *ordering.durable(i);
    report->checkpoints_saved += d.checkpoints_saved();
    report->checkpoints_quarantined += d.store().quarantined();
    report->journal_entries_replayed += d.entries_replayed();
  }
}

}  // namespace

const char* CrashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kClean: return "clean";
    case CrashPoint::kMidWalAppend: return "mid-wal-append";
    case CrashPoint::kMidCheckpointTmp: return "mid-checkpoint-tmp";
    case CrashPoint::kMidCheckpointFinal: return "mid-checkpoint-final";
  }
  return "?";
}

std::string CrashRecoveryReport::Summary(const char* protocol) const {
  std::string s = std::string(protocol) + " crash-recovery seed=" +
                  std::to_string(seed) + (ok ? " OK" : " FAILED");
  if (!ok) s += "\nviolation: " + violation;
  s += "\ncrashes=" + std::to_string(crashes) +
       " recoveries=" + std::to_string(recoveries) +
       " checkpoints=" + std::to_string(checkpoints_saved) +
       " quarantined=" + std::to_string(checkpoints_quarantined) +
       " replayed=" + std::to_string(journal_entries_replayed) +
       " committed=" + std::to_string(committed);
  if (!ok && !trace.empty()) s += "\ntrace:\n" + trace;
  return s;
}

template <typename OrderingT>
CrashRecoveryReport RunCrashRecoveryScenario(
    uint64_t seed, const CrashRecoveryOptions& options) {
  using P = Protocol<OrderingT>;
  CrashRecoveryReport report;
  report.seed = seed;
  CrashRecoveryOptions opts = options;
  std::string& work_dir = opts.recovery.durable_dir;
  if (work_dir.empty()) work_dir = DefaultWorkDir(P::kName, seed);
  CleanupWorkDir(work_dir);

  net::SimNetConfig net_config;
  net_config.seed = seed;
  std::unique_ptr<OrderingT> ordering = P::Make(opts, net_config);

  auto fail = [&](const Status& status) {
    report.ok = false;
    report.violation = status.message().empty()
                           ? std::string(StatusCodeName(status.code()))
                           : status.message();
    ReadDurableCounters(*ordering, &report);
    CleanupWorkDir(work_dir);
    return report;
  };
  if (!ordering->recovery_status().ok()) {
    return fail(ordering->recovery_status());
  }

  Rng rng(seed);
  std::vector<CrashEvent> plan = PlanCrashes(seed, opts, P::kReplica0MayDie);
  const size_t max_down = P::MaxDown(opts.num_replicas);
  std::vector<Bytes> submitted;
  size_t next_crash = 0;
  std::set<size_t> down;

  auto restart = [&](size_t victim) -> Status {
    report.trace += "recover r" + std::to_string(victim) + "\n";
    PREVER_RETURN_IF_ERROR(ordering->RestartReplica(victim));
    ++report.recoveries;
    return Status::Ok();
  };

  for (size_t k = 0; k < opts.num_payloads; ++k) {
    // Restart any victim whose outage window ended.
    for (const CrashEvent& ev : plan) {
      if (ev.recover_at == k && down.count(ev.victim)) {
        down.erase(ev.victim);
        if (Status s = restart(ev.victim); !s.ok()) return fail(s);
      }
    }
    Bytes payload = MakePayload(seed, k);
    submitted.push_back(payload);
    // While replica 0 (the commit counter) is down, enqueue without waiting:
    // commitment is driven after its recovery.
    if (down.count(0)) {
      if (auto t = ordering->SubmitAsync(payload, 0); !t.ok()) {
        return fail(t.status());
      }
    } else {
      if (Status s = ordering->Append(payload, 0); !s.ok()) return fail(s);
    }
    if (next_crash < plan.size() && plan[next_crash].at == k) {
      const CrashEvent& ev = plan[next_crash++];
      if (!down.count(ev.victim) && down.size() < max_down) {
        down.insert(ev.victim);
        ++report.crashes;
        report.trace += "crash r" + std::to_string(ev.victim) + " @" +
                        std::to_string(k) + " " + CrashPointName(ev.point) +
                        "\n";
        ordering->CrashReplica(ev.victim);
        ApplyCrashDamage(*ordering->durable(ev.victim), ev.point, rng,
                         &report.trace);
      }
    }
  }
  for (size_t victim : std::set<size_t>(down)) {
    down.erase(victim);
    if (Status s = restart(victim); !s.ok()) return fail(s);
  }
  if (Status s = ordering->Flush(); !s.ok()) return fail(s);
  ordering->network().RunUntil(ordering->network().Now() + P::kQuietTail);

  report.committed = ordering->ReplicaLedger(0).size();
  ReadDurableCounters(*ordering, &report);
  std::vector<const ledger::LedgerDb*> ledgers;
  for (size_t i = 0; i < opts.num_replicas; ++i) {
    ledgers.push_back(&ordering->ReplicaLedger(i));
  }
  if (Status s = CheckOrderedLedgers(ordering->CommittedCount(), ledgers,
                                     submitted);
      !s.ok()) {
    return fail(s);
  }
  if (Status s = CheckCheckpointRoot(*ordering, ordering->durable(0)->store());
      !s.ok()) {
    return fail(s);
  }
  // Compaction / GC keeps every live replica's log bounded by the
  // checkpoint interval, not the history length.
  const size_t bound = P::LogBound(opts);
  for (size_t i = 0; i < opts.num_replicas; ++i) {
    size_t entries = P::LogEntries(*ordering, i);
    if (entries > bound) {
      return fail(Status::IntegrityViolation(
          "replica " + std::to_string(i) + " " + P::kLogName +
          " unbounded: " + std::to_string(entries) + " entries > " +
          std::to_string(bound)));
    }
  }
  CleanupWorkDir(work_dir);
  return report;
}

template CrashRecoveryReport RunCrashRecoveryScenario<core::RaftOrdering>(
    uint64_t seed, const CrashRecoveryOptions& options);
template CrashRecoveryReport RunCrashRecoveryScenario<core::PbftOrdering>(
    uint64_t seed, const CrashRecoveryOptions& options);

}  // namespace prever::simtest
