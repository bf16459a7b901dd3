#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ledger/ledger_db.h"
#include "measure.h"

namespace perfbench {

/// Which engine steps the traced re-run performs. All of them in a real
/// run; the self-tests leave one out to show the digest check catches it.
enum Step : uint32_t {
  kStepVerify = 1u << 0,
  kStepApply = 1u << 1,
  kStepOrder = 1u << 2,
  kStepWithdraw = 1u << 3,
  kStepAll = 0xFu,
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the episodes' WAL files (created if missing).
  std::string workdir = ".";
  /// Steps the traced re-run performs (a Step mask).
  uint32_t traced_steps = kStepAll;
};

/// What a run prints: the result line's fields plus info lines.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;
  std::vector<std::string> info;
  /// Traced episodes whose final ledger digest differed from the engine's.
  uint64_t digest_mismatches = 0;

  void Error(const std::string& what);
};

/// End-to-end samples of untraced (or traced) episodes.
struct E2eStats {
  std::vector<double> submit_us;  ///< One per update with a verdict.
  std::vector<double> audit_us;
  std::vector<double> call_us;    ///< Every timed submit and audit call.
  std::vector<double> setup_s;    ///< One per episode.
  uint64_t verdicts = 0;          ///< Updates with a verdict, timed phase.
  int64_t timed_ns = 0;           ///< Wall time of the timed phases.

  double UpdatesPerSecond() const;
};

/// Per-layer totals of the traced episodes.
struct LayerStats {
  std::array<int64_t, kLayerCount> self_ns{};
  int64_t submit_root_ns = 0;
  uint64_t updates = 0;       ///< Updates with a verdict.
  uint64_t commits = 0;       ///< Ledger entries committed.
  uint64_t applied = 0;       ///< Mutations applied to the database.
  uint64_t audits = 0;
  uint64_t proof_hashes = 0;  ///< Summed inclusion-path lengths.
  uint64_t agg_builds = 0;    ///< Aggregate-cache full rebuilds.
  uint64_t compiled_constraints = 0;
  uint64_t interpreted_constraints = 0;
  uint64_t wal_bytes = 0;
  uint64_t net_msgs = 0;
  uint64_t net_bytes = 0;
  uint64_t envelopes = 0;          ///< Sealed consensus envelopes.
  uint64_t envelope_payloads = 0;  ///< Payloads in them.
  uint64_t tokens = 0;             ///< Tokens spent.
  std::vector<double> growth;        ///< consensus.order_growth per episode.
  std::vector<double> commit_sim_ms;  ///< Sim time per submit call.
  std::vector<double> checkpoint_us;
  std::vector<double> checkpoint_bytes;
  std::vector<std::string> nesting_errors;

  /// Adds one episode's span tree and clears it.
  void AddSpans(SpanLog& log);
};

/// Per-call ordering cost of one episode, for consensus.order_growth.
class GrowthTracker {
 public:
  void Add(int64_t ordering_ns, uint64_t commits);
  /// Ordering time per commit over the last tenth of the calls divided by
  /// the same over the first tenth (0 without commits in both).
  double Growth() const;

 private:
  std::vector<std::pair<int64_t, uint64_t>> calls_;
};

/// Final state of an episode's canonical ledger, compared between the
/// engine run and the traced re-run of the same inputs.
struct EpisodeResult {
  prever::ledger::LedgerDigest digest;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;  ///< Engine verdicts "rejected by a regulation".
};

/// One benchmark workload: inputs are generated from the seed at
/// construction; every episode starts from fresh state and replays the same
/// inputs, so the work an episode does is fixed by workload and seed.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs the engine over the inputs; records setup, submit and audit
  /// timings into `e2e` and correctness problems into `report`.
  virtual EpisodeResult EngineEpisode(E2eStats& e2e, RunReport& report) = 0;

  /// Re-runs the engine's steps in the engine's order through public calls,
  /// with a span around each call.
  virtual EpisodeResult TracedEpisode(E2eStats& e2e, LayerStats& layers,
                                      RunReport& report,
                                      uint32_t steps = kStepAll) = 0;
};

std::unique_ptr<Workload> MakeYcsbUpsert(const RunOptions& options);
std::unique_ptr<Workload> MakePbftInsert(const RunOptions& options);
std::unique_ptr<Workload> MakeSeparToken(const RunOptions& options);

/// The workload named by `options.workload`, or null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const RunOptions& options);

/// Folds episodes into one made of each call's fastest repeat: sample i of
/// submit_us, audit_us and call_us is the minimum of sample i over the
/// episodes, and the timed phase is the sum of the fastest calls. Every
/// episode replays the same calls on the same fresh state, so a slower
/// repeat was slowed by something outside the program. setup_s keeps every
/// episode's set-up time.
class FastestRepeats {
 public:
  /// Folds in one episode. Returns false, folding nothing, when the episode
  /// made other calls than the first one did.
  bool Add(const E2eStats& episode);
  /// The composite episode; empty before the first Add.
  const E2eStats& fastest() const { return fastest_; }

 private:
  E2eStats fastest_;
  bool empty_ = true;
};

/// Runs episodes until `options.seconds` have passed (at least one), and
/// fills the report with the end-to-end metrics of the fastest repeats or,
/// when tracing, the per-layer metrics.
RunReport RunWorkload(Workload& workload, const RunOptions& options);

/// The engine's answer for one update.
enum class Verdict { kAccepted, kRejected, kError };

/// OK means accepted, ConstraintViolation rejected by a regulation, anything
/// else an infrastructure failure.
Verdict VerdictOf(const prever::Status& status);

/// Counts one attempted update and, when the engine's verdict is an error or
/// differs from the benchmark's reference decision, one failed update.
void Judge(Verdict engine, bool reference_accepts, EpisodeResult& result);

/// One audit of `ledger`: Digest, a seeded random committed entry,
/// ProveInclusion against the digest, VerifyInclusion. Times it into `e2e`
/// and, when `log` is set, records the prove/verify spans. Returns the
/// audited entry, or an error if the proof did not verify.
prever::Result<prever::ledger::LedgerEntry> Audit(
    const prever::ledger::LedgerDb& ledger, prever::Rng& rng,
    E2eStats& e2e, SpanLog* log, LayerStats* layers);

/// Checks that every replica ledger has the canonical ledger's digest and
/// that the canonical ledger passes LedgerDb::Audit().
void CheckLedgers(const prever::ledger::LedgerDb& canonical,
                  const std::vector<const prever::ledger::LedgerDb*>& replicas,
                  RunReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
