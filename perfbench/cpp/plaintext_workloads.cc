// ycsb_upsert and pbft_insert: the non-private PlaintextEngine over a
// WAL-backed Database with the per-owner windowed SUM regulation, ordered
// by a centralized ledger (ycsb_upsert) or a 4-replica PBFT cluster
// (pbft_insert). Why each workload exists is in NOTES.md.

#include <filesystem>
#include <unordered_map>

#include "constraint/verifier.h"
#include "core/ordering.h"
#include "core/plaintext_engine.h"
#include "harness.h"
#include "obs/registry.h"
#include "workload/ycsb.h"

namespace perfbench {
namespace {

using namespace prever;

struct PlainSpec {
  const char* name;
  uint64_t rows;             ///< Preloaded usertable rows.
  uint64_t updates;          ///< Per episode; the first one is the warm-up.
  double insert_proportion;  ///< 0: upserts of preloaded keys only.
  int64_t cap;               ///< Per-owner 1-day SUM cap of the regulation.
  size_t replicas;           ///< 0: CentralizedOrdering; else PBFT replicas.
  uint64_t checkpoint_interval;  ///< PBFT stable-checkpoint interval.
  uint64_t audit_every;      ///< One audit after every this many updates.
};

// Upserts over a table whose row count never changes: every committed
// upsert epoch-invalidates the aggregate cache, so each verify after a
// commit rebuilds it by a full scan. The cap rejects a share of updates.
constexpr PlainSpec kYcsbUpsert = {"ycsb_upsert", 2000, 1200, 0.0, 350,
                                   0,             0,    4};
// Inserts only: verify stays on the incremental delta path, and the cap is
// out of reach, so every update pays the full PBFT round.
constexpr PlainSpec kPbftInsert = {"pbft_insert", 1000, 3000, 1.0,
                                   int64_t{1} << 40, 4, 128, 4};

std::string Field(const core::Update& u, const char* name) {
  return u.fields.at(name).AsString().value();
}

/// The benchmark's own decision for the regulation
///   SUM(usertable.amount WHERE owner = update.owner WINDOW 1d)
///     + update.amount <= cap
/// over the committed rows, with the window (now - 1d, now] clipped at 0.
class YcsbReference {
 public:
  YcsbReference(const std::vector<storage::Row>& preload, int64_t cap)
      : cap_(cap) {
    for (const storage::Row& row : preload) {
      Put(row[0].AsString().value(), row[1].AsString().value(),
          row[2].AsInt64().value(), row[3].AsTimestamp().value());
    }
  }

  bool Accepts(const core::Update& u) const {
    const SimTime now = u.timestamp;
    const SimTime start = kDay >= now ? 0 : now - kDay;
    int64_t sum = u.fields.at("amount").AsInt64().value();
    auto keys = keys_of_owner_.find(Field(u, "owner"));
    if (keys != keys_of_owner_.end()) {
      for (const std::string& key : keys->second) {
        const RowState& row = rows_.at(key);
        if (row.at > start && row.at <= now) sum += row.amount;
      }
    }
    return sum <= cap_;
  }

  void Commit(const core::Update& u) {
    Put(Field(u, "key"), Field(u, "owner"),
        u.fields.at("amount").AsInt64().value(), u.timestamp);
  }

 private:
  struct RowState {
    int64_t amount = 0;
    SimTime at = 0;
  };

  void Put(const std::string& key, const std::string& owner, int64_t amount,
           SimTime at) {
    auto [it, inserted] = rows_.insert_or_assign(key, RowState{amount, at});
    if (inserted) keys_of_owner_[owner].push_back(key);
  }

  int64_t cap_;
  std::unordered_map<std::string, RowState> rows_;
  std::unordered_map<std::string, std::vector<std::string>> keys_of_owner_;
};

/// Everything an episode builds before its first timed submit, except the
/// engine: the preloaded WAL-backed database, the regulation catalog and
/// the ordering service.
class PlainEnv {
 public:
  PlainEnv(const PlainSpec& spec, const std::vector<storage::Row>& preload,
           uint64_t net_seed, std::string wal_path, RunReport& report)
      : wal_path_(std::move(wal_path)) {
    const char* table = workload::YcsbWorkload::kTableName;
    Check(db.CreateTable(table, workload::YcsbWorkload::TableSchema()),
          report);
    storage::Table* t = db.GetMutableTable(table).value();
    for (const storage::Row& row : preload) Check(t->Insert(row), report);
    std::filesystem::remove(wal_path_);
    Check(db.EnableWal(wal_path_), report);
    Check(catalog.Add("cap", constraint::ConstraintScope::kRegulation,
                      constraint::ConstraintVisibility::kPublic,
                      "SUM(usertable.amount WHERE owner = update.owner "
                      "WINDOW 1d) + update.amount <= " +
                          std::to_string(spec.cap)),
          report);
    if (spec.replicas == 0) {
      central_ = std::make_unique<core::CentralizedOrdering>();
      ordering = central_.get();
    } else {
      net::SimNetConfig net;  // 1-5 ms one-way delay, no drops.
      net.seed = net_seed;
      core::OrderingRecoveryConfig recovery;
      recovery.checkpoint_interval = spec.checkpoint_interval;
      pbft = std::make_unique<core::PbftOrdering>(
          spec.replicas, net, "pbft", core::OrderingPipelineConfig(),
          recovery);
      ordering = pbft.get();
    }
  }
  ~PlainEnv() { std::filesystem::remove(wal_path_); }
  PlainEnv(const PlainEnv&) = delete;
  PlainEnv& operator=(const PlainEnv&) = delete;

  uint64_t WalBytes() const {
    std::error_code ec;
    auto size = std::filesystem::file_size(wal_path_, ec);
    return ec ? 0 : size;
  }

  /// Drains the network, then checks the ledger audit and replica
  /// agreement.
  void CheckLedgers(RunReport& report) {
    std::vector<const ledger::LedgerDb*> replicas;
    if (pbft != nullptr) {
      pbft->network().RunUntilIdle();
      for (size_t i = 0; i < pbft->num_replicas(); ++i) {
        replicas.push_back(&pbft->ReplicaLedger(i));
      }
    }
    perfbench::CheckLedgers(ordering->Ledger(), replicas, report);
  }

  storage::Database db;
  constraint::ConstraintCatalog catalog;
  std::unique_ptr<core::PbftOrdering> pbft;
  core::OrderingService* ordering = nullptr;

 private:
  static void Check(const Status& s, RunReport& report) {
    if (!s.ok()) report.Error("setup: " + s.ToString());
  }

  std::string wal_path_;
  std::unique_ptr<core::CentralizedOrdering> central_;
};

class PlainWorkload final : public Workload {
 public:
  PlainWorkload(const PlainSpec& spec, const RunOptions& options)
      : spec_(spec),
        wal_prefix_(options.workdir + "/" + spec.name),
        net_seed_(options.seed * 1000003 + 17),
        audit_seed_(options.seed * 7919 + 5) {
    workload::YcsbConfig config;
    config.record_count = spec.rows;
    config.operation_count = spec.updates;
    config.insert_proportion = spec.insert_proportion;
    config.zipfian = true;
    config.max_amount = 100;
    config.seed = options.seed;
    workload::YcsbWorkload ycsb(config);
    preload_ = ycsb.InitialLoad();
    for (uint64_t i = 0; i < spec.updates; ++i) {
      updates_.push_back(ycsb.Next());
      encoded_.push_back(updates_.back().Encode());
    }
  }

  EpisodeResult EngineEpisode(E2eStats& e2e, RunReport& report) override {
    EpisodeResult result;
    const int64_t setup_start = NowNs();
    PlainEnv env(spec_, preload_, net_seed_, wal_prefix_ + "-engine.wal",
                 report);
    core::PlaintextEngine engine(&env.db, &env.catalog, env.ordering);
    YcsbReference reference(preload_, spec_.cap);
    std::vector<size_t> accepted;
    auto judge = [&](size_t i, const Status& status) {
      Verdict v = VerdictOf(status);
      Judge(v, reference.Accepts(updates_[i]), result);
      if (v == Verdict::kAccepted) {
        reference.Commit(updates_[i]);
        accepted.push_back(i);
      }
    };
    // Warm-up: the first submit compiles the regulation and builds the
    // aggregate cache; it belongs to set-up.
    judge(0, engine.SubmitUpdate(updates_[0]));
    e2e.setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

    prever::Rng audit_rng(audit_seed_);
    int64_t untimed_ns = 0;
    const int64_t timed_start = NowNs();
    for (size_t i = 1; i < updates_.size(); ++i) {
      const int64_t t0 = NowNs();
      Status status = engine.SubmitUpdate(updates_[i]);
      const int64_t t1 = NowNs();
      e2e.submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      e2e.call_us.push_back(e2e.submit_us.back());
      judge(i, status);
      untimed_ns += NowNs() - t1;
      if (i % spec_.audit_every == 0) {
        auto entry =
            Audit(env.ordering->Ledger(), audit_rng, e2e, nullptr, nullptr);
        const int64_t c0 = NowNs();
        CheckAudited(entry, accepted, report);
        untimed_ns += NowNs() - c0;
      }
    }
    e2e.timed_ns += NowNs() - timed_start - untimed_ns;
    e2e.verdicts += updates_.size() - 1;

    CheckContents(env.ordering->Ledger(), accepted, report);
    env.CheckLedgers(report);
    result.digest = env.ordering->Ledger().Digest();
    return result;
  }

  EpisodeResult TracedEpisode(E2eStats& e2e, LayerStats& layers,
                              RunReport& report, uint32_t steps) override {
    EpisodeResult result;
    const int64_t setup_start = NowNs();
    PlainEnv env(spec_, preload_, net_seed_, wal_prefix_ + "-traced.wal",
                 report);
    constraint::CompiledVerifier verifier(&env.catalog, &env.db);
    YcsbReference reference(preload_, spec_.cap);
    SpanLog log;
    const Layer order_layer =
        env.pbft != nullptr ? Layer::kConsensus : Layer::kLedger;
    int64_t order_ns = 0;

    // PlaintextEngine::SubmitUpdate, step by step: verify every catalog
    // constraint, apply the mutation, append the encoded update to the
    // ordering service.
    auto replay = [&](const core::Update& u) -> Status {
      SpanLog::Scope submit(log, Layer::kSubmit);
      order_ns = 0;
      if (steps & kStepVerify) {
        constraint::EvalContext ctx{&env.db, &u.fields, u.timestamp};
        SpanLog::Scope span(log, Layer::kConstraint);
        Status verified = verifier.VerifyAll(ctx);
        if (!verified.ok()) return verified;
      }
      if (steps & kStepApply) {
        SpanLog::Scope span(log, Layer::kStorage);
        Status applied = env.db.Apply(u.mutation);
        if (!applied.ok()) return applied;
      }
      if (steps & kStepOrder) {
        Bytes payload = u.Encode();
        uint32_t id = log.Begin(order_layer);
        Status ordered = env.ordering->Append(payload, u.timestamp);
        log.End(id);
        order_ns = log.spans()[id].end_ns - log.spans()[id].start_ns;
        return ordered;
      }
      return Status::Ok();
    };
    std::vector<size_t> accepted;
    auto judge = [&](size_t i, const Status& status) {
      Verdict v = VerdictOf(status);
      Judge(v, reference.Accepts(updates_[i]), result);
      if (v == Verdict::kAccepted) {
        reference.Commit(updates_[i]);
        accepted.push_back(i);
      }
      return v == Verdict::kAccepted;
    };
    judge(0, replay(updates_[0]));
    log.Clear();
    e2e.setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

    const constraint::CompiledVerifier::Stats stats0 = verifier.stats();
    const uint64_t wal0 = env.WalBytes();
    const uint64_t ledger0 = env.ordering->Ledger().size();
    const size_t applied0 = accepted.size();
    uint64_t msgs0 = 0, bytes0 = 0, last_executed = 0;
    obs::Histogram* batch_hist = obs::Registry::Default().GetHistogram(
        "prever_ordering_batch_size", {{"proto", "pbft"}});
    const obs::HistogramSnapshot batch0 = batch_hist->snapshot();
    if (env.pbft != nullptr) {
      msgs0 = env.pbft->network().messages_sent();
      bytes0 = env.pbft->network().bytes_sent();
      last_executed = env.pbft->cluster().replica(0).last_executed();
    }
    GrowthTracker growth;
    prever::Rng audit_rng(audit_seed_);
    int64_t untimed_ns = 0;
    const int64_t timed_start = NowNs();
    for (size_t i = 1; i < updates_.size(); ++i) {
      const SimTime sim0 = env.pbft != nullptr ? env.pbft->network().Now() : 0;
      const int64_t t0 = NowNs();
      Status status = replay(updates_[i]);
      e2e.submit_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      e2e.call_us.push_back(e2e.submit_us.back());
      const int64_t c0 = NowNs();
      bool ok = judge(i, status);
      growth.Add(order_ns, ok ? 1 : 0);
      if (env.pbft != nullptr) {
        layers.commit_sim_ms.push_back(
            static_cast<double>(env.pbft->network().Now() - sim0) / 1e3);
        ProbeCheckpoint(*env.pbft, last_executed, layers);
      }
      untimed_ns += NowNs() - c0;
      if (i % spec_.audit_every == 0) {
        auto entry = Audit(env.ordering->Ledger(), audit_rng, e2e, &log,
                           &layers);
        const int64_t a0 = NowNs();
        CheckAudited(entry, accepted, report);
        untimed_ns += NowNs() - a0;
      }
    }
    e2e.timed_ns += NowNs() - timed_start - untimed_ns;
    e2e.verdicts += updates_.size() - 1;

    layers.AddSpans(log);
    layers.updates += updates_.size() - 1;
    const uint64_t commits = env.ordering->Ledger().size() - ledger0;
    layers.commits += commits;
    layers.applied += accepted.size() - applied0;
    const constraint::CompiledVerifier::Stats stats = verifier.stats();
    layers.agg_builds += stats.agg.cache_builds - stats0.agg.cache_builds;
    layers.compiled_constraints += stats.compiled_constraints;
    layers.interpreted_constraints += stats.interpreted_constraints;
    layers.wal_bytes += env.WalBytes() - wal0;
    layers.growth.push_back(growth.Growth());
    if (env.pbft != nullptr) {
      layers.net_msgs += env.pbft->network().messages_sent() - msgs0;
      layers.net_bytes += env.pbft->network().bytes_sent() - bytes0;
      obs::HistogramSnapshot batches = batch_hist->snapshot().Delta(batch0);
      layers.envelopes += batches.count;
      layers.envelope_payloads += batches.sum;
    } else {
      // A centralized append commits its one payload on its own.
      layers.envelopes += commits;
      layers.envelope_payloads += commits;
    }

    CheckContents(env.ordering->Ledger(), accepted, report);
    env.CheckLedgers(report);
    result.digest = env.ordering->Ledger().Digest();
    return result;
  }

 private:
  /// Times the public EncodeReplicaState of replica 0 whenever its
  /// execution point crossed a checkpoint position — the same encoding
  /// every replica makes inside the consensus span at that point.
  void ProbeCheckpoint(core::PbftOrdering& pbft, uint64_t& last_executed,
                       LayerStats& layers) const {
    const uint64_t interval = spec_.checkpoint_interval;
    const uint64_t executed = pbft.cluster().replica(0).last_executed();
    if (interval == 0 || executed / interval == last_executed / interval) {
      last_executed = executed;
      return;
    }
    last_executed = executed;
    const int64_t t0 = NowNs();
    Bytes state = pbft.EncodeReplicaState(0);
    layers.checkpoint_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    layers.checkpoint_bytes.push_back(static_cast<double>(state.size()));
  }

  /// The audited entry must be the accepted update at its position.
  void CheckAudited(const Result<ledger::LedgerEntry>& entry,
                    const std::vector<size_t>& accepted,
                    RunReport& report) const {
    if (!entry.ok()) {
      report.Error("audit: " + entry.status().ToString());
      return;
    }
    if (entry->sequence >= accepted.size() ||
        entry->payload != encoded_[accepted[entry->sequence]]) {
      report.Error("audit: ledger entry " + std::to_string(entry->sequence) +
                   " is not the accepted update at that position");
    }
  }

  /// The ledger holds exactly the accepted updates, in order.
  void CheckContents(const ledger::LedgerDb& ledger,
                     const std::vector<size_t>& accepted,
                     RunReport& report) const {
    if (ledger.size() != accepted.size()) {
      report.Error("ledger holds " + std::to_string(ledger.size()) +
                   " entries for " + std::to_string(accepted.size()) +
                   " accepted updates");
      return;
    }
    for (uint64_t seq = 0; seq < ledger.size(); ++seq) {
      auto entry = ledger.GetEntry(seq);
      if (!entry.ok() || entry->payload != encoded_[accepted[seq]]) {
        report.Error("ledger entry " + std::to_string(seq) +
                     " is not the accepted update at that position");
        return;
      }
    }
  }

  PlainSpec spec_;
  std::string wal_prefix_;
  uint64_t net_seed_;
  uint64_t audit_seed_;
  std::vector<storage::Row> preload_;
  std::vector<core::Update> updates_;
  std::vector<Bytes> encoded_;
};

}  // namespace

std::unique_ptr<Workload> MakeYcsbUpsert(const RunOptions& options) {
  return std::make_unique<PlainWorkload>(kYcsbUpsert, options);
}

std::unique_ptr<Workload> MakePbftInsert(const RunOptions& options) {
  return std::make_unique<PlainWorkload>(kPbftInsert, options);
}

}  // namespace perfbench
