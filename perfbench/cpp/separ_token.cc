// separ_token: the Separ instantiation. A FederatedTokenEngine over three
// platforms pays for each crowdworking task with blind-signed RSA tokens
// (40 per worker-week) and orders the spent serials through a 4-replica
// PBFT cluster in SubmitBatchVia group commits. Why it exists is in
// NOTES.md, with the known over-cap acceptance this workload counts as
// failed.

#include <map>
#include <set>

#include "core/federated_token_engine.h"
#include "core/ordering.h"
#include "crypto/rsa.h"
#include "harness.h"
#include "obs/registry.h"
#include "token/token.h"
#include "workload/crowdworking.h"

namespace perfbench {
namespace {

using namespace prever;

constexpr size_t kPlatforms = 3;
constexpr size_t kRsaBits = 512;
constexpr uint64_t kWeeklyBudget = 40;  // FLSA: 40 hours per worker-week.
constexpr size_t kReplicas = 4;
constexpr size_t kBatch = 8;  // Updates per SubmitBatchVia call.
constexpr size_t kSerialBytes = 32;
// The authority's key is configuration, not workload input: one fixed key
// keeps RSA key generation, which varies widely from key to key, from
// moving set-up time between seeds.
constexpr uint64_t kAuthorityKeySeed = 41;
// FederatedTokenEngine seeds the wallets it creates 1000, 1001, ... in the
// order producers first submit; the traced re-run does the same.
constexpr uint64_t kFirstWalletSeed = 1000;

workload::CrowdworkingConfig TraceConfig(uint64_t seed) {
  workload::CrowdworkingConfig config;
  config.num_workers = 64;
  config.num_platforms = kPlatforms;
  config.num_weeks = 3;
  config.tasks_per_worker_week = 8.0;
  config.min_task_hours = 1;
  config.max_task_hours = 8;
  config.seed = seed;
  return config;
}

/// The benchmark's own FLSA decision: a worker's accepted hours in one
/// week, across all platforms, stay within 40.
class FlsaReference {
 public:
  bool Accepts(const core::Update& u) const {
    auto it = hours_.find(Key(u));
    int64_t used = it == hours_.end() ? 0 : it->second;
    return used + Hours(u) <= static_cast<int64_t>(kWeeklyBudget);
  }
  void Commit(const core::Update& u) { hours_[Key(u)] += Hours(u); }

  static int64_t Hours(const core::Update& u) {
    return u.fields.at("hours").AsInt64().value();
  }

 private:
  static std::pair<std::string, uint64_t> Key(const core::Update& u) {
    return {u.producer, u.timestamp / kWeek};
  }
  std::map<std::pair<std::string, uint64_t>, int64_t> hours_;
};

struct Batch {
  size_t platform = 0;
  std::vector<core::Update> updates;
};

/// Authority, platforms and PBFT ordering of one episode.
struct SeparEnv {
  SeparEnv(uint64_t net_seed, RunReport& report)
      : authority(kRsaBits, kWeeklyBudget, kWeek, kAuthorityKeySeed),
        ordering(kReplicas, NetConfig(net_seed), "pbft") {
    for (size_t i = 0; i < kPlatforms; ++i) {
      auto p = std::make_unique<core::FederatedPlatform>();
      p->id = "platform" + std::to_string(i);
      Status s = p->db.CreateTable(workload::CrowdworkingWorkload::kTableName,
                                   workload::CrowdworkingWorkload::WorklogSchema());
      if (!s.ok()) report.Error("setup: " + s.ToString());
      raw.push_back(p.get());
      platforms.push_back(std::move(p));
    }
  }

  static net::SimNetConfig NetConfig(uint64_t seed) {
    net::SimNetConfig net;  // 1-5 ms one-way delay, no drops.
    net.seed = seed;
    return net;
  }

  bool Applied(size_t platform, const core::Update& u) const {
    auto table = platforms[platform]->db.GetTable(
        workload::CrowdworkingWorkload::kTableName);
    return table.ok() && (*table)->Contains(storage::Value::String(u.id));
  }

  /// Spent serials are unique, and replicas agree.
  void CheckLedgers(uint64_t expected_tokens, RunReport& report) {
    const ledger::LedgerDb& canonical = ordering.Ledger();
    if (canonical.size() != expected_tokens) {
      report.Error("ledger holds " + std::to_string(canonical.size()) +
                   " spent serials for " + std::to_string(expected_tokens) +
                   " tokens paid by accepted updates");
    }
    std::set<Bytes> serials;
    for (uint64_t seq = 0; seq < canonical.size(); ++seq) {
      auto entry = canonical.GetEntry(seq);
      if (!entry.ok() || !serials.insert(entry->payload).second) {
        report.Error("spent serial at ledger entry " + std::to_string(seq) +
                     " appears twice");
        break;
      }
    }
    ordering.network().RunUntilIdle();
    std::vector<const ledger::LedgerDb*> replicas;
    for (size_t i = 0; i < ordering.num_replicas(); ++i) {
      replicas.push_back(&ordering.ReplicaLedger(i));
    }
    perfbench::CheckLedgers(canonical, replicas, report);
  }

  token::TokenAuthority authority;
  core::PbftOrdering ordering;
  std::vector<std::unique_ptr<core::FederatedPlatform>> platforms;
  std::vector<core::FederatedPlatform*> raw;
};

void CheckAudited(const Result<ledger::LedgerEntry>& entry, RunReport& report) {
  if (!entry.ok()) {
    report.Error("audit: " + entry.status().ToString());
  } else if (entry->payload.size() != kSerialBytes) {
    report.Error("audit: ledger entry " + std::to_string(entry->sequence) +
                 " is not a token serial");
  }
}

class SeparToken final : public Workload {
 public:
  explicit SeparToken(const RunOptions& options)
      : net_seed_(options.seed * 1000003 + 29),
        audit_seed_(options.seed * 7919 + 11) {
    std::vector<workload::TaskEvent> events =
        workload::CrowdworkingWorkload(TraceConfig(options.seed)).Generate();
    // Each platform collects its tasks in trace order and submits them as
    // one batch once it holds kBatch of them; leftovers go last.
    std::vector<Batch> pending(kPlatforms);
    for (size_t i = 0; i < events.size(); ++i) {
      Batch& b = pending[events[i].platform];
      b.platform = events[i].platform;
      b.updates.push_back(events[i].ToUpdate(i));
      if (b.updates.size() == kBatch) {
        batches_.push_back(std::move(b));
        b = Batch();
      }
    }
    for (Batch& b : pending) {
      if (!b.updates.empty()) batches_.push_back(std::move(b));
    }
  }

  EpisodeResult EngineEpisode(E2eStats& e2e, RunReport& report) override {
    EpisodeResult result;
    const int64_t setup_start = NowNs();
    SeparEnv env(net_seed_, report);
    core::FederatedTokenEngine engine(env.raw, &env.authority, &env.ordering,
                                      "hours");
    FlsaReference reference;
    uint64_t accepted_hours = 0;
    auto judge = [&](const Batch& b, const Status& status) {
      const bool infra_error = VerdictOf(status) == Verdict::kError;
      for (const core::Update& u : b.updates) {
        Verdict v = env.Applied(b.platform, u)
                        ? Verdict::kAccepted
                        : (infra_error ? Verdict::kError : Verdict::kRejected);
        Judge(v, reference.Accepts(u), result);
        if (v == Verdict::kAccepted) {
          reference.Commit(u);
          accepted_hours += FlsaReference::Hours(u);
        }
      }
    };
    // Warm-up: the first batch creates wallets and the RSA contexts.
    judge(batches_[0], engine.SubmitBatchVia(batches_[0].platform,
                                             batches_[0].updates));
    e2e.setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

    prever::Rng audit_rng(audit_seed_);
    int64_t untimed_ns = 0;
    const int64_t timed_start = NowNs();
    for (size_t k = 1; k < batches_.size(); ++k) {
      const Batch& b = batches_[k];
      const int64_t t0 = NowNs();
      Status status = engine.SubmitBatchVia(b.platform, b.updates);
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      const int64_t c0 = NowNs();
      e2e.submit_us.insert(e2e.submit_us.end(), b.updates.size(), us);
      e2e.call_us.push_back(us);
      e2e.verdicts += b.updates.size();
      judge(b, status);
      untimed_ns += NowNs() - c0;
      // One audit after every batch.
      CheckAudited(
          Audit(env.ordering.Ledger(), audit_rng, e2e, nullptr, nullptr),
          report);
    }
    e2e.timed_ns += NowNs() - timed_start - untimed_ns;

    if (engine.tokens_spent() != accepted_hours) {
      report.Error("engine spent " + std::to_string(engine.tokens_spent()) +
                   " tokens for " + std::to_string(accepted_hours) +
                   " accepted hours");
    }
    env.CheckLedgers(accepted_hours, report);
    result.digest = env.ordering.Ledger().Digest();
    return result;
  }

  EpisodeResult TracedEpisode(E2eStats& e2e, LayerStats& layers,
                              RunReport& report, uint32_t steps) override {
    EpisodeResult result;
    const int64_t setup_start = NowNs();
    SeparEnv env(net_seed_, report);
    std::map<std::string, std::unique_ptr<token::TokenWallet>> wallets;
    uint64_t next_wallet_seed = kFirstWalletSeed;
    std::set<Bytes> spent;
    uint64_t tokens = 0;
    int64_t order_ns = 0;
    SpanLog log;
    const crypto::RsaPublicKey& pub = env.authority.public_key();

    auto ordered = [&](auto&& call) {
      uint32_t id = log.Begin(Layer::kConsensus);
      Status s = call();
      log.End(id);
      order_ns += log.spans()[id].end_ns - log.spans()[id].start_ns;
      return s;
    };
    // FederatedTokenEngine::SubmitViaInternal with the async ledger, step by
    // step: withdraw the shortfall, take the tokens, verify their
    // signatures, check double spends, apply, enqueue the spent serials.
    auto replay_one = [&](const Batch& b, const core::Update& u) -> Status {
      const size_t need = static_cast<size_t>(FlsaReference::Hours(u));
      auto it = wallets.find(u.producer);
      if (it == wallets.end()) {
        it = wallets
                 .emplace(u.producer, std::make_unique<token::TokenWallet>(
                                          pub, next_wallet_seed++))
                 .first;
      }
      token::TokenWallet& wallet = *it->second;
      if (wallet.NumTokens() < need) {
        if (steps & kStepWithdraw) {
          SpanLog::Scope span(log, Layer::kToken);
          auto got = wallet.Withdraw(env.authority, u.producer,
                                     need - wallet.NumTokens(), u.timestamp);
          if (!got.ok()) return got.status();
        }
        if (wallet.NumTokens() < need) {
          return Status::ConstraintViolation("token budget exhausted");
        }
      }
      std::vector<token::Token> to_spend;
      for (size_t i = 0; i < need; ++i) to_spend.push_back(*wallet.Take());
      std::vector<char> sig_ok(need, 0);
      {
        SpanLog::Scope span(log, Layer::kCrypto);
        for (size_t i = 0; i < need; ++i) {
          sig_ok[i] =
              crypto::RsaVerify(pub, to_spend[i].serial, to_spend[i].signature);
        }
      }
      for (size_t i = 0; i < need; ++i) {
        if (!sig_ok[i]) return Status::IntegrityViolation("bad signature");
        if (spent.count(to_spend[i].serial) != 0) {
          return Status::AlreadyExists("double spend");
        }
      }
      if (steps & kStepApply) {
        SpanLog::Scope span(log, Layer::kStorage);
        Status applied = env.platforms[b.platform]->db.Apply(u.mutation);
        if (!applied.ok()) return applied;
      }
      for (const token::Token& t : to_spend) {
        spent.insert(t.serial);
        if (steps & kStepOrder) {
          Status s = ordered([&] {
            return env.ordering.SubmitAsync(t.serial, u.timestamp).status();
          });
          if (!s.ok()) return s;
        }
        ++tokens;
      }
      return Status::Ok();
    };

    // FederatedTokenEngine::SubmitBatchVia: every update in turn, then one
    // Flush for the whole batch.
    auto replay_batch = [&](const Batch& b) {
      SpanLog::Scope submit(log, Layer::kSubmit);
      std::vector<Verdict> verdicts;
      for (const core::Update& u : b.updates) {
        verdicts.push_back(VerdictOf(replay_one(b, u)));
      }
      Status flushed = ordered([&] { return env.ordering.Flush(); });
      if (!flushed.ok()) report.Error("flush: " + flushed.ToString());
      return verdicts;
    };
    FlsaReference reference;
    auto judge = [&](const Batch& b, const std::vector<Verdict>& verdicts) {
      for (size_t i = 0; i < b.updates.size(); ++i) {
        Judge(verdicts[i], reference.Accepts(b.updates[i]), result);
        if (verdicts[i] == Verdict::kAccepted) reference.Commit(b.updates[i]);
      }
    };
    judge(batches_[0], replay_batch(batches_[0]));
    log.Clear();
    e2e.setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

    net::SimNetwork& net = env.ordering.network();
    const uint64_t ledger0 = env.ordering.Ledger().size();
    const uint64_t tokens0 = tokens;
    const uint64_t msgs0 = net.messages_sent();
    const uint64_t bytes0 = net.bytes_sent();
    obs::Histogram* batch_hist = obs::Registry::Default().GetHistogram(
        "prever_ordering_batch_size", {{"proto", "pbft"}});
    const obs::HistogramSnapshot batch0 = batch_hist->snapshot();
    GrowthTracker growth;
    prever::Rng audit_rng(audit_seed_);
    int64_t untimed_ns = 0;
    const int64_t timed_start = NowNs();
    for (size_t k = 1; k < batches_.size(); ++k) {
      const Batch& b = batches_[k];
      const SimTime sim0 = net.Now();
      const uint64_t size0 = env.ordering.Ledger().size();
      order_ns = 0;
      const int64_t t0 = NowNs();
      std::vector<Verdict> verdicts = replay_batch(b);
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      const int64_t c0 = NowNs();
      judge(b, verdicts);
      e2e.submit_us.insert(e2e.submit_us.end(), b.updates.size(), us);
      e2e.call_us.push_back(us);
      e2e.verdicts += b.updates.size();
      growth.Add(order_ns, env.ordering.Ledger().size() - size0);
      layers.commit_sim_ms.push_back(static_cast<double>(net.Now() - sim0) /
                                     1e3);
      untimed_ns += NowNs() - c0;
      CheckAudited(Audit(env.ordering.Ledger(), audit_rng, e2e, &log, &layers),
                   report);
    }
    e2e.timed_ns += NowNs() - timed_start - untimed_ns;

    layers.AddSpans(log);
    for (size_t k = 1; k < batches_.size(); ++k) {
      layers.updates += batches_[k].updates.size();
    }
    layers.commits += env.ordering.Ledger().size() - ledger0;
    layers.tokens += tokens - tokens0;
    layers.net_msgs += net.messages_sent() - msgs0;
    layers.net_bytes += net.bytes_sent() - bytes0;
    obs::HistogramSnapshot sealed = batch_hist->snapshot().Delta(batch0);
    layers.envelopes += sealed.count;
    layers.envelope_payloads += sealed.sum;
    layers.growth.push_back(growth.Growth());

    env.CheckLedgers(tokens, report);
    result.digest = env.ordering.Ledger().Digest();
    return result;
  }

 private:
  uint64_t net_seed_;
  uint64_t audit_seed_;
  std::vector<Batch> batches_;
};

}  // namespace

std::unique_ptr<Workload> MakeSeparToken(const RunOptions& options) {
  return std::make_unique<SeparToken>(options);
}

}  // namespace perfbench
