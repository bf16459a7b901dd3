#include "harness.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

namespace perfbench {

using prever::Result;
using prever::Status;
using prever::StatusCode;
namespace ledger = prever::ledger;

void RunReport::Error(const std::string& what) {
  correct = false;
  // The first few problems say what went wrong; the rest add nothing.
  if (errors.size() < 8) errors.push_back(what);
}

double E2eStats::UpdatesPerSecond() const {
  return timed_ns <= 0 ? 0.0
                       : static_cast<double>(verdicts) /
                             (static_cast<double>(timed_ns) / 1e9);
}

bool FastestRepeats::Add(const E2eStats& episode) {
  if (empty_) {
    fastest_ = episode;
    empty_ = false;
  } else {
    if (episode.verdicts != fastest_.verdicts ||
        episode.submit_us.size() != fastest_.submit_us.size() ||
        episode.audit_us.size() != fastest_.audit_us.size() ||
        episode.call_us.size() != fastest_.call_us.size()) {
      return false;
    }
    auto keep_min = [](std::vector<double>& best,
                       const std::vector<double>& v) {
      for (size_t i = 0; i < v.size(); ++i) best[i] = std::min(best[i], v[i]);
    };
    keep_min(fastest_.submit_us, episode.submit_us);
    keep_min(fastest_.audit_us, episode.audit_us);
    keep_min(fastest_.call_us, episode.call_us);
    fastest_.setup_s.insert(fastest_.setup_s.end(), episode.setup_s.begin(),
                            episode.setup_s.end());
  }
  fastest_.timed_ns = std::llround(
      std::accumulate(fastest_.call_us.begin(), fastest_.call_us.end(), 0.0) *
      1e3);
  return true;
}

void LayerStats::AddSpans(SpanLog& log) {
  std::string nesting = log.CheckNesting();
  if (!nesting.empty()) nesting_errors.push_back(nesting);
  std::array<int64_t, kLayerCount> self = log.SelfNs();
  for (size_t i = 0; i < kLayerCount; ++i) self_ns[i] += self[i];
  submit_root_ns += log.RootNs(Layer::kSubmit);
  log.Clear();
}

void GrowthTracker::Add(int64_t ordering_ns, uint64_t commits) {
  calls_.emplace_back(ordering_ns, commits);
}

double GrowthTracker::Growth() const {
  size_t tenth = calls_.size() / 10;
  if (tenth == 0) return 0.0;
  auto per_commit = [&](size_t begin, size_t end) {
    int64_t ns = 0;
    uint64_t commits = 0;
    for (size_t i = begin; i < end; ++i) {
      ns += calls_[i].first;
      commits += calls_[i].second;
    }
    return commits == 0 ? 0.0
                        : static_cast<double>(ns) / static_cast<double>(commits);
  };
  double first = per_commit(0, tenth);
  double last = per_commit(calls_.size() - tenth, calls_.size());
  return first == 0.0 ? 0.0 : last / first;
}

Verdict VerdictOf(const Status& status) {
  if (status.ok()) return Verdict::kAccepted;
  if (status.code() == StatusCode::kConstraintViolation) {
    return Verdict::kRejected;
  }
  return Verdict::kError;
}

void Judge(Verdict engine, bool reference_accepts, EpisodeResult& result) {
  ++result.attempted;
  if (engine == Verdict::kRejected) ++result.rejected;
  bool agrees = engine != Verdict::kError &&
                (engine == Verdict::kAccepted) == reference_accepts;
  if (!agrees) ++result.failed;
}

Result<ledger::LedgerEntry> Audit(const ledger::LedgerDb& ledger,
                                  prever::Rng& rng, E2eStats& e2e, SpanLog* log,
                                  LayerStats* layers) {
  std::optional<SpanLog::Scope> audit_span;
  std::optional<SpanLog::Scope> prove_span;
  const int64_t start = NowNs();
  if (log != nullptr) {
    audit_span.emplace(*log, Layer::kAudit);
    prove_span.emplace(*log, Layer::kProve);
  }
  ledger::LedgerDigest digest = ledger.Digest();
  if (digest.size == 0) return Status::NotFound("empty ledger");
  uint64_t seq = rng.NextBelow(digest.size);
  PREVER_ASSIGN_OR_RETURN(ledger::LedgerEntry entry, ledger.GetEntry(seq));
  PREVER_ASSIGN_OR_RETURN(ledger::InclusionProof proof,
                          ledger.ProveInclusion(seq, digest.size));
  prove_span.reset();
  bool verified;
  {
    std::optional<SpanLog::Scope> verify_span;
    if (log != nullptr) verify_span.emplace(*log, Layer::kVerifyProof);
    verified = ledger::LedgerDb::VerifyInclusion(entry, proof, digest);
  }
  audit_span.reset();
  const double us = static_cast<double>(NowNs() - start) / 1e3;
  e2e.audit_us.push_back(us);
  e2e.call_us.push_back(us);
  if (layers != nullptr) {
    ++layers->audits;
    layers->proof_hashes += proof.path.size();
  }
  if (!verified) {
    return Status::IntegrityViolation("inclusion proof of entry " +
                                      std::to_string(seq) + " did not verify");
  }
  return entry;
}

void CheckLedgers(const ledger::LedgerDb& canonical,
                  const std::vector<const ledger::LedgerDb*>& replicas,
                  RunReport& report) {
  Status audit = canonical.Audit();
  if (!audit.ok()) report.Error("LedgerDb::Audit failed: " + audit.ToString());
  ledger::LedgerDigest digest = canonical.Digest();
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (!(replicas[i]->Digest() == digest)) {
      report.Error("replica " + std::to_string(i) +
                   " ledger digest differs from the canonical ledger");
    }
  }
}

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options) {
  if (options.workload == "ycsb_upsert") return MakeYcsbUpsert(options);
  if (options.workload == "pbft_insert") return MakePbftInsert(options);
  if (options.workload == "separ_token") return MakeSeparToken(options);
  return nullptr;
}

namespace {

double PerUnit(double total, double units) {
  return units <= 0 ? 0.0 : total / units;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Requires enough samples for the reported p90: at least ten beyond it.
void RequireP90(const char* what, size_t n, RunReport& report) {
  double supported = HighestSupportedPercentile(n);
  report.info.push_back(std::string("samples ") + what + " n=" +
                        std::to_string(n) +
                        " highest_supported_percentile=" +
                        FormatNumber(supported));
  if (supported < 90.0) {
    report.Error(std::string("too few ") + what + " samples for p90");
  }
}

void FillEndToEnd(const E2eStats& e2e, RunReport& report) {
  RequireP90("submit", e2e.submit_us.size(), report);
  RequireP90("audit", e2e.audit_us.size(), report);
  auto& m = report.metrics;
  m["setup_s"] = Median(e2e.setup_s);
  m["updates_per_s"] = e2e.UpdatesPerSecond();
  m["submit_p50_us"] = Percentile(e2e.submit_us, 50);
  m["submit_p90_us"] = Percentile(e2e.submit_us, 90);
  m["audit_p50_us"] = Percentile(e2e.audit_us, 50);
  m["audit_p90_us"] = Percentile(e2e.audit_us, 90);
  m["peak_rss_mb"] = PeakRssMb();
}

void FillLayers(const LayerStats& l, const E2eStats& untraced,
                const E2eStats& traced, RunReport& report) {
  for (const std::string& e : l.nesting_errors) report.Error("span tree: " + e);
  auto self_us = [&](Layer layer) {
    return static_cast<double>(l.self_ns[static_cast<size_t>(layer)]) / 1e3;
  };
  const auto n = static_cast<double>(l.updates);
  const auto commits = static_cast<double>(l.commits);
  const auto audits = static_cast<double>(l.audits);

  // The submit tree's self times partition its roots' durations exactly.
  int64_t tree_self = 0;
  for (Layer layer : {Layer::kSubmit, Layer::kConstraint, Layer::kStorage,
                      Layer::kLedger, Layer::kConsensus, Layer::kToken,
                      Layer::kCrypto}) {
    tree_self += l.self_ns[static_cast<size_t>(layer)];
  }
  if (tree_self != l.submit_root_ns) {
    report.Error("layer self times do not add up to the traced submit time");
  }
  report.info.push_back(
      "layer_sum traced_submit_us_per_update=" +
      FormatNumber(PerUnit(static_cast<double>(l.submit_root_ns) / 1e3, n)) +
      " sum_of_self_us_per_update=" +
      FormatNumber(PerUnit(static_cast<double>(tree_self) / 1e3, n)) +
      " consensus_us_per_update=" +
      FormatNumber(PerUnit(self_us(Layer::kConsensus), n)) +
      " updates=" + std::to_string(l.updates) +
      " commits=" + std::to_string(l.commits));

  auto& m = report.metrics;
  m["constraint.verify_us"] = PerUnit(self_us(Layer::kConstraint), n);
  m["constraint.agg_rebuilds_per_update"] =
      PerUnit(static_cast<double>(l.agg_builds), n);
  m["constraint.interpreted_frac"] =
      PerUnit(static_cast<double>(l.interpreted_constraints),
              static_cast<double>(l.compiled_constraints +
                                  l.interpreted_constraints));
  m["storage.apply_us"] = PerUnit(self_us(Layer::kStorage), n);
  m["storage.wal_bytes_per_update"] = PerUnit(
      static_cast<double>(l.wal_bytes), static_cast<double>(l.applied));
  m["ledger.append_us"] = PerUnit(self_us(Layer::kLedger), n);
  m["ledger.prove_us"] = PerUnit(self_us(Layer::kProve), audits);
  m["ledger.verify_proof_us"] = PerUnit(self_us(Layer::kVerifyProof), audits);
  m["ledger.proof_hashes"] =
      PerUnit(static_cast<double>(l.proof_hashes), audits);
  m["consensus.order_us_per_commit"] =
      PerUnit(self_us(Layer::kConsensus), commits);
  m["net.msgs_per_commit"] = PerUnit(static_cast<double>(l.net_msgs), commits);
  m["net.bytes_per_commit"] =
      PerUnit(static_cast<double>(l.net_bytes), commits);
  m["consensus.order_growth"] = Median(l.growth);
  m["consensus.commit_sim_ms"] = Median(l.commit_sim_ms);
  m["recovery.checkpoint_us"] = Mean(l.checkpoint_us);
  m["recovery.checkpoint_bytes"] = Mean(l.checkpoint_bytes);
  m["core.batch_size"] = PerUnit(static_cast<double>(l.envelope_payloads),
                                 static_cast<double>(l.envelopes));
  m["token.withdraw_us"] = PerUnit(self_us(Layer::kToken), n);
  m["token.tokens_per_update"] = PerUnit(static_cast<double>(l.tokens), n);
  m["crypto.rsa_verify_us"] = PerUnit(self_us(Layer::kCrypto), n);
  m["core.engine_self_us"] = PerUnit(self_us(Layer::kSubmit), n);
  double untraced_rate = untraced.UpdatesPerSecond();
  m["bench.trace_overhead_frac"] =
      untraced_rate <= 0 ? 0.0 : traced.UpdatesPerSecond() / untraced_rate - 1;
}

}  // namespace

RunReport RunWorkload(Workload& workload, const RunOptions& options) {
  RunReport report;
  const int64_t start = NowNs();
  const auto budget_ns = static_cast<int64_t>(options.seconds * 1e9);
  FastestRepeats fastest;
  E2eStats all_repeats;  // Verdicts and timed phases of every engine episode.
  E2eStats traced_e2e;
  LayerStats layers;
  uint64_t episodes = 0;
  std::string episode_p50s;
  do {
    E2eStats engine_e2e;
    EpisodeResult engine = workload.EngineEpisode(engine_e2e, report);
    episode_p50s += " " + FormatNumber(Median(engine_e2e.submit_us));
    all_repeats.verdicts += engine_e2e.verdicts;
    all_repeats.timed_ns += engine_e2e.timed_ns;
    if (!fastest.Add(engine_e2e)) {
      report.Error("an episode made other calls than the first one");
    }
    report.attempted += engine.attempted;
    report.failed += engine.failed;
    report.rejected += engine.rejected;
    if (options.trace) {
      EpisodeResult traced = workload.TracedEpisode(traced_e2e, layers, report,
                                                      options.traced_steps);
      report.attempted += traced.attempted;
      report.failed += traced.failed;
      report.rejected += traced.rejected;
      if (!(traced.digest == engine.digest)) {
        ++report.digest_mismatches;
        report.Error("traced re-run reached a different ledger digest than "
                     "the engine run");
      }
    }
    ++episodes;
  } while (NowNs() - start < budget_ns && report.correct);
  report.info.push_back("episodes " + std::to_string(episodes) +
                        " submit_p50_us_per_episode" + episode_p50s);
  report.info.push_back("verdicts attempted=" +
                        std::to_string(report.attempted) +
                        " rejected_by_regulation=" +
                        std::to_string(report.rejected) +
                        " failed=" + std::to_string(report.failed));
  if (options.trace) {
    report.info.push_back("traced_digest_mismatches " +
                          std::to_string(report.digest_mismatches));
    FillLayers(layers, all_repeats, traced_e2e, report);
    return report;
  }
  report.info.push_back("all_repeats updates_per_s=" +
                        FormatNumber(all_repeats.UpdatesPerSecond()));
  FillEndToEnd(fastest.fastest(), report);
  return report;
}

}  // namespace perfbench
