#include "core/federated_threshold_engine.h"

#include "obs/tracing.h"

#include "crypto/sha256.h"

namespace prever::core {

namespace {
// Aggregates PReVer regulates are small (hours, counts, cents-scale); the
// dlog recovery bound caps the scan.
constexpr int64_t kMaxAggregate = 1 << 20;
}  // namespace

FederatedThresholdEngine::FederatedThresholdEngine(
    std::vector<FederatedPlatform*> platforms,
    const constraint::ConstraintCatalog* regulations,
    OrderingService* ordering, const crypto::PedersenParams& params,
    uint64_t seed)
    : platforms_(std::move(platforms)),
      regulations_(regulations),
      ordering_(ordering),
      regulation_forms_(regulations),
      drbg_(seed),
      keys_(params, platforms_.size(), drbg_) {
  platform_verifiers_.reserve(platforms_.size());
  for (FederatedPlatform* p : platforms_) {
    platform_verifiers_.push_back(std::make_unique<constraint::CompiledVerifier>(
        &p->internal_constraints, &p->db));
  }
}

Status FederatedThresholdEngine::CheckRegulation(size_t index,
                                                 size_t platform_index,
                                                 const Update& update) {
  const constraint::Constraint& regulation =
      regulations_->constraints()[index];
  PREVER_ASSIGN_OR_RETURN(const auto* forms,
                          regulation_forms_.ForConstraint(index));
  for (const constraint::LinearBoundForm& form : *forms) {
    // Each platform: local aggregate over its private database, plus the
    // incoming update's terms at the submitting platform.
    auto total_ct = keys_.Encrypt(0, drbg_);
    PREVER_RETURN_IF_ERROR(total_ct.status());
    for (size_t i = 0; i < platforms_.size(); ++i) {
      constraint::EvalContext ctx{&platforms_[i]->db, &update.fields,
                                  update.timestamp};
      PREVER_ASSIGN_OR_RETURN(
          int64_t local,
          platform_verifiers_[i]->EvaluateAggregate(*form.aggregate, ctx));
      if (i == platform_index) {
        for (const std::string& field : form.update_terms) {
          auto it = update.fields.find(field);
          if (it == update.fields.end()) {
            return Status::InvalidArgument("update lacks field '" + field +
                                           "'");
          }
          PREVER_ASSIGN_OR_RETURN(int64_t v, it->second.AsInt64());
          local += v;
        }
      }
      if (local < 0 || local > kMaxAggregate) {
        return Status::NotSupported(
            "local aggregate outside the threshold engine's domain");
      }
      // Platform i encrypts its contribution under the joint key and
      // publishes only the ciphertext.
      PREVER_ASSIGN_OR_RETURN(crypto::ElGamalCiphertext ct,
                              keys_.Encrypt(local, drbg_));
      *total_ct = crypto::ThresholdElGamal::Add(keys_.params(), *total_ct, ct);
    }
    // Joint decryption of the total: every platform contributes a partial.
    std::vector<crypto::BigInt> partials;
    partials.reserve(platforms_.size());
    for (size_t i = 0; i < platforms_.size(); ++i) {
      PREVER_ASSIGN_OR_RETURN(crypto::BigInt partial,
                              keys_.PartialDecrypt(i, *total_ct));
      partials.push_back(std::move(partial));
    }
    PREVER_ASSIGN_OR_RETURN(
        int64_t total,
        keys_.Combine(*total_ct, partials,
                      kMaxAggregate * static_cast<int64_t>(platforms_.size())));
    ++totals_opened_;

    bool satisfied = form.direction == constraint::BoundDirection::kUpper
                         ? total <= form.bound
                         : total >= form.bound;
    if (!satisfied) {
      return Status::ConstraintViolation("update violates regulation '" +
                                         regulation.name + "'");
    }
  }
  return Status::Ok();
}

Status FederatedThresholdEngine::SubmitVia(size_t platform_index,
                                           const Update& update) {
  return SubmitViaInternal(platform_index, update, /*async_ledger=*/false);
}

Status FederatedThresholdEngine::SubmitBatchVia(
    size_t platform_index, const std::vector<Update>& updates) {
  Status first = Status::Ok();
  for (const Update& update : updates) {
    Status s = SubmitViaInternal(platform_index, update, /*async_ledger=*/true);
    if (!s.ok() && first.ok()) first = s;
  }
  Status flushed = ordering_->Flush();
  if (!flushed.ok() && first.ok()) first = flushed;
  return first;
}

Status FederatedThresholdEngine::SubmitViaInternal(size_t platform_index,
                                                   const Update& update,
                                                   bool async_ledger) {
  metrics_.OnSubmit();
  auto submit_span = metrics_.Span(obs::TraceStage::kSubmit);
  if (platform_index >= platforms_.size()) {
    return metrics_.Finish(Status::InvalidArgument("no such platform"));
  }
  FederatedPlatform* home = platforms_[platform_index];
  {
    auto verify_span = metrics_.Span(obs::TraceStage::kVerify);
    constraint::EvalContext local_ctx{&home->db, &update.fields,
                                      update.timestamp};
    Status internal = platform_verifiers_[platform_index]->VerifyAll(local_ctx);
    if (!internal.ok()) return metrics_.Finish(internal);
  }
  {
    // The regulation check is dominated by threshold ElGamal work.
    auto crypto_span = metrics_.Span(obs::TraceStage::kCrypto);
    for (size_t r = 0; r < regulations_->size(); ++r) {
      Status checked = CheckRegulation(r, platform_index, update);
      if (!checked.ok()) return metrics_.Finish(checked);
    }
  }
  auto ledger_span = metrics_.Span(obs::TraceStage::kLedgerPhase);
  Status applied = home->db.Apply(update.mutation);
  if (!applied.ok()) return metrics_.Finish(applied);
  BinaryWriter w;
  w.WriteString(home->id);
  w.WriteBytes(crypto::Sha256::Hash(update.Encode()));
  Status ordered =
      async_ledger
          ? ordering_->SubmitAsync(w.Take(), update.timestamp).status()
          : ordering_->Append(w.Take(), update.timestamp);
  return metrics_.Finish(ordered);
}

}  // namespace prever::core
