#include "core/federated_token_engine.h"

#include "obs/tracing.h"

#include "mutate/mutation.h"

namespace prever::core {

FederatedTokenEngine::FederatedTokenEngine(
    std::vector<FederatedPlatform*> platforms,
    token::TokenAuthority* authority, OrderingService* ordering,
    std::string cost_field)
    : platforms_(std::move(platforms)),
      authority_(authority),
      ordering_(ordering),
      cost_field_(std::move(cost_field)) {}

token::TokenWallet& FederatedTokenEngine::WalletOf(
    const std::string& producer) {
  auto it = wallets_.find(producer);
  if (it == wallets_.end()) {
    it = wallets_
             .emplace(producer, std::make_unique<token::TokenWallet>(
                                    authority_->public_key(),
                                    next_wallet_seed_++))
             .first;
  }
  return *it->second;
}

Status FederatedTokenEngine::SubmitVia(size_t platform_index,
                                       const Update& update) {
  return SubmitViaInternal(platform_index, update, /*async_ledger=*/false);
}

Status FederatedTokenEngine::SyncSpentFromLedger() {
  const ledger::LedgerDb& led = ordering_->Ledger();
  PREVER_RETURN_IF_ERROR(led.Audit());
  spent_.clear();
  for (uint64_t seq = 0; seq < led.size(); ++seq) {
    PREVER_ASSIGN_OR_RETURN(ledger::LedgerEntry entry, led.GetEntry(seq));
    spent_.insert(entry.payload);
  }
  return Status::Ok();
}

Status FederatedTokenEngine::SubmitBatchVia(size_t platform_index,
                                            const std::vector<Update>& updates) {
  Status first = Status::Ok();
  for (const Update& update : updates) {
    Status s = SubmitViaInternal(platform_index, update, /*async_ledger=*/true);
    if (!s.ok() && first.ok()) first = s;
  }
  Status flushed = ordering_->Flush();
  if (!flushed.ok() && first.ok()) first = flushed;
  return first;
}

Status FederatedTokenEngine::SubmitViaInternal(size_t platform_index,
                                               const Update& update,
                                               bool async_ledger) {
  metrics_.OnSubmit();
  auto submit_span = metrics_.Span(obs::TraceStage::kSubmit);
  if (platform_index >= platforms_.size()) {
    return metrics_.Finish(Status::InvalidArgument("no such platform"));
  }
  auto cost_it = update.fields.find(cost_field_);
  if (cost_it == update.fields.end()) {
    return metrics_.Finish(Status::InvalidArgument(
        "update lacks cost field '" + cost_field_ + "'"));
  }
  auto cost = cost_it->second.AsInt64();
  if (!cost.ok() || *cost < 0) {
    return metrics_.Finish(
        Status::InvalidArgument("cost must be a non-negative int"));
  }

  auto token_span = metrics_.Span(obs::TraceStage::kToken);
  // Producer side: ensure the wallet holds `cost` tokens, withdrawing the
  // shortfall. A failed withdrawal IS the regulation rejecting the update:
  // the budget encodes the bound.
  token::TokenWallet& wallet = WalletOf(update.producer);
  size_t need = static_cast<size_t>(*cost);
  if (wallet.NumTokens() < need) {
    auto got = wallet.Withdraw(*authority_, update.producer,
                               need - wallet.NumTokens(), update.timestamp);
    if (!got.ok()) return metrics_.Finish(got.status());
    if (wallet.NumTokens() < need) {
      return metrics_.Finish(Status::ConstraintViolation(
          "token budget exhausted: regulation limit reached for '" +
          update.producer + "'"));
    }
  }

  // Platform side: verify and spend each token against the shared ledger
  // state. Wallet draws mutate the wallet, so they run serially up front;
  // the signature checks are independent pure computations and fan out
  // across the pool when one is set. Double-spend checks read the shared
  // spent-set and stay serial.
  std::vector<token::Token> to_spend;
  to_spend.reserve(need);
  for (size_t i = 0; i < need; ++i) {
    auto t = wallet.Take();
    if (!t.ok()) return metrics_.Finish(t.status());
    to_spend.push_back(std::move(*t));
  }
  std::vector<char> sig_ok(need, 0);
  auto verify_one = [&](size_t i) {
    sig_ok[i] = crypto::RsaVerify(authority_->public_key(),
                                  to_spend[i].serial, to_spend[i].signature)
                    ? 1
                    : 0;
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(need, verify_one);
  } else {
    for (size_t i = 0; i < need; ++i) verify_one(i);
  }
  for (size_t i = 0; i < need; ++i) {
    if (PREVER_MUTATION(FTE_SIG_ACCEPT, !sig_ok[i], false)) {
      return metrics_.Finish(
          Status::IntegrityViolation("token signature invalid"));
    }
    if (PREVER_MUTATION(FTE_DOUBLE_SPEND_SKIP,
                        spent_.count(to_spend[i].serial) != 0, false)) {
      return metrics_.Finish(
          Status::AlreadyExists("token double spend detected"));
    }
  }
  token_span.End();

  // Apply locally, then order the spent serials + update digest so every
  // platform learns the tokens are burned (and nothing else).
  auto ledger_span = metrics_.Span(obs::TraceStage::kLedgerPhase);
  FederatedPlatform* home = platforms_[platform_index];
  Status applied = home->db.Apply(update.mutation);
  if (!applied.ok()) return metrics_.Finish(applied);
  for (const token::Token& t : to_spend) {
    spent_.insert(t.serial);
    Status ordered =
        async_ledger
            ? ordering_->SubmitAsync(t.serial, update.timestamp).status()
            : ordering_->Append(t.serial, update.timestamp);
    if (!ordered.ok()) return metrics_.Finish(ordered);
    ++tokens_spent_;
  }
  return metrics_.Finish(Status::Ok());
}

}  // namespace prever::core
