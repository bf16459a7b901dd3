#include "core/plaintext_engine.h"

#include "obs/tracing.h"

namespace prever::core {

PlaintextEngine::PlaintextEngine(storage::Database* db,
                                 const constraint::ConstraintCatalog* catalog,
                                 OrderingService* ordering)
    : db_(db), catalog_(catalog), ordering_(ordering), verifier_(catalog, db) {}

Status PlaintextEngine::SubmitUpdate(const Update& update) {
  metrics_.OnSubmit();
  // Trace root: every causal span this transaction produces — phase spans
  // here, queue-wait/consensus/ledger spans downstream — descends from it.
  auto submit_span = metrics_.Span(obs::TraceStage::kSubmit);
  // Step 2 (Fig. 2): verify against every constraint and regulation.
  constraint::EvalContext ctx{db_, &update.fields, update.timestamp};
  Status verified;
  {
    auto verify_span = metrics_.Span(obs::TraceStage::kVerify);
    verified = verifier_.VerifyAll(ctx);
  }
  if (!verified.ok()) return metrics_.Finish(verified);
  // Step 3: incorporate into the database and record on the immutable
  // integrity layer (RC4).
  auto ledger_span = metrics_.Span(obs::TraceStage::kLedgerPhase);
  Status applied = db_->Apply(update.mutation);
  if (!applied.ok()) return metrics_.Finish(applied);
  Status ordered = ordering_->Append(update.Encode(), update.timestamp);
  return metrics_.Finish(ordered);
}

}  // namespace prever::core
