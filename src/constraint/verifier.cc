#include "constraint/verifier.h"

#include <mutex>

#include "constraint/eval.h"
#include "mutate/mutation.h"
#include "obs/registry.h"
#include "obs/tracing.h"

namespace prever::constraint {

namespace {

/// Process-wide sums of every verifier's Stats (see AggregateCache for the
/// cache's own `prever_verify_agg_*` counters).
struct VerifierCounters {
  obs::Counter* fast_path;
  obs::Counter* slow_path;
  obs::Counter* interpreted;
};

const VerifierCounters& Counters() {
  static const VerifierCounters counters = [] {
    obs::Registry& r = obs::Registry::Default();
    return VerifierCounters{
        r.GetCounter("prever_verify_fast_path_total"),
        r.GetCounter("prever_verify_slow_path_total"),
        r.GetCounter("prever_verify_interpreted_constraints_total")};
  }();
  return counters;
}

}  // namespace

CompiledVerifier::CompiledVerifier(const ConstraintCatalog* catalog,
                                   storage::Database* db)
    : catalog_(catalog), db_(db) {
  if (db_ != nullptr) {
    observer_id_ = db_->AddCommitObserver(
        [this](const storage::Mutation& mutation, const storage::Row* before,
               uint64_t /*version*/) {
          PREVER_CAUSAL_SPAN(causal_agg, obs::TraceStage::kVerifyAggUpdate);
          std::unique_lock lock(mu_);
          agg_cache_.OnCommitted(mutation, before);
        });
  }
}

CompiledVerifier::~CompiledVerifier() {
  if (db_ != nullptr) db_->RemoveCommitObserver(observer_id_);
}

void CompiledVerifier::RefreshLocked() {
  if (compiled_once_ && compiled_revision_ == catalog_->revision()) return;
  PREVER_CAUSAL_SPAN(causal_compile, obs::TraceStage::kVerifyCompile);
  // Every AggregateSpec pointer is about to die; the cache keyed on them
  // goes with it (TryReadEvaluate is revision-gated, so readers never see
  // the stale generation).
  agg_cache_ = AggregateCache();
  entries_.clear();
  adhoc_.clear();
  stats_.compiled_constraints = 0;
  stats_.interpreted_constraints = 0;
  for (const Constraint& c : catalog_->constraints()) {
    Entry e;
    e.constraint = &c;
    e.compiled = std::make_shared<const CompiledConstraint>(
        CompileConstraint(*c.expr));
    if (e.compiled->ok) {
      ++stats_.compiled_constraints;
    } else {
      ++stats_.interpreted_constraints;
      Counters().interpreted->Inc();
    }
    entries_.push_back(std::move(e));
  }
  compiled_revision_ = catalog_->revision();
  compiled_once_ = true;
  ++stats_.recompiles;
}

namespace {

Status Violation(const Constraint& c) {
  return Status::ConstraintViolation("update violates constraint '" + c.name +
                                     "': " + c.expr->ToString());
}

}  // namespace

bool CompiledVerifier::TryVerifyAllShared(const EvalContext& ctx,
                                          Status* out) const {
  std::shared_lock lock(mu_);
  if (!compiled_once_ || compiled_revision_ != catalog_->revision()) {
    return false;
  }
  for (const Entry& e : entries_) {
    bool ok;
    if (!e.compiled->ok) {
      auto r = EvaluateBool(*e.constraint->expr, ctx);
      if (!r.ok()) {
        *out = r.status();
        return true;
      }
      ok = *r;
    } else {
      bool miss = false;
      AggFn agg_fn = [&](size_t i) -> Result<storage::Value> {
        Result<storage::Value> v = Status::Internal("agg cache miss");
        if (!agg_cache_.TryReadEvaluate(*e.compiled->aggs[i], ctx, &v)) {
          miss = true;
          return Status::Internal("agg cache miss");
        }
        return v;
      };
      auto r = RunScalar(e.compiled->top, ctx, nullptr, &agg_fn);
      if (miss) return false;  // Cache needs maintenance: retry exclusive.
      if (!r.ok()) {
        *out = r.status();
        return true;
      }
      if (r->tag != RegVal::Tag::kBool) {
        // The interpreter owns the exact "value is not bool, is <type>"
        // message (a RegVal number cannot tell int64 from timestamp).
        auto rb = EvaluateBool(*e.constraint->expr, ctx);
        if (!rb.ok()) {
          *out = rb.status();
          return true;
        }
        ok = *rb;
      } else {
        ok = r->b;
      }
    }
    if (PREVER_MUTATION(CATALOG_IGNORE_VIOLATION, !ok, false)) {
      *out = Violation(*e.constraint);
      return true;
    }
  }
  *out = Status::Ok();
  return true;
}

Status CompiledVerifier::CheckOneLocked(const Entry& entry,
                                        const EvalContext& ctx) {
  bool ok;
  if (!entry.compiled->ok) {
    PREVER_ASSIGN_OR_RETURN(ok, EvaluateBool(*entry.constraint->expr, ctx));
  } else {
    const CompiledConstraint& cc = *entry.compiled;
    AggFn agg_fn = [&](size_t i) -> Result<storage::Value> {
      return agg_cache_.Evaluate(*cc.aggs[i], ctx, &batches_);
    };
    auto r = RunScalar(cc.top, ctx, nullptr, &agg_fn);
    if (!r.ok()) return r.status();
    if (r->tag != RegVal::Tag::kBool) {
      PREVER_ASSIGN_OR_RETURN(ok, EvaluateBool(*entry.constraint->expr, ctx));
    } else {
      ok = r->b;
    }
  }
  if (PREVER_MUTATION(CATALOG_IGNORE_VIOLATION, !ok, false)) {
    return Violation(*entry.constraint);
  }
  return Status::Ok();
}

Status CompiledVerifier::VerifyAll(const EvalContext& ctx) {
  // A foreign database (engines sharing one verifier across platforms)
  // cannot use this verifier's per-table cache state: stay stateless.
  if (db_ != nullptr && ctx.db != nullptr && ctx.db != db_) {
    return catalog_->CheckAll(ctx);
  }
  PREVER_CAUSAL_SPAN(causal_eval, obs::TraceStage::kVerifyEval);
  Status out;
  if (TryVerifyAllShared(ctx, &out)) {
    fast_path_verifies_.fetch_add(1, std::memory_order_relaxed);
    Counters().fast_path->Inc();
    return out;
  }
  std::unique_lock lock(mu_);
  RefreshLocked();
  ++stats_.slow_path_verifies;
  Counters().slow_path->Inc();
  for (const Entry& e : entries_) {
    PREVER_RETURN_IF_ERROR(CheckOneLocked(e, ctx));
  }
  return Status::Ok();
}

Result<int64_t> CompiledVerifier::EvaluateAggregate(const Expr& agg,
                                                    const EvalContext& ctx) {
  if ((db_ != nullptr && ctx.db != nullptr && ctx.db != db_) ||
      agg.kind != ExprKind::kAggregate) {
    return constraint::EvaluateAggregate(agg, ctx);
  }
  {
    std::shared_lock lock(mu_);
    auto it = adhoc_.find(&agg);
    if (it != adhoc_.end()) {
      if (!it->second->usable) {
        lock.unlock();
        return constraint::EvaluateAggregate(agg, ctx);
      }
      Result<storage::Value> v = Status::Internal("agg cache miss");
      if (agg_cache_.TryReadEvaluate(*it->second->compiled->aggs[0], ctx, &v)) {
        if (!v.ok()) return v.status();
        return v->AsInt64();
      }
    }
  }
  std::unique_lock lock(mu_);
  auto& up = adhoc_[&agg];
  if (!up) {
    PREVER_CAUSAL_SPAN(causal_compile, obs::TraceStage::kVerifyCompile);
    up = std::make_unique<AdhocAgg>();
    up->compiled =
        std::make_shared<const CompiledConstraint>(CompileConstraint(agg));
    // A lone top-level aggregate always lowers to exactly one spec.
    up->usable = up->compiled->ok && up->compiled->aggs.size() == 1;
  }
  if (!up->usable) return constraint::EvaluateAggregate(agg, ctx);
  PREVER_CAUSAL_SPAN(causal_eval, obs::TraceStage::kVerifyEval);
  auto v = agg_cache_.Evaluate(*up->compiled->aggs[0], ctx, &batches_);
  if (!v.ok()) return v.status();
  return v->AsInt64();
}

void CompiledVerifier::InvalidateCaches() {
  std::unique_lock lock(mu_);
  agg_cache_.InvalidateAll();
  batches_.Clear();
}

CompiledVerifier::Stats CompiledVerifier::stats() const {
  std::shared_lock lock(mu_);
  Stats s = stats_;
  s.agg = agg_cache_.stats();
  s.fast_path_verifies = fast_path_verifies_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace prever::constraint
