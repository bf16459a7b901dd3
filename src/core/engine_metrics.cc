#include "core/engine_metrics.h"

namespace prever::core {

EngineMetrics::EngineMetrics(const std::string& engine,
                             obs::Registry* registry) {
  const obs::Labels base{{"engine", engine}};
  auto outcome = [&](const char* o) {
    obs::Labels l = base;
    l["outcome"] = o;
    return registry->GetCounter("prever_engine_updates_total", l);
  };
  submitted_ = outcome("submitted");
  accepted_ = outcome("accepted");
  rejected_constraint_ = outcome("rejected_constraint");
  rejected_error_ = outcome("rejected_error");
  for (size_t i = static_cast<size_t>(obs::TraceStage::kSubmit);
       i < phase_ns_.size(); ++i) {
    obs::Labels l = base;
    l["phase"] = obs::TraceStageName(static_cast<obs::TraceStage>(i));
    phase_ns_[i] = registry->GetHistogram("prever_engine_phase_ns", l);
  }
  baseline_.submitted = submitted_->value();
  baseline_.accepted = accepted_->value();
  baseline_.rejected_constraint = rejected_constraint_->value();
  baseline_.rejected_error = rejected_error_->value();
}

void EngineMetrics::OnSubmit() { submitted_->Inc(); }

Status EngineMetrics::Finish(Status status) {
  if (status.ok()) {
    accepted_->Inc();
  } else if (status.code() == StatusCode::kConstraintViolation) {
    rejected_constraint_->Inc();
  } else {
    rejected_error_->Inc();
  }
  return status;
}

EngineStats EngineMetrics::Snapshot() const {
  EngineStats s;
  s.submitted = submitted_->value() - baseline_.submitted;
  s.accepted = accepted_->value() - baseline_.accepted;
  s.rejected_constraint =
      rejected_constraint_->value() - baseline_.rejected_constraint;
  s.rejected_error = rejected_error_->value() - baseline_.rejected_error;
  return s;
}

}  // namespace prever::core
