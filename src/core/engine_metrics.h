#ifndef PREVER_CORE_ENGINE_METRICS_H_
#define PREVER_CORE_ENGINE_METRICS_H_

#include <array>
#include <string>

#include "common/status.h"
#include "core/update.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace prever::core {

/// Registry-backed bookkeeping shared by every UpdateEngine. Each engine owns
/// one instance; the underlying counters/histograms live in a Registry keyed
/// by `engine=<name>`, so two instances of the same engine share metric
/// families. stats() semantics stay per-instance: counters are read as deltas
/// against a baseline captured at construction.
///
/// This replaces the hand-rolled `++stats_.accepted` / `++stats_.rejected_*`
/// blocks each engine used to duplicate: call OnSubmit() on entry and return
/// through Finish(status), which classifies the outcome once. Each engine
/// phase is timed by one Span(stage) statement, which feeds that stage's
/// histogram and its causal trace span together.
class EngineMetrics {
 public:
  /// `engine` labels every metric family; pass the engine's name(). Metrics
  /// register in `registry` (Default() for production engines).
  explicit EngineMetrics(const std::string& engine,
                         obs::Registry* registry = &obs::Registry::Default());

  /// Counts a submission attempt. Call once at the top of SubmitUpdate.
  void OnSubmit();

  /// Classifies `status` into accepted / rejected_constraint / rejected_error
  /// and returns it unchanged, so engines can `return metrics_.Finish(s);`.
  Status Finish(Status status);

  /// Per-instance outcome totals (counter values minus construction-time
  /// baseline), preserving the pre-registry EngineStats contract.
  EngineStats Snapshot() const;

  /// Opens the span of one engine phase (kSubmit..kLedgerPhase): wall-clock
  /// ns into prever_engine_phase_ns{phase=TraceStageName(stage)}, plus the
  /// causal span of the same stage. kSubmit opens the transaction's trace
  /// root (carrying `arg`); every other phase is a child-only span.
  obs::StageSpan Span(obs::TraceStage stage, uint64_t arg = 0) {
    size_t i = static_cast<size_t>(stage);
    return obs::StageSpan(i < phase_ns_.size() ? phase_ns_[i] : nullptr,
                          stage, arg,
                          /*root=*/stage == obs::TraceStage::kSubmit);
  }

 private:
  obs::Counter* submitted_;
  obs::Counter* accepted_;
  obs::Counter* rejected_constraint_;
  obs::Counter* rejected_error_;
  /// Indexed by TraceStage; resolved at construction for the engine phases.
  std::array<obs::Histogram*,
             static_cast<size_t>(obs::TraceStage::kLedgerPhase) + 1>
      phase_ns_{};
  EngineStats baseline_;  ///< Counter values when this instance was created.
};

}  // namespace prever::core

#endif  // PREVER_CORE_ENGINE_METRICS_H_
