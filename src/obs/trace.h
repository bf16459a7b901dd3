#ifndef PREVER_OBS_TRACE_H_
#define PREVER_OBS_TRACE_H_

// Zero-overhead contract for PReVer instrumentation. One statement times
// one pipeline stage: a StageSpan below records the stage's wall-clock
// histogram AND opens its causal span (obs/tracing.h) over the same
// TraceStage taxonomy.
//
//  1. Compiled out: configuring with -DPREVER_TRACING=OFF defines
//     PREVER_TRACING_DISABLED, under which every tracing.h class is an
//     empty stub (static_assert'd to carry no state) and the causal-span
//     macros expand to objects the optimizer erases entirely. A StageSpan
//     keeps only its histogram half: metrics survive, causal work is gone.
//  2. Compiled in, runtime-disabled (the default): every causal
//     instrumentation point costs exactly one relaxed atomic load and one
//     predictable branch before bailing out. No allocation, no ring write,
//     no thread-local context mutation happens while Tracer::enabled() is
//     false.
//  3. Enabled but unsampled: minting a root costs two relaxed RMWs (trace
//     id + minted counter) plus one hash; a dropped trace propagates a
//     null context, so every downstream span/instant on that transaction
//     falls back to the mode-2 cost.
//
// The contract is enforced by TEST(ObsTracingOverhead, ...) in
// tests/tracing_test.cc and the BM_TraceDisabledOverhead case in
// bench/bench_e2_consensus.cpp (asserted loosely by scripts/bench_smoke.sh
// so a regression to per-op allocation or locking cannot land silently).
//
// The histogram half follows the same discipline: its Histogram* is
// resolved once by the owner (EngineMetrics at construction, OpHistogram
// in the benches), never looked up per span, and a null histogram disarms
// it with no clock read.

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/tracing.h"

namespace prever::obs {

/// Wall-clock monotonic nanoseconds (steady_clock, immune to NTP steps).
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII span over one pipeline stage, the single instrumentation call per
/// phase. It records elapsed wall-clock nanoseconds into `hist` at End()
/// (a null histogram records nothing and reads no clock) and opens the
/// causal TraceSpan of `stage` — child-only unless `root`, so with tracing
/// off or the trace unsampled the causal half is one relaxed load.
/// TraceStage::kNone makes a histogram-only timer with no causal half.
class StageSpan {
 public:
  explicit StageSpan(Histogram* hist, TraceStage stage = TraceStage::kNone,
                     uint64_t arg = 0, bool root = false)
      : hist_(hist),
        start_(hist != nullptr ? MonotonicNanos() : 0),
        causal_(stage, arg, root) {}
  ~StageSpan() { End(); }

  /// Closes both halves early, for spans that end before scope exit; a
  /// second call is a no-op.
  void End() {
    causal_.End();
    if (hist_ != nullptr) {
      hist_->Record(MonotonicNanos() - start_);
      hist_ = nullptr;
    }
  }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_;
  TraceSpan causal_;
};

}  // namespace prever::obs

#define PREVER_TRACE_CONCAT_IMPL_(a, b) a##b
#define PREVER_TRACE_CONCAT_(a, b) PREVER_TRACE_CONCAT_IMPL_(a, b)

/// Times the rest of the enclosing scope into `hist_ptr` (wall clock, ns)
/// with no causal span: a histogram-only StageSpan.
#define PREVER_TRACE_SPAN(hist_ptr) \
  ::prever::obs::StageSpan PREVER_TRACE_CONCAT_(_span_, __LINE__)(hist_ptr)

#endif  // PREVER_OBS_TRACE_H_
