#ifndef PREVER_BENCH_BENCH_COMMON_H_
#define PREVER_BENCH_BENCH_COMMON_H_

// Shared plumbing for the E* benchmark binaries: per-operation latency
// histograms and the uniform machine-readable metrics blob every bench
// prints before exiting (consumed by scripts/bench_smoke.sh and any
// harness that wants structured results instead of scraping counters).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/tracing.h"

namespace prever::benchutil {

/// Wall-clock per-operation histogram for one case of one bench, e.g.
/// OpHistogram("e5", "xor_fetch"). Time the measured operation with
/// PREVER_TRACE_SPAN(op), a histogram-only StageSpan (no causal span). Resolve
/// the histogram once in the benchmark setup, not per iteration: the
/// registry dedups, but each lookup takes its lock.
inline obs::Histogram* OpHistogram(const std::string& bench,
                                   const std::string& bench_case) {
  return obs::Registry::Default().GetHistogram(
      "prever_bench_op_ns", {{"bench", bench}, {"case", bench_case}});
}

/// Worker budget for benches with parallel verification paths, set by a
/// `--threads=N` argument. Defaults to 1 (serial) so results on shared or
/// single-core machines are not skewed by silent oversubscription.
inline size_t& ThreadsFlag() {
  static size_t threads = 1;
  return threads;
}
inline size_t Threads() { return ThreadsFlag(); }

/// Parses and REMOVES `--threads=N` from argv. Call before
/// benchmark::Initialize, which rejects flags it does not recognize.
inline void ParseThreadsFlag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* prefix = "--threads=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
      long v = std::atol(argv[i] + std::strlen(prefix));
      if (v > 0) ThreadsFlag() = static_cast<size_t>(v);
      continue;  // Strip the flag.
    }
    argv[out++] = argv[i];
  }
  *argc = out;
}

/// Chrome-trace output path set by a `--trace=FILE` argument; empty when
/// tracing was not requested.
inline std::string& TraceFileFlag() {
  static std::string path;
  return path;
}

/// Parses and REMOVES `--trace=FILE` from argv (benchmark::Initialize
/// rejects unknown flags). When present, enables the causal tracer for the
/// whole run: every transaction sampled (override the period with
/// PREVER_TRACE_SAMPLE=N) into a large flight-recorder ring, exported as
/// Chrome trace-event JSON by MaybeWriteTrace() at exit. Without the flag
/// the tracer stays runtime-disabled: one relaxed load per potential span
/// (see src/obs/trace.h "Zero-overhead contract").
inline void ParseTraceFlag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* prefix = "--trace=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
      TraceFileFlag() = argv[i] + std::strlen(prefix);
      continue;  // Strip the flag.
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  if (TraceFileFlag().empty()) return;
  obs::TracerConfig cfg;
  cfg.enabled = true;
  cfg.sample_period = 1;
  cfg.ring_capacity = 1 << 16;
  if (const char* sample = std::getenv("PREVER_TRACE_SAMPLE")) {
    long v = std::atol(sample);
    if (v > 0) cfg.sample_period = static_cast<uint64_t>(v);
  }
  obs::Tracer::Get().Configure(cfg);
}

/// Writes the Chrome trace-event JSON to the `--trace=FILE` path (no-op
/// without the flag) and prints a greppable marker line:
///   PREVER_TRACE_FILE <path> spans=<n> traces=<minted>/<sampled>
/// Load the file in Perfetto (ui.perfetto.dev) or feed it to
/// tools/trace_analyze for per-stage critical-path attribution.
inline void MaybeWriteTrace(const char* bench) {
  const std::string& path = TraceFileFlag();
  if (path.empty()) return;
  obs::Tracer& tracer = obs::Tracer::Get();
  Status written = tracer.WriteChromeTrace(path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s: trace write failed: %s\n", bench,
                 written.message().c_str());
    return;
  }
  std::printf("PREVER_TRACE_FILE %s traces=%llu/%llu\n", path.c_str(),
              static_cast<unsigned long long>(tracer.traces_minted()),
              static_cast<unsigned long long>(tracer.traces_sampled()));
  std::fflush(stdout);
}

/// Prints the uniform end-of-run metrics line:
///   PREVER_METRICS_JSON {"bench":"eN","schema":"prever.metrics.v1",
///                        "metrics":{...full registry dump...}}
/// Call from main() after RunSpecifiedBenchmarks(). The marker prefix keeps
/// the blob greppable amid Google Benchmark's human-oriented output.
inline void EmitMetricsJson(const char* bench) {
  obs::Json doc = obs::Json::Object();
  doc.Set("bench", obs::Json::Str(bench));
  doc.Set("schema", obs::Json::Str("prever.metrics.v1"));
  doc.Set("metrics", obs::Registry::Default().RenderJsonDoc());
  std::printf("\nPREVER_METRICS_JSON %s\n", doc.Dump().c_str());
  std::fflush(stdout);
}

}  // namespace prever::benchutil

#endif  // PREVER_BENCH_BENCH_COMMON_H_
