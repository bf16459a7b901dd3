// trace_analyze: critical-path analyzer for PReVer causal traces.
//
// Reads a Chrome trace-event JSON file produced by `--trace=FILE` (schema
// "prever.trace.v1", see src/obs/tracing.h), reconstructs the span tree of
// every sampled transaction, and prints per-stage p50/p99 (exact, from the
// nanosecond durations carried in event args) plus a self-time attribution
// of every root's wall time to queue-wait / consensus / durability /
// verify and an unattributed residual (see trace_attribution.h).
//
// Usage: trace_analyze [--strict] [--tree] FILE.json
//   --strict  exit nonzero when the trace is structurally broken (a span
//             references a parent that is not in the file, or no spans at
//             all). Without it such spans are reported as orphans only —
//             ring wrap-around can legitimately drop ancestors.
//   --tree    additionally print the span tree of the largest trace.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/json.h"
#include "trace_attribution.h"

namespace {

using prever::obs::Json;
using prever::traceattr::Span;

uint64_t ArgU64(const Json& ev, const char* key) {
  const Json* args = ev.Find("args");
  if (args == nullptr) return 0;
  const Json* v = args->Find(key);
  return v != nullptr && v->is_number() ? v->AsUint64() : 0;
}

std::string ReadFile(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return {};
  std::string text;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  return text;
}

uint64_t Percentile(std::vector<uint64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

void PrintTree(const std::vector<Span>& spans, size_t i, int depth) {
  const Span& s = spans[i];
  std::printf("%*s%s span=%llu dur=%.3fus sim=%lluus\n", 2 * depth, "",
              s.stage.c_str(), static_cast<unsigned long long>(s.span_id),
              static_cast<double>(s.dur_ns) / 1000.0,
              static_cast<unsigned long long>(s.sim_dur_us));
  for (size_t c : spans[i].children) PrintTree(spans, c, depth + 1);
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  bool tree = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--tree") == 0) {
      tree = true;
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: trace_analyze [--strict] [--tree] FILE\n");
    return 2;
  }
  std::string text = ReadFile(path);
  if (text.empty()) {
    std::fprintf(stderr, "trace_analyze: cannot read %s\n", path);
    return 2;
  }
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "trace_analyze: JSON parse failed: %s\n",
                 parsed.status().message().c_str());
    return 2;
  }
  const Json& doc = *parsed;
  const Json* meta = doc.Find("prever");
  if (meta != nullptr) {
    const Json* schema = meta->Find("schema");
    if (schema != nullptr && schema->AsString() != "prever.trace.v1") {
      std::fprintf(stderr, "trace_analyze: unknown schema %s\n",
                   schema->AsString().c_str());
      return 2;
    }
  }
  const Json* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "trace_analyze: no traceEvents array\n");
    return 2;
  }

  std::vector<Span> spans;
  std::map<std::string, uint64_t> instants;
  for (size_t i = 0; i < events->size(); ++i) {
    const Json& ev = events->at(i);
    const Json* ph = ev.Find("ph");
    const Json* name = ev.Find("name");
    if (ph == nullptr || name == nullptr) continue;
    if (ph->AsString() == "i") {
      ++instants[name->AsString()];
      continue;
    }
    if (ph->AsString() != "X") continue;
    Span s;
    s.stage = name->AsString();
    s.trace_id = ArgU64(ev, "trace_id");
    s.span_id = ArgU64(ev, "span_id");
    s.parent_span_id = ArgU64(ev, "parent_span_id");
    s.dur_ns = ArgU64(ev, "dur_ns");
    s.sim_dur_us = ArgU64(ev, "sim_dur_us");
    // Exact start from args; traces exported before it existed fall back
    // to the microsecond "ts".
    s.begin_ns = ArgU64(ev, "begin_ns");
    const Json* ts = ev.Find("ts");
    if (s.begin_ns == 0 && ts != nullptr) s.begin_ns = ts->AsUint64() * 1000;
    spans.push_back(std::move(s));
  }

  size_t orphans = 0;
  std::vector<size_t> roots = prever::traceattr::BuildForest(spans, &orphans);
  std::unordered_map<uint64_t, size_t> spans_per_trace;
  for (const Span& s : spans) ++spans_per_trace[s.trace_id];

  std::printf("trace: %s\n", path);
  std::printf("  spans=%zu traces=%zu roots=%zu orphan_parents=%zu\n",
              spans.size(), spans_per_trace.size(), roots.size(), orphans);
  if (meta != nullptr) {
    const Json* minted = meta->Find("traces_minted");
    const Json* sampled = meta->Find("traces_sampled");
    if (minted != nullptr && sampled != nullptr) {
      std::printf("  traces_minted=%llu traces_sampled=%llu\n",
                  static_cast<unsigned long long>(minted->AsUint64()),
                  static_cast<unsigned long long>(sampled->AsUint64()));
    }
  }

  // Per-stage latency table with exact percentiles.
  std::map<std::string, std::vector<uint64_t>> by_stage;
  for (const Span& s : spans) by_stage[s.stage].push_back(s.dur_ns);
  std::printf("\n  %-16s %8s %12s %12s %12s\n", "stage", "count", "p50_us",
              "p99_us", "total_ms");
  for (auto& [stage, durs] : by_stage) {
    uint64_t total = 0;
    for (uint64_t d : durs) total += d;
    std::vector<uint64_t> sorted = durs;
    uint64_t p50 = Percentile(sorted, 0.50);
    uint64_t p99 = Percentile(sorted, 0.99);
    std::printf("  %-16s %8zu %12.3f %12.3f %12.3f\n", stage.c_str(),
                durs.size(), static_cast<double>(p50) / 1e3,
                static_cast<double>(p99) / 1e3,
                static_cast<double>(total) / 1e6);
  }

  // Critical-path attribution by self time: each root's wall time split
  // into the four buckets plus the residual no bucketed span covers, so
  // nested spans count once and the rows sum to the roots' total.
  prever::traceattr::Attribution total;
  for (size_t r : roots) total.Add(prever::traceattr::AttributeRoot(spans, r));
  auto row = [&](const char* name, uint64_t ns) {
    double share = total.root_ns == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(ns) /
                             static_cast<double>(total.root_ns);
    std::printf("  %-12s %10.3f ms  %6.2f%%  %10.3f us/root\n", name,
                static_cast<double>(ns) / 1e6, share,
                roots.empty() ? 0.0
                              : static_cast<double>(ns) / 1e3 /
                                    static_cast<double>(roots.size()));
  };
  std::printf("\n  critical-path attribution (self time, share of %zu roots' "
              "%.3f ms):\n",
              roots.size(), static_cast<double>(total.root_ns) / 1e6);
  for (const auto& [bucket, ns] : total.bucket_ns) row(bucket.c_str(), ns);
  row("residual", total.residual_ns);

  if (!instants.empty()) {
    std::printf("\n  instants:\n");
    for (const auto& [name, count] : instants) {
      std::printf("  %-20s %8llu\n", name.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }

  if (tree && !roots.empty()) {
    // Largest trace = the one with the most spans; print its whole forest.
    uint64_t best_trace = 0;
    size_t best_count = 0;
    for (const auto& [tid, count] : spans_per_trace) {
      if (count > best_count) {
        best_count = count;
        best_trace = tid;
      }
    }
    std::printf("\n  span tree (trace %llu, %zu spans):\n",
                static_cast<unsigned long long>(best_trace), best_count);
    for (size_t r : roots) {
      if (spans[r].trace_id == best_trace) PrintTree(spans, r, 2);
    }
  }

  if (strict && (spans.empty() || orphans != 0)) {
    std::fprintf(stderr,
                 "trace_analyze: --strict failure (spans=%zu orphans=%zu)\n",
                 spans.size(), orphans);
    return 1;
  }
  return 0;
}
