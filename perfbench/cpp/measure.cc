#include "measure.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "obs/json.h"

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // Rank in 1..n; the 1e-9 slack keeps exact products such as 0.9 * 10 from
  // rounding up to the next rank.
  double rank = std::ceil(p / 100.0 * n - 1e-9);
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    // Samples strictly beyond the nearest rank of p.
    double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    if (static_cast<double>(n) - rank >= 10.0) best = p;
  }
  return best;
}

const std::vector<MetricDef>& AllMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      // End to end: what a producer and an auditor of the system see.
      {"setup_s", "s", false},
      {"updates_per_s", "1/s", false},
      {"submit_p50_us", "us", false},
      {"submit_p90_us", "us", false},
      {"audit_p50_us", "us", false},
      {"audit_p90_us", "us", false},
      {"peak_rss_mb", "MiB", false},
      // Per layer, from the traced run. Times are self times per update
      // (per commit, per audit or per checkpoint where the name says so).
      {"constraint.verify_us", "us", true},
      {"constraint.agg_rebuilds_per_update", "count", true},
      {"constraint.interpreted_frac", "ratio", true},
      {"storage.apply_us", "us", true},
      {"storage.wal_bytes_per_update", "bytes", true},
      {"ledger.append_us", "us", true},
      {"ledger.prove_us", "us", true},
      {"ledger.verify_proof_us", "us", true},
      {"ledger.proof_hashes", "count", true},
      {"consensus.order_us_per_commit", "us", true},
      {"net.msgs_per_commit", "count", true},
      {"net.bytes_per_commit", "bytes", true},
      {"consensus.order_growth", "ratio", true},
      {"consensus.commit_sim_ms", "sim_ms", true},
      {"recovery.checkpoint_us", "us", true},
      {"recovery.checkpoint_bytes", "bytes", true},
      {"core.batch_size", "count", true},
      {"token.withdraw_us", "us", true},
      {"token.tokens_per_update", "count", true},
      {"crypto.rsa_verify_us", "us", true},
      {"core.engine_self_us", "us", true},
      {"bench.trace_overhead_frac", "ratio", true},
  };
  return kMetrics;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       bool per_layer,
                       const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : AllMetrics()) {
    if (m.per_layer != per_layer) continue;
    auto it = values.find(m.name);
    if (it == values.end() || !std::isfinite(it->second)) return "";
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(m.name) + "\": {\"value\": " +
           FormatNumber(it->second) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would carry
  // over the high-water mark of the runner that forked and exec'd us.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB.
    }
  }
  return 0.0;
}

std::string FingerprintJson(const std::string& source_id) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  prever::obs::Json fp = prever::obs::Json::Object();
  fp.Set("cpu_model", prever::obs::Json::Str(cpu));
  fp.Set("nproc", prever::obs::Json::Int(static_cast<uint64_t>(
                      sysconf(_SC_NPROCESSORS_ONLN))));
  fp.Set("compiler", prever::obs::Json::Str(std::string("g++ ") + __VERSION__));
  fp.Set("build_flags", prever::obs::Json::Str(PERFBENCH_BUILD_FLAGS));
  fp.Set("source", prever::obs::Json::Str(source_id));
  fp.Set("time_base", prever::obs::Json::Str("wall-clock steady_clock; *_sim_* "
                                     "metrics are simulated network time"));
  return fp.Dump();
}

// ---------------------------------------------------------------- SpanLog

uint32_t SpanLog::Begin(Layer layer) {
  uint32_t parent = open_.empty() ? kNoParent : open_.back();
  auto id = static_cast<uint32_t>(spans_.size());
  spans_.push_back(Span{parent, layer, NowNs(), -1});
  open_.push_back(id);
  return id;
}

void SpanLog::End(uint32_t id) {
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

uint32_t SpanLog::Add(Layer layer, uint32_t parent, int64_t start_ns,
                      int64_t end_ns) {
  spans_.push_back(Span{parent, layer, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanLog::Clear() {
  spans_.clear();
  open_.clear();
}

std::array<int64_t, kLayerCount> SpanLog::SelfNs() const {
  std::array<int64_t, kLayerCount> self{};
  for (const Span& s : spans_) {
    int64_t duration = s.end_ns - s.start_ns;
    self[static_cast<size_t>(s.layer)] += duration;
    if (s.parent != kNoParent) {
      self[static_cast<size_t>(spans_[s.parent].layer)] -= duration;
    }
  }
  return self;
}

int64_t SpanLog::RootNs(Layer layer) const {
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.parent == kNoParent && s.layer == layer) {
      total += s.end_ns - s.start_ns;
    }
  }
  return total;
}

std::string SpanLog::CheckNesting() const {
  // Spans are stored in begin order, so a child follows its parent and an
  // earlier sibling; the last child end seen per parent suffices.
  std::vector<int64_t> last_child_end(spans_.size(), INT64_MIN);
  int64_t last_root_end = INT64_MIN;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string where = "span " + std::to_string(i);
    if (s.end_ns < s.start_ns) return where + " is not closed";
    int64_t& prev_end =
        s.parent == kNoParent ? last_root_end : last_child_end[s.parent];
    if (s.start_ns < prev_end) return where + " overlaps an earlier sibling";
    prev_end = s.end_ns;
    if (s.parent == kNoParent) continue;
    if (s.parent >= i) return where + " has a later parent";
    const Span& p = spans_[s.parent];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return where + " is not inside its parent";
    }
  }
  return "";
}

}  // namespace perfbench
