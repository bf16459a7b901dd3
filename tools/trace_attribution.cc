#include "trace_attribution.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace prever::traceattr {

std::vector<size_t> BuildForest(std::vector<Span>& spans, size_t* orphans) {
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].span_id] = i;
  std::vector<size_t> roots;
  *orphans = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_span_id == 0) {
      roots.push_back(i);
      continue;
    }
    auto it = by_id.find(spans[i].parent_span_id);
    if (it == by_id.end()) {
      ++*orphans;
      roots.push_back(i);
    } else {
      spans[it->second].children.push_back(i);
    }
  }
  return roots;
}

// Engine phase spans (verify/crypto/token) and the verifier's sub-phases
// are all verification work; the engine ledger phase and ledger/WAL
// appends are durability; queue-wait and consensus come from the ordering
// pipeline.
const char* Bucket(const std::string& stage) {
  if (stage == "queue_wait") return "queue-wait";
  if (stage == "consensus") return "consensus";
  if (stage == "ledger_append" || stage == "wal_append" ||
      stage == "ledger_phase") {
    return "durability";
  }
  if (stage == "verify" || stage == "crypto" || stage == "token" ||
      stage == "verify_compile" || stage == "verify_eval" ||
      stage == "verify_agg_update") {
    return "verify";
  }
  return nullptr;
}

void Attribution::Add(const Attribution& other) {
  for (const auto& [bucket, ns] : other.bucket_ns) bucket_ns[bucket] += ns;
  residual_ns += other.residual_ns;
  root_ns += other.root_ns;
}

Attribution AttributeRoot(const std::vector<Span>& spans, size_t root) {
  const uint64_t lo = spans[root].begin_ns;
  const uint64_t hi = lo + spans[root].dur_ns;
  // Sweep the root's interval: +1/-1 events at each clipped span edge; at
  // every step the deepest open span (latest-begun on a depth tie) owns
  // the elapsed time.
  using Key = std::tuple<size_t, uint64_t, size_t>;  // depth, begin, index.
  std::vector<std::pair<uint64_t, std::pair<bool, Key>>> edges;
  std::vector<std::pair<size_t, size_t>> stack{{root, 0}};
  while (!stack.empty()) {
    auto [i, depth] = stack.back();
    stack.pop_back();
    const Span& s = spans[i];
    uint64_t b = std::max(s.begin_ns, lo);
    uint64_t e = std::min(s.begin_ns + s.dur_ns, hi);
    if (b < e) {
      Key key{depth, s.begin_ns, i};
      edges.push_back({b, {true, key}});
      edges.push_back({e, {false, key}});
    }
    for (size_t c : s.children) stack.push_back({c, depth + 1});
  }
  std::sort(edges.begin(), edges.end());

  Attribution out;
  out.root_ns = hi - lo;
  std::set<Key> open;
  uint64_t prev = lo;
  for (const auto& [t, edge] : edges) {
    if (!open.empty() && t > prev) {
      const char* bucket = Bucket(spans[std::get<2>(*open.rbegin())].stage);
      if (bucket != nullptr) {
        out.bucket_ns[bucket] += t - prev;
      } else {
        out.residual_ns += t - prev;
      }
    }
    prev = t;
    if (edge.first) {
      open.insert(edge.second);
    } else {
      open.erase(edge.second);
    }
  }
  return out;
}

}  // namespace prever::traceattr
