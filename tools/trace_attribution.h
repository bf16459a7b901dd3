#ifndef PREVER_TOOLS_TRACE_ATTRIBUTION_H_
#define PREVER_TOOLS_TRACE_ATTRIBUTION_H_

// Self-time attribution over PReVer causal span trees: the critical-path
// table of tools/trace_analyze, kept in a library so its accounting can be
// tested on synthetic trees.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace prever::traceattr {

/// One exported span (an "X" event of a prever.trace.v1 Chrome trace).
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  uint64_t begin_ns = 0;  ///< Wall-clock start.
  uint64_t dur_ns = 0;
  uint64_t sim_dur_us = 0;
  std::string stage;
  std::vector<size_t> children;  ///< Indices into the span list.
};

/// Links every span to its parent and returns the roots: spans with no
/// parent, plus orphans whose parent is absent from `spans` (counted in
/// `*orphans`; ring wrap-around can drop ancestors).
std::vector<size_t> BuildForest(std::vector<Span>& spans, size_t* orphans);

/// The attribution bucket of a stage — "verify", "durability",
/// "consensus" or "queue-wait" — or nullptr for stages outside the four
/// buckets of the paper's transaction path (the "submit" root among them).
const char* Bucket(const std::string& stage);

/// Where one root's wall time went. Every nanosecond of the root's
/// interval lands in exactly one bucket or in the residual, so the bucket
/// totals plus the residual equal root_ns.
struct Attribution {
  std::map<std::string, uint64_t> bucket_ns;
  uint64_t residual_ns = 0;  ///< Root time inside no bucketed span.
  uint64_t root_ns = 0;

  void Add(const Attribution& other);
};

/// Self-time attribution of the tree under `root`. Every descendant is
/// clipped to the root's interval, because async children (SubmitAsync's
/// queue-wait and consensus spans) outlive the submit root. Each instant of
/// the root then belongs to the deepest span covering it, so a span's self
/// time is its duration minus the time its descendants cover, and nested
/// spans are never counted twice. Clipping is against the root rather than
/// the immediate parent: a consensus span is the causal child of the
/// queue-wait span that sealed its batch but starts as that span ends, so
/// a parent clip would erase all consensus time.
Attribution AttributeRoot(const std::vector<Span>& spans, size_t root);

}  // namespace prever::traceattr

#endif  // PREVER_TOOLS_TRACE_ATTRIBUTION_H_
