#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <array>
#include <climits>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it (p in (0, 100]; p <= 0 gives the minimum). Exact on
/// every input — no interpolation, no bucketing. 0 for an empty vector.
double Percentile(std::vector<double> samples, double p);

/// Median by the same rule (Percentile(samples, 50)).
double Median(std::vector<double> samples);

/// The highest of the reportable percentiles {50, 90, 99, 99.9} that leaves
/// at least ten samples strictly beyond its rank, or 0 when even the median
/// does not (fewer than 20 samples).
double HighestSupportedPercentile(size_t n);

// ---------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;  ///< Printed by the traced run; end-to-end otherwise.
};

/// Every metric the benchmark prints, in output order. BENCHMARK.json lists
/// the same names and units (checked by the self-tests).
const std::vector<MetricDef>& AllMetrics();

/// Metric names use only [A-Za-z0-9_.-], start with a letter or digit, and
/// are at most 64 characters long.
bool ValidMetricName(std::string_view name);

/// Formats a double with the shortest text that reads back to the same
/// value (all its digits, nothing invented).
std::string FormatNumber(double v);

/// The final result line: exactly the keys correct/attempted/failed/metrics,
/// with every metric of the run's kind (per-layer when `per_layer`) taken
/// from `values`. Returns an empty string if a metric is missing.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       bool per_layer,
                       const std::map<std::string, double>& values);

// ----------------------------------------------------------------- timing

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Peak resident set size of this process image so far, in MiB.
double PeakRssMb();

/// CPU model, core count, compiler, build flags and the source identifier
/// passed in by the runner, as one JSON object.
std::string FingerprintJson(const std::string& source_id);

// ---------------------------------------------------------------- tracing

/// Layers of the span tree the traced run records around its calls into
/// the program. kSubmit and kAudit are roots; the rest are children.
enum class Layer : uint8_t {
  kSubmit = 0,   ///< One submit call (an update, or a batch of updates).
  kConstraint,   ///< CompiledVerifier::VerifyAll.
  kStorage,      ///< Database::Apply (WAL append + table write).
  kLedger,       ///< Centralized ledger append.
  kConsensus,    ///< PbftOrdering Append / SubmitAsync / Flush.
  kToken,        ///< TokenWallet::Withdraw (blind issuance).
  kCrypto,       ///< RsaVerify of spent tokens.
  kAudit,        ///< One audit: Digest, ProveInclusion, VerifyInclusion.
  kProve,        ///< Digest + GetEntry + ProveInclusion.
  kVerifyProof,  ///< LedgerDb::VerifyInclusion.
  kCount,
};
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

/// In-memory span tree of one thread: each span records its layer, its
/// parent (the span open when it began) and its start/end times. Spans are
/// kept until Clear(); self time is computed from the whole tree, so a
/// layer's time is its spans' durations minus the time their children
/// cover, and no interval is counted twice.
class SpanLog {
 public:
  struct Span {
    uint32_t parent = kNoParent;
    Layer layer = Layer::kSubmit;
    int64_t start_ns = 0;
    int64_t end_ns = -1;  ///< -1 while open.
  };
  static constexpr uint32_t kNoParent = UINT32_MAX;

  /// RAII span around one call.
  class Scope {
   public:
    Scope(SpanLog& log, Layer layer) : log_(log), id_(log.Begin(layer)) {}
    ~Scope() { log_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    uint32_t id_;
  };

  uint32_t Begin(Layer layer);
  /// Closes `id`, which must be the innermost open span.
  void End(uint32_t id);
  /// Appends a span with explicit times (tests build synthetic trees).
  uint32_t Add(Layer layer, uint32_t parent, int64_t start_ns,
               int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear();

  /// Self time in ns per layer over every span in the log.
  std::array<int64_t, kLayerCount> SelfNs() const;
  /// Summed duration of the root spans of `layer`.
  int64_t RootNs(Layer layer) const;
  /// Empty when every span is closed, lies inside its parent and does not
  /// overlap an earlier sibling; otherwise a description of the first
  /// violation. Self times only add up to the roots when this holds.
  std::string CheckNesting() const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
