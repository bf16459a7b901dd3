#!/usr/bin/env bash
# Runs the crypto-heavy benches (E1 YCSB engines, E3 verification costs,
# E5 PIR) and appends one labeled record to BENCH_crypto.json capturing
#   - every benchmark case's wall time and rate counters (ops/s etc.), and
#   - the p50/p99 phase latencies from each bench's PREVER_METRICS_JSON blob
# so before/after comparisons for crypto changes live in-repo, next to the
# code they measure.
#
# Usage: scripts/bench_perf.sh <label> [build-dir]   (default: build)
#   e.g. scripts/bench_perf.sh "after-montgomery-64bit"
set -euo pipefail

cd "$(dirname "$0")/.."
LABEL="${1:?usage: scripts/bench_perf.sh <label> [build-dir]}"
BUILD_DIR="${2:-build}"
OUT=BENCH_crypto.json

BENCHES=(
  bench_e1_ycsb_private_vs_plain
  bench_e3_constraint_verification
  bench_e5_pir
)

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "bench_perf: $bin not found (build first)" >&2
    exit 1
  fi
  echo "bench_perf: running $bench ..." >&2
  "$bin" --benchmark_out="$TMP/$bench.json" --benchmark_out_format=json \
      > "$TMP/$bench.out" 2>/dev/null
done

python3 - "$LABEL" "$OUT" "$TMP" "${BENCHES[@]}" <<'EOF'
import json, os, sys

sys.path.insert(0, "scripts/lib")
from bench_append import append_record, load_benchmark_cases, stamp

label, out_path, tmp = sys.argv[1], sys.argv[2], sys.argv[3]
benches = sys.argv[4:]

record = stamp({"benches": {}}, label)

for bench in benches:
    # Rate counters (ops/s, updates/s) and plain counters surface as extra
    # numeric fields in the per-benchmark object.
    cases = load_benchmark_cases(
        os.path.join(tmp, bench + ".json"),
        extra_keys=("accepted", "threads", "mpc_msgs", "tokens"))

    phases = []
    with open(os.path.join(tmp, bench + ".out")) as f:
        metrics_line = None
        for line in f:
            if line.startswith("PREVER_METRICS_JSON "):
                metrics_line = line[len("PREVER_METRICS_JSON "):]
    if metrics_line:
        doc = json.loads(metrics_line)
        for h in doc["metrics"]["histograms"]:
            if h["count"] == 0:
                continue
            phases.append({
                "name": h["name"],
                "labels": h.get("labels", {}),
                "count": h["count"],
                "p50_us": round(h["p50"] / 1e3, 1),
                "p99_us": round(h["p99"] / 1e3, 1),
            })

    bench_id = bench.split("_")[1]  # bench_e1_... -> e1
    record["benches"][bench_id] = {"cases": cases, "phases": phases}

total = append_record(out_path, record)
print(f"bench_perf: appended record '{label}' to {out_path} "
      f"({total} records total)")
EOF

# ---------------------------------------------------------------- consensus
# E2 (stop-and-wait baselines + pipelined batch x window x replica sweeps)
# and the E7 ordered-burst pair feed BENCH_consensus.json. Each pipelined
# case records committed payloads per simulated second plus p50/p99
# per-payload commit latency; speedup_vs_stop_and_wait is derived against
# the blocking BM_Raft/BM_Pbft row with the same replica count.
CONS_OUT=BENCH_consensus.json

echo "bench_perf: running bench_e2_consensus ..." >&2
"$BUILD_DIR/bench/bench_e2_consensus" \
    --benchmark_out="$TMP/e2.json" --benchmark_out_format=json \
    > "$TMP/e2.out" 2>/dev/null
echo "bench_perf: running bench_e7_scaling (ordered-burst) ..." >&2
"$BUILD_DIR/bench/bench_e7_scaling" --benchmark_filter='OrderedBurst' \
    --benchmark_out="$TMP/e7.json" --benchmark_out_format=json \
    > "$TMP/e7.out" 2>/dev/null

python3 - "$LABEL" "$CONS_OUT" "$TMP" <<'EOF'
import os, sys

sys.path.insert(0, "scripts/lib")
from bench_append import append_record, load_benchmark_cases, stamp

label, out_path, tmp = sys.argv[1], sys.argv[2], sys.argv[3]

KEEP = ("sim_commits_per_s", "agg_sim_commits_per_s", "sim_payloads_per_s",
        "sim_latency_p50_ms", "sim_latency_p90_ms", "sim_latency_p99_ms",
        "sim_latency_p999_ms", "batch", "window", "replicas", "burst",
        "net_msgs")

record = stamp({}, label)

cases = load_benchmark_cases(os.path.join(tmp, "e2.json"), keep_keys=KEEP)
cases.update(load_benchmark_cases(os.path.join(tmp, "e7.json"),
                                  keep_keys=KEEP))

# Stop-and-wait throughput per (proto, replicas) from the blocking rows.
baselines = {}
for name, c in cases.items():
    for proto, prefix in (("raft", "BM_Raft/"), ("pbft", "BM_Pbft/")):
        if name.startswith(prefix) and "sim_commits_per_s" in c:
            n = int(name[len(prefix):].split("/")[0])
            baselines[(proto, n)] = c["sim_commits_per_s"]
for name, c in cases.items():
    proto = ("raft" if name.startswith("BM_RaftPipelined/")
             else "pbft" if name.startswith("BM_PbftPipelined/") else None)
    if proto is None or "sim_commits_per_s" not in c:
        continue
    base = baselines.get((proto, int(c.get("replicas", 0))))
    if base:
        c["speedup_vs_stop_and_wait"] = round(c["sim_commits_per_s"] / base, 2)

record["cases"] = cases

total = append_record(out_path, record)

claw = [f"{n}: {c['speedup_vs_stop_and_wait']}x"
        for n, c in sorted(cases.items())
        if "speedup_vs_stop_and_wait" in c]
print(f"bench_perf: appended record '{label}' to {out_path} "
      f"({total} records total)")
for line in claw:
    print("  " + line)
EOF

# ------------------------------------------------------------------ tracing
# BENCH_trace.json: tracing-off vs tracing-on throughput on the traced E2
# case (plaintext engine over pipelined Raft), plus the disabled-path span
# cost. This is the observability tax ledger: the "on" run samples every
# transaction (~12 events each), so overhead_pct is the worst case — real
# deployments sample 1-in-N.
TRACE_OUT=BENCH_trace.json

echo "bench_perf: running traced-E2 off/on comparison ..." >&2
"$BUILD_DIR/bench/bench_e2_consensus" \
    --benchmark_filter='BM_TracedPlaintextRaft|BM_TraceDisabledOverhead' \
    --benchmark_out="$TMP/trace_off.json" --benchmark_out_format=json \
    >/dev/null 2>&1
"$BUILD_DIR/bench/bench_e2_consensus" --trace="$TMP/trace_chrome.json" \
    --benchmark_filter='BM_TracedPlaintextRaft' \
    --benchmark_out="$TMP/trace_on.json" --benchmark_out_format=json \
    >/dev/null 2>&1

python3 - "$LABEL" "$TRACE_OUT" "$TMP" <<'EOF'
import json, os, sys

sys.path.insert(0, "scripts/lib")
from bench_append import append_record, stamp

label, out_path, tmp = sys.argv[1], sys.argv[2], sys.argv[3]

def case(path, name):
    with open(os.path.join(tmp, path)) as f:
        doc = json.load(f)
    for b in doc.get("benchmarks", []):
        if b.get("run_type") != "aggregate" and b["name"].startswith(name):
            return b
    return None

off = case("trace_off.json", "BM_TracedPlaintextRaft")
on = case("trace_on.json", "BM_TracedPlaintextRaft")
overhead = case("trace_off.json", "BM_TraceDisabledOverhead")

record = stamp({}, label)

if off and on and "ops/s" in off and "ops/s" in on:
    record["tracing_off_ops_per_s"] = round(off["ops/s"], 2)
    record["tracing_on_ops_per_s"] = round(on["ops/s"], 2)
    if on["ops/s"] > 0:
        record["overhead_pct"] = round(
            100.0 * (off["ops/s"] - on["ops/s"]) / off["ops/s"], 2)
if overhead and "ns_per_span" in overhead:
    record["disabled_ns_per_span"] = round(overhead["ns_per_span"], 3)

# Spans actually exported by the "on" run, from the Chrome file metadata.
chrome = os.path.join(tmp, "trace_chrome.json")
if os.path.exists(chrome) and os.path.getsize(chrome) > 0:
    meta = json.load(open(chrome)).get("prever", {})
    for key in ("traces_sampled", "spans_exported"):
        if key in meta:
            record[key] = meta[key]

records = []
if os.path.exists(out_path):
    with open(out_path) as f:
        records = json.load(f)
records.append(record)
with open(out_path, "w") as f:
    json.dump(records, f, indent=2)
    f.write("\n")
print(f"bench_perf: appended record '{label}' to {out_path} "
      f"({len(records)} records total)")
if "overhead_pct" in record:
    print(f"  tracing overhead: {record['overhead_pct']}% "
          f"(off {record['tracing_off_ops_per_s']}/s, "
          f"on {record['tracing_on_ops_per_s']}/s); "
          f"disabled span {record.get('disabled_ns_per_span', '?')} ns")
EOF

# ------------------------------------------------------------------- verify
# BENCH_verify.json: interpreter (tree-walking re-scan, O(rows) per eval)
# vs compiled verification (bytecode + incremental aggregate cache) on the
# same E3 windowed-SUM constraint. speedup_vs_interpreter compares the
# interpreter eval at each table size against the compiled steady-state
# verify — the apples-to-apples "one verification" cost. The commit-cycle
# rows additionally carry the cache counters that prove the O(1) delta path
# ran (agg_rebuilds stays at 1 while iterations climb into the thousands).
VERIFY_OUT=BENCH_verify.json

echo "bench_perf: running E3 interpreter-vs-compiled comparison ..." >&2
"$BUILD_DIR/bench/bench_e3_constraint_verification" \
    --benchmark_filter='BM_PlaintextEval|BM_CompiledVerify' \
    --benchmark_out="$TMP/verify.json" --benchmark_out_format=json \
    > "$TMP/verify.out" 2>/dev/null

python3 - "$LABEL" "$VERIFY_OUT" "$TMP" <<'EOF'
import os, sys

sys.path.insert(0, "scripts/lib")
from bench_append import append_record, load_benchmark_cases, stamp

label, out_path, tmp = sys.argv[1], sys.argv[2], sys.argv[3]

cases = load_benchmark_cases(
    os.path.join(tmp, "verify.json"),
    extra_keys=("agg_cache_hits", "agg_rebuilds", "agg_delta_applies",
                "agg_retractions", "compiled", "fast_path"))

# Interpreter wall time per table size, from the tree-walking baseline.
interp_ms = {}
for name, c in cases.items():
    if name.startswith("BM_PlaintextEval/"):
        interp_ms[name.split("/")[1]] = c["real_time_ms"]
for name, c in cases.items():
    if not (name.startswith("BM_CompiledVerifySteady/")
            or name.startswith("BM_CompiledVerifyCommit/")):
        continue
    base = interp_ms.get(name.split("/")[1])
    if base and c["real_time_ms"] > 0:
        c["speedup_vs_interpreter"] = round(base / c["real_time_ms"], 1)

record = stamp({"cases": cases}, label)
total = append_record(out_path, record)
print(f"bench_perf: appended record '{label}' to {out_path} "
      f"({total} records total)")
for name, c in sorted(cases.items()):
    if "speedup_vs_interpreter" in c:
        print(f"  {name}: {c['speedup_vs_interpreter']}x vs interpreter")
EOF
