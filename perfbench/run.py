#!/usr/bin/env python3
"""Build and run the PReVer benchmark (see perfbench/NOTES.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild only what changed. The benchmark's output is passed through; its last
line is the JSON result. Exits non-zero, without a result line, when the
sources are missing, the build fails, or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_checked(cmd, timeout, what, cwd=None):
    try:
        proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out after {timeout} s")
    except OSError as err:
        fail(f"{what} could not start: {err}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"{what} failed with exit code {proc.returncode}")
    return proc.stdout


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"PReVer sources not found under {ROOT / 'src'}")
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" \
            not in cache.read_text():
        shutil.rmtree(out)  # Configured for a checkout at another path.
    if not cache.is_file():
        out.mkdir(parents=True, exist_ok=True)
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"], CONFIGURE_TIMEOUT_S,
                    "cmake configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", str(out), "--target", target, "-j", jobs],
                BUILD_TIMEOUT_S, "build")
    return out


def source_id():
    """Git sha when the checkout is a repository, else a hash of the
    sources the benchmark compiles."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return "git:" + proc.stdout.strip()
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR / "cpp"):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    return set(result["metrics"]) == expected_metrics(trace)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        out = build("perfbench_selftest")
        proc = subprocess.run([str(out / "perfbench_selftest")], cwd=out,
                              timeout=RUN_TIMEOUT_S * 4)
        sys.exit(proc.returncode)

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    out = build("perfbench")
    workdir = out / f"work-{os.getpid()}"
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--source", source_id()]
    try:
        stdout = run_checked(cmd, RUN_TIMEOUT_S, "benchmark run")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    if not valid_result(lines[-1], args.trace):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("the benchmark did not end with a valid result line")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
