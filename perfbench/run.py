#!/usr/bin/env python3
"""Unpaced host-cost benchmark of the HERMES mediator.

Usage (from the repository root):

    python3 perfbench/run.py --workload appendix_mix --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the mediator's libraries plus the hermes_perf driver) in
Release under $CARGO_TARGET_DIR (default .bench_build), runs one workload
and prints, as its last stdout line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics BENCHMARK.json lists, --trace 1 the per-layer ones; the traced run
also writes a Chrome trace under the build directory and validates it with
tools/validate_trace.py. --corrupt-answer falsifies one answer before the
answer check, which must then fail the run. Exits non-zero on a build
failure, a wrong answer, a failed self-check or a missing metric.

setup_s is the mean of the set-up medians of several processes: the
measured one and SETUP_PROCESSES set-up-only ones, half before and half
after it. One process's set-up time moves by ~15% with the memory it
happens to get and the moment it runs; the mean over processes spread in
time moves much less.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 150
SETUP_PROCESSES = 4
SETUP_TIMEOUT_S = 5


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("mediator sources (src/) not found next to perfbench/")
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", str(out), "--target", "hermes_perf", "-j", "3"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "hermes_perf"


def source_digest():
    """SHA-256 over the files the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return rev.stdout.strip() if rev.returncode == 0 else "unknown"


def setup_seconds(binary, workload, seed):
    """One set-up-only process's median set-up time."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"set-up-only run did not finish within {SETUP_TIMEOUT_S} s")
    for line in run.stdout.splitlines():
        if run.returncode == 0 and line.startswith("SETUP "):
            return float(line.split()[1])
    fail(f"set-up-only run exited {run.returncode} without a SETUP line")


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-answer", action="store_true")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    print(f"git {git_revision()}  sources {source_digest()}")
    sys.stdout.flush()

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_dir = out / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-out", str(trace_path)]
    if args.corrupt_answer:
        cmd.append("--corrupt-answer")
    extra_setups = 0 if args.trace else SETUP_PROCESSES
    setups = [setup_seconds(binary, args.workload, args.seed)
              for _ in range(extra_setups // 2)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"hermes_perf did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if run.returncode != 0 or result is None or not result["correct"]:
        fail(f"hermes_perf exited {run.returncode}; no correct result")
    setups += [setup_seconds(binary, args.workload, args.seed)
               for _ in range(extra_setups - extra_setups // 2)]
    if setups:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.fmean(setups)
        print(f"setup_s over {len(setups)} processes: "
              + " ".join(f"{s:.6g}" for s in setups))

    if trace_path is not None:
        check = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "validate_trace.py"),
             str(trace_path)], stdout=subprocess.PIPE, text=True)
        print(check.stdout.strip())
        if check.returncode != 0:
            fail("the Chrome trace failed tools/validate_trace.py")

    metrics = {}
    for m in declared_metrics(args.trace):
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
