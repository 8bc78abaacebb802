#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the `perfbench` binary from source (CMake, Release) into
`.bench_build/perfbench` (or `$CARGO_TARGET_DIR/perfbench` when that is
set), runs it, checks its result against BENCHMARK.json, and prints a
`detail {...}` line (host, provenance, diagnostics) followed by the result
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end-to-end metric; --trace 1 every per-layer
metric. A per-layer metric the workload does not exercise is reported as
0 and named under "not_measured" on the detail line. Exits nonzero, with
no result line, when the build or the run fails; exits 1 after printing
the result when an output did not match its reference.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")
    return proc.returncode, out


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out_dir):
    """Configure once, then build incrementally. Output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        rc, _ = run_checked(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            CONFIGURE_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            fail("configure failed")
    rc, _ = run_checked(
        ["cmake", "--build", str(out_dir), "--target", "perfbench",
         "-j", jobs], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        fail("build failed")
    return out_dir / "perfbench"


def provenance():
    """Commit when the checkout is a git repository, and a digest of the
    library and benchmark sources either way."""
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        rc, out = run_checked(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              30, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        if rc == 0:
            commit = out.decode().strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def check_metrics(metrics, spec, trace):
    """Every declared metric of the mode present with its declared unit;
    nothing undeclared. Returns the per-layer names filled with 0."""
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    for name, entry in metrics.items():
        if name not in declared:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if entry.get("unit") != declared[name]:
            fail(f"metric {name} has unit {entry.get('unit')}, "
                 f"declared {declared[name]}")
        if not isinstance(entry.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value")
    missing = [name for name in declared if name not in metrics]
    if missing and not trace:
        fail(f"end-to-end metrics missing: {', '.join(missing)}")
    for name in missing:
        metrics[name] = {"value": 0, "unit": declared[name]}
    return missing


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found next to perfbench/")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    start = time.monotonic()
    binary = build(build_dir())
    remaining = RUN_TIMEOUT_S - (time.monotonic() - start)
    rc, out = run_checked(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        max(remaining, 60), stdout=subprocess.PIPE)
    lines = out.decode().strip().splitlines()
    if rc not in (0, 1) or len(lines) < 2 or not lines[-2].startswith(
            "detail "):
        fail(f"benchmark binary exited with {rc}")

    detail = json.loads(lines[-2][len("detail "):])
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    detail["provenance"] = provenance()
    detail["not_measured"] = check_metrics(result["metrics"], spec,
                                           args.trace)
    if rc == 1 or not result["correct"]:
        result["correct"] = False
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
