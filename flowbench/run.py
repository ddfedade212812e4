#!/usr/bin/env python3
"""Flow benchmark command.

    python3 flowbench/run.py --workload ladder --seed 1 --seconds 10 --trace 0

Builds the flowbench driver and the hlcs library from this checkout's
sources (CMake, Release, into .bench_build/flowbench -- a no-op when the
build is current), runs the workload in its own process, and relays its
output: one "record" JSON line (host fingerprint, simulated-statistics
fingerprint, failed_frac, fastest and tail job time) and, last, the result line
{"correct", "attempted", "failed", "metrics"}.

The exit status is 0 only when the build succeeded and every job passed
its correctness gates.  Extra options (--threads N, --inject-fault) are
passed through to the driver; flowbench/README.md describes them.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "flowbench")
WORKLOADS = ("ladder", "equiv", "lt", "fabric")
# The whole command must end within 180 s (900 s when it also builds);
# leave room for teardown.
DEADLINE_S = 170
BUILD_DEADLINE_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "flowbench")


def log(msg):
    print(f"flowbench: {msg}", file=sys.stderr, flush=True)


def build(bdir, deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("hlcs sources (src/) not found next to flowbench/")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only results.
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.SubprocessError) as e:
            log(f"build failed: {e}")
            return None
    binary = os.path.join(bdir, "flowbench")
    return binary if os.access(binary, os.X_OK) else None


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--threads", type=int,
                    help="fabric worker threads (default 1)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one reference so every job gate fails")
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir, start + BUILD_DEADLINE_S)
    if binary is None:
        return 2

    scratch = os.path.join(bdir, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--scratch", scratch, "--commit", git_commit()]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    if args.inject_fault:
        cmd.append("--inject-fault")
    # A current build takes a second, so the run keeps the 180 s budget;
    # a first run that built keeps within its 900 s.
    timeout = min(DEADLINE_S, 890 - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        log(f"workload {args.workload} exceeded its {timeout:.0f} s deadline")
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        measured = dict(result["metrics"])
    except (IndexError, ValueError, KeyError, TypeError):
        log(f"driver produced no result (exit {proc.returncode})")
        return 3
    # The driver prints what it measures; BENCHMARK.json gives the units.
    # A layer that does no work on a workload reads 0 there.
    declared = declared_metrics(args.trace)
    unknown = set(measured) - {name for name, _ in declared}
    missing = [name for name, _ in declared if name not in measured]
    if unknown or (missing and not args.trace):
        log(f"metrics {sorted(unknown) + missing} disagree with BENCHMARK.json")
        return 3
    result["metrics"] = {name: {"value": measured.get(name, 0), "unit": unit}
                         for name, unit in declared}
    print("\n".join(lines[:-1] + [json.dumps(result)]), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
