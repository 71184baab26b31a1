#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload exec_grid --seed 0 --seconds 10 --trace 0

Builds perfbench/ (which compiles the simulator from src/) into
.bench_build/perfbench on first use, runs one workload, relays the
benchmark's report to stderr and prints its one-line JSON result last on
stdout. Exits non-zero, printing no result, when the build fails; exits 1
when any simulated output differs from the committed goldens.

Maintenance modes (not part of a measured run):
    --tieback             re-check the committed BENCH_sweep.json cells
    --write-goldens SEED  regenerate the goldens for one simulation seed
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "aeep_perfbench")
GOLDENS = os.path.join(HERE, "goldens")
WORKLOADS = ("exec_grid", "trace_grid", "fault_campaign", "served_mix")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure until a binary exists, then let the build tool decide what
    is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(BINARY):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "aeep_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def check_metric_names(result, trace):
    """The printed metrics must be exactly the ones BENCHMARK.json names."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        fail("metrics printed do not match BENCHMARK.json: extra %s, missing %s"
             % (sorted(set(got.items()) - set(wanted.items())),
                sorted(set(wanted.items()) - set(got.items()))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tieback", action="store_true")
    ap.add_argument("--write-goldens", type=int, metavar="SEED")
    args = ap.parse_args()

    build()
    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    if args.tieback:
        cmd = [BINARY, "--tieback", os.path.join(ROOT, "BENCH_sweep.json")]
    elif args.write_goldens is not None:
        cmd = [BINARY, "--write-goldens", "--sim-seed", str(args.write_goldens),
               "--goldens", GOLDENS, "--work", work]
    elif args.workload:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--goldens", GOLDENS, "--work", work]
    else:
        fail("--workload, --tieback or --write-goldens is required")

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("aeep_perfbench exceeded 170 s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.workload:
        sys.exit(proc.returncode)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("aeep_perfbench exited %d without a result line" % proc.returncode)
    check_metric_names(result, args.trace)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
