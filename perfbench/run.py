#!/usr/bin/env python3
"""Build and run the dispatch benchmark.

One run of one workload, as the benchmark driver calls it:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is the run's JSON result. Every run is a
fresh process, so its memory is its own.

Steadiness mode runs every workload of BENCHMARK.json N times, alternating
between them, with seeds BASE, BASE+1, ... and prints for every metric of
every workload the median, the quartiles, the spread (IQR / median) and
whether it fits the metric's bound:

    python3 perfbench/run.py --steadiness N [--seconds S] [--seed-base B]

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when it is unset.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sparse", "paper-ratio", "batched", "regions", "serve-tcp"]
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    """Builds the benchmark; returns the executable's path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run_once(exe, workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns its parsed result."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", os.path.join(target_dir(), "perfbench-work")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} seed {seed} ran past {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} printed no result")
    return lines[-1], json.loads(lines[-1])


def steadiness(exe, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    correct = {w: True for w in workloads}
    for i in range(args.steadiness):
        for w in workloads:
            seed = args.seed_base + i
            start = time.time()
            _, result = run_once(exe, w, seed, args.seconds, 0)
            print(f"# {w} seed {seed}: {time.time() - start:.1f} s, correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)
            correct[w] &= result["correct"]
            shares[w].add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    print(f"{'workload':<12} {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  fits")
    ok = True
    for w in workloads:
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            if bound is None:
                fits = "-"
            elif spread <= bound / 3:
                fits = "yes"
            elif spread <= bound:
                fits = "within bound, not a third"
            else:
                fits = "NO"
            if name != "setup_s" and bound is not None and spread > bound:
                ok = False
            print(f"{w:<12} {name:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {bound if bound is not None else '-':>6}  {fits}")
        print(f"{w:<12} {'correct':<22} {str(correct[w]):>12}   failed share {sorted(shares[w])}")
        ok &= correct[w] and len(shares[w]) == 1
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, metavar="N")
    p.add_argument("--seed-base", type=int, default=1)
    args = p.parse_args()
    if args.steadiness is None and args.workload is None:
        p.error("--workload or --steadiness is required")
    if args.seconds is None:
        try:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                args.seconds = json.load(f)["run_seconds"]
        except (OSError, ValueError, KeyError):
            args.seconds = 10
    exe = build()
    if exe is None:
        return 1
    if args.steadiness is not None:
        return steadiness(exe, args)
    try:
        line, _ = run_once(exe, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
