#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload http-live --seeds 1-10 [--seconds 10] [--trace 0]

For every metric it prints the median of the runs and the distance between
the first and third quartile as a share of that median (the run-to-run
spread the bounds in BENCHMARK.json are held against).
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--table", action="store_true", help="also summarize figures printed only in the table")
    args = ap.parse_args()
    values = {}
    units = {}
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: correct={res['correct']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        if args.table:
            # The table also lists figures outside the result line.
            for line in proc.stdout.splitlines():
                f = line.split()
                if line.startswith("  ") and len(f) == 3 and f[0] not in res["metrics"]:
                    try:
                        values.setdefault(f[0], []).append(float(f[1]))
                        units[f[0]] = f[2] + " (table)"
                    except ValueError:
                        pass
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())),
              flush=True)
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:36s} median {med:14.6g} {units[name]:8s} spread {spread:7.2%}")


if __name__ == "__main__":
    main()
