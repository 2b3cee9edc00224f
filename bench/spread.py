"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload walk --seeds 1-10 [--seconds 30]

Runs bench/run.py once per seed, one process at a time, and prints for
each end-to-end metric its median and its interquartile range as a share
of the median, next to the bound BENCHMARK.json fixes for it.  The same
for the unscaled wall-clock figures that run.py prints, for comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=float)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    unscaled = {}
    for seed in args.seeds:
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed} ({time.perf_counter() - started:.1f} s): correct={result['correct']} "
              f"failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        wall = next(line for line in out.stdout.splitlines() if line.startswith("unscaled"))
        for field in wall.split(": ", 1)[1].split(", "):
            name, value = field.split(" ")
            unscaled.setdefault(name, []).append(float(value))
    for m in spec["end_to_end"]:
        print(f"{m['name']:>14}: " + summary(values[m["name"]], m["unit"]) +
              f" (bound {m['bound']})")
    for name, v in unscaled.items():
        print(f"{name:>14}: " + summary(v, "") + " unscaled")


def summary(values, unit):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"median {med:.5g} {unit}, spread {(q3 - q1) / med:.3f}"


if __name__ == "__main__":
    main()
