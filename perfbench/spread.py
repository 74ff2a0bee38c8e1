"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 ... [--seconds S]

Runs the benchmark once per seed, one run after another, and prints for
each metric its median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
The raw results go to perfbench/out/spread-NAME.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]

    results = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=900)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.workload}.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:<14} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.4f}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
