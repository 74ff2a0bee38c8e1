"""latticeqc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``--workload all`` runs each in its own process) from
the root of a checkout, importing latticeqc from ``src/``.  A unit is one
timed call into latticeqc; units run one after another in this process
until ``--seconds`` have passed.  Every unit's output is checked.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  End-to-end times are
in reference seconds (see ``REFERENCE_S``).  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("yield_protocol", "repair_yield", "ensemble_circuit", "format_report")

SETUP_SAMPLES = 5   # set-ups timed per run: this process plus fresh ones
MIN_UNITS = 3
TAIL_BEYOND = 10    # units that must lie beyond the reported tail percentile
MAX_ERROR_REPORTS = 3

END_TO_END = (
    ("units_per_s", "1/s"),
    ("unit_p50_s", "s"),
    ("unit_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def is_traced(i: int) -> bool:
    # Traced units come in pairs so that alternating inputs (repair_yield's
    # n = 4, 8) are traced alike.
    return (i // 2) % 2 == 1


# Calibration.  On a shared host the machine's speed drifts by 20-50% within
# minutes, whatever the code does.  Timings are therefore reported in
# reference seconds: measured seconds times REFERENCE_S over the time a fixed
# kernel took next to them.  On the baseline host at its usual speed a
# reference second is a wall second.  An interpreter loop tracked the drift
# of the workloads better than a numpy streaming kernel did.
REFERENCE_S = 0.012     # the kernel's usual time on the baseline host
KERNEL_LOOPS = 150_000
KERNEL_REPEATS = 3      # kernel runs between two units, and before and after a set-up


def kernel_s() -> float:
    """Seconds the calibration kernel takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(KERNEL_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def kernels() -> list[float]:
    return [kernel_s() for _ in range(KERNEL_REPEATS)]


def kernel_between() -> float:
    """Median kernel time between two units."""
    return statistics.median(kernels())


def setup_scale(before: list[float]) -> float:
    """Factor to reference seconds for a set-up that ran after the kernel
    times ``before`` and has just ended."""
    return REFERENCE_S / statistics.median(before + kernels())


def in_reference_seconds(raw: list[float], kernel: list[float]) -> list[float]:
    """Unit k ran between kernel times k and k+1; scale it by their mean."""
    return [t * 2.0 * REFERENCE_S / (a + b) for t, a, b in zip(raw, kernel, kernel[1:])]


class Run:
    """Attempted and failed calls of one run, with their error reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.run_checks_ok = True

    def fail(self, what: str):
        self.failed += 1
        if self.failed <= MAX_ERROR_REPORTS:
            print(f"FAILED {what}", file=sys.stderr)

    def unit(self, w, i: int, tracer=None) -> float:
        """Run, time and check unit i; returns the seconds of the call."""
        self.attempted += 1
        x = w.inputs(i)
        error = None
        if tracer is not None:
            tracer.install(i)
        try:
            start = time.perf_counter()
            try:
                out = w.call(x)
            except Exception:
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        if error is not None:
            self.fail(f"unit {i}: {error}")
            return elapsed
        try:
            w.check(x, out)
        except Exception as exc:  # a CheckFailed or a crash inside the check
            self.fail(f"unit {i}: {exc!r}")
        return elapsed

    def finish(self, w):
        """Run-level checks of the workload, after its last unit."""
        try:
            w.finish()
        except Exception as exc:
            self.run_checks_ok = False
            print(f"FAILED run check: {exc!r}", file=sys.stderr)


def set_up(name: str, seed: int, run: Run):
    """Import latticeqc, build the inputs and run one warm-up unit."""
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "latticeqc", "__init__.py")):
        sys.exit(f"error: no latticeqc sources under {SRC}")
    sys.path.insert(0, SRC)
    import latticeqc
    if os.path.dirname(os.path.abspath(latticeqc.__file__)) != os.path.join(SRC, "latticeqc"):
        sys.exit(f"error: imported latticeqc from {latticeqc.__file__}, not {SRC}")
    import workloads
    os.makedirs(OUT, exist_ok=True)
    w = workloads.WORKLOADS[name](seed, OUT)
    run.unit(w, 0)
    return w, time.perf_counter() - start


def probe_setups(name: str, seed: int, count: int) -> list[float]:
    """Set-up reference seconds of ``count`` fresh processes, one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def tail(times: list[float]) -> tuple[float, float]:
    """The slowest unit time with min(TAIL_BEYOND, (N-1)//2) units beyond it,
    and the percentage of units at or below it."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def measure(args, run: Run) -> dict:
    before = kernels()
    w, setup_self = set_up(args.workload, args.seed, run)
    print(f"workload {w.name} params {json.dumps(w.params)} seed {args.seed} "
          f"seconds {args.seconds}")
    print(f"environment {json.dumps(environment())}")
    try:
        if args.trace:
            return measure_traced(args, w, run)
        setups = [setup_self * setup_scale(before)]
        setups += probe_setups(args.workload, args.seed, SETUP_SAMPLES - 1)
        raw, kernel = [], [kernel_between()]
        start = time.perf_counter()
        i = 1
        while time.perf_counter() - start < args.seconds or len(raw) < MIN_UNITS:
            raw.append(run.unit(w, i))
            kernel.append(kernel_between())
            i += 1
        run.finish(w)
    finally:
        w.close()
    times = in_reference_seconds(raw, kernel)
    tail_s, tail_pct = tail(times)
    metrics = {
        "units_per_s": len(times) / sum(times),
        "unit_p50_s": statistics.median(times),
        "unit_tail_s": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
    }
    for name, unit in END_TO_END:
        print(f"  {name:<12} {metrics[name]:.6g} {unit}")
    print(f"  fail_ratio   {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} calls, warm-up included)")
    print(f"  unit_tail_s is p{tail_pct:.1f} of {len(times)} timed units; "
          f"setup_s is the median of {[round(s, 4) for s in setups]}")
    print(f"  times are in reference seconds; measured: unit p50 "
          f"{statistics.median(raw):.6g} s, tail {tail(raw)[0]:.6g} s, set-up here "
          f"{setup_self:.6g} s; calibration kernel median {statistics.median(kernel):.6g} s "
          f"(reference {REFERENCE_S} s)")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def measure_traced(args, w, run: Run) -> dict:
    import tracing
    tracer = tracing.Tracer()
    raw, kernel, traced = {}, [kernel_between()], []
    start = time.perf_counter()
    i = 1
    while (time.perf_counter() - start < args.seconds or len(traced) == len(raw)
           or len(traced) < w.fingerprint_units):
        if is_traced(i):
            traced.append(i)
        raw[i] = run.unit(w, i, tracer if is_traced(i) else None)
        kernel.append(kernel_between())
        i += 1
    run.finish(w)
    ref = dict(zip(raw, in_reference_seconds(list(raw.values()), kernel)))
    factors = {u: ref[u] / raw[u] for u in traced}
    fp_units = traced[:w.fingerprint_units]
    all_totals = tracer.totals(factors)
    fp_totals = tracer.totals({u: factors[u] for u in fp_units})
    values = tracing.per_layer_metrics(all_totals, fp_totals, len(traced), len(fp_units))
    plain = [ref[u] for u in raw if u not in factors]
    plain_ups = len(plain) / sum(plain)
    traced_ups = len(traced) / sum(ref[u] for u in traced)
    overhead = 1.0 - traced_ups / plain_ups
    fp = tracing.fingerprint(fp_totals)
    path = os.path.join(OUT, f"trace-{w.name}-seed{args.seed}.json")
    tracer.write(path, {
        "workload": w.name, "seed": args.seed, "params": w.params,
        "per_layer": values, "totals": all_totals, "reference_factors": factors,
        "fingerprint": {"units": fp_units, "counts": fp},
        "units_per_s": {"plain": plain_ups, "traced": traced_ups, "overhead": overhead},
    })
    for name, unit, _ in tracing.PER_LAYER:
        print(f"  {name:<45} {values[name]:.6g} {unit}")
    print(f"  tracing overhead on units_per_s: {100 * overhead:.1f}% "
          f"({traced_ups:.4g} traced vs {plain_ups:.4g} plain, "
          f"{len(traced)} and {len(plain)} units)")
    print(f"  count fingerprint over units {fp_units}: {compare_fingerprint(w.name, args.seed, fp)}")
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}


def compare_fingerprint(name: str, seed: int, counts: dict) -> str:
    with open(os.path.join(HERE, "fingerprint.json")) as fh:
        recorded = json.load(fh).get(name)
    if recorded is None or recorded["seed"] != seed:
        return f"not recorded for seed {seed}"
    changed = sorted(k for k in set(counts) | set(recorded["counts"])
                     if counts.get(k) != recorded["counts"].get(k))
    if not changed:
        return "matches the record"
    return "differs from the record: " + ", ".join(
        f"{k} {recorded['counts'].get(k)} -> {counts.get(k)}" for k in changed)


def run_all(args) -> dict:
    """Each workload in its own process; metrics keyed workload.metric."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        part = json.loads(lines[-1])
        result["correct"] &= part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = value
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this process and print it (internal)")
    args = parser.parse_args(argv)

    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    run = Run()
    if args.setup_probe:
        before = kernels()
        w, seconds = set_up(args.workload, args.seed, run)
        w.close()
        print(seconds * setup_scale(before))
        return 0
    metrics = measure(args, run)
    print(json.dumps({
        "correct": run.failed == 0 and run.run_checks_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
