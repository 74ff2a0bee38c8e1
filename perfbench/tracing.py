"""Span tracing of latticeqc from outside the package.

The tracer replaces each target function with a wrapper wherever a
``latticeqc`` module binds it (``stats`` imports ``apply_classical`` into
its own namespace, so the wrapper goes there too).  Spans stay in memory
until the run ends.  A function that is not a target counts towards the
self time of the nearest target that called it.
"""
from __future__ import annotations

import json
import os
import sys
import time

# (module, attribute path, counter) for every traced function.  The counter
# maps (args, kwargs, result) to extra integer counts for the span.


def _apply_classical_counts(args, kwargs, result):
    return {"site_ops": (result.size // 3) * len(args[1])}


def _execute_counts(args, kwargs, result):
    state, _ = result
    return {
        "ops": len(args[1]),
        "terms_out": sum(len(st.terms) for _, st in state.branches),
        "branches_out": len(state.branches),
    }


def _repair_counts(args, kwargs, result):
    report = result[1]
    return {"rounds": report.rounds, "defects_fixed": report.defects_fixed}


def _main_counts(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    out = argv[argv.index("--out") + 1] if argv and "--out" in argv else None
    return {"report_bytes": os.path.getsize(out) if out and os.path.exists(out) else 0}


TARGETS = (
    ("lattice", "BasisConfig.from_array", None),
    ("lattice", "classical", None),
    ("primitives", "apply_classical", _apply_classical_counts),
    ("primitives", "execute", _execute_counts),
    ("protocols", "verify_formatted", lambda a, k, r: {"computers": len(r)}),
    ("protocols", "oracle_computers", None),
    ("protocols", "oracle_homes", None),
    ("protocols", "repair_occupations", _repair_counts),
    ("protocols", "sample_defect_creation", None),
    ("gates", "compile_macro", lambda a, k, r: {"ops_out": len(r[0])}),
    ("gates", "run_circuit", None),
    ("gates", "measure_qubit", lambda a, k, r: {"branches_out": len(r[2].branches)}),
    ("stats", "count_computers_protocol", None),
    ("stats", "count_computers_oracle", None),
    ("stats", "repair_experiment", None),
    ("stats", "sample_occupations", None),
    ("cli", "main", _main_counts),
)

# Per-layer metrics: (metric name, unit, better).  Counts are per unit over
# the fingerprint units; self_s is seconds per traced unit.
PER_LAYER = (
    ("lattice.BasisConfig.from_array.self_s", "s", "lower"),
    ("lattice.BasisConfig.from_array.calls", "count", "lower"),
    ("lattice.classical.self_s", "s", "lower"),
    ("primitives.apply_classical.self_s", "s", "lower"),
    ("primitives.apply_classical.calls", "count", "lower"),
    ("primitives.apply_classical.site_ops_per_s", "1/s", "higher"),
    ("primitives.execute.self_s", "s", "lower"),
    ("primitives.execute.calls", "count", "lower"),
    ("primitives.execute.ops", "count", "lower"),
    ("primitives.execute.terms_out", "count", "lower"),
    ("primitives.execute.branches_out", "count", "lower"),
    ("primitives.execute.errors", "count", "lower"),
    ("protocols.verify_formatted.self_s", "s", "lower"),
    ("protocols.verify_formatted.computers", "count", "higher"),
    ("protocols.oracle_computers.self_s", "s", "lower"),
    ("protocols.oracle_homes.self_s", "s", "lower"),
    ("protocols.repair_occupations.self_s", "s", "lower"),
    ("protocols.repair_occupations.rounds", "count", "lower"),
    ("protocols.repair_occupations.defects_fixed", "count", "higher"),
    ("protocols.sample_defect_creation.self_s", "s", "lower"),
    ("gates.compile_macro.self_s", "s", "lower"),
    ("gates.compile_macro.ops_out", "count", "lower"),
    ("gates.run_circuit.self_s", "s", "lower"),
    ("gates.measure_qubit.self_s", "s", "lower"),
    ("gates.measure_qubit.branches_out", "count", "lower"),
    ("stats.count_computers_protocol.self_s", "s", "lower"),
    ("stats.count_computers_oracle.self_s", "s", "lower"),
    ("stats.repair_experiment.self_s", "s", "lower"),
    ("stats.sample_occupations.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.report_bytes", "count", "lower"),
)


class Tracer:
    """Installs wrappers on demand and records spans while installed."""

    def __init__(self):
        self.names = [f"{module}.{attr}" for module, attr, _ in TARGETS]
        self.spans: list[list] = []       # [name index, start, end, parent, unit]
        self.counts: list[dict] = []      # extra counts per span, parallel to spans
        self.errors: list[bool] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (owner, attribute, original, wrapper)
        self.unit = -1
        self._build_patches()

    def _build_patches(self):
        loaded = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("latticeqc.") and mod is not None
        }
        for idx, (module, attr, counter) in enumerate(TARGETS):
            mod = loaded.get(module)
            if mod is None:
                continue
            if "." in attr:  # a method on a class of the module
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if raw is None:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, idx, counter))
                else:
                    wrapped = self._wrap(raw, idx, counter)
                self._patches.append((cls, meth, raw, wrapped))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, idx, counter)
            for owner in (sys.modules["latticeqc"], *loaded.values()):
                if owner.__dict__.get(attr) is original:
                    self._patches.append((owner, attr, original, wrapper))

    def _wrap(self, fn, idx, counter):
        spans, counts, errors, stack = self.spans, self.counts, self.errors, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            pos = len(spans)
            spans.append([idx, 0.0, 0.0, stack[-1] if stack else -1, self.unit])
            counts.append(None)
            errors.append(False)
            stack.append(pos)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[pos] = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[pos][1] = start
                spans[pos][2] = end
            if counter is not None:
                counts[pos] = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, unit: int):
        self.unit = unit
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct child spans cover."""
        self_t = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_t[parent] -= end - start
        return self_t

    def totals(self, factors: dict[int, float]) -> dict[str, dict[str, float]]:
        """Per target: calls, errors, self seconds and extra counts, summed
        over the spans of the units in ``factors``.  A unit's self seconds
        are multiplied by its factor."""
        out = {name: {"calls": 0, "errors": 0, "self_s": 0.0} for name in self.names}
        for pos, (self_s, span) in enumerate(zip(self.self_times(), self.spans)):
            if span[4] not in factors:
                continue
            entry = out[self.names[span[0]]]
            entry["calls"] += 1
            entry["errors"] += int(self.errors[pos])
            entry["self_s"] += self_s * factors[span[4]]
            for key, value in (self.counts[pos] or {}).items():
                entry[key] = entry.get(key, 0) + int(value)
        return out

    def write(self, path: str, extra: dict):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "span_fields":
                       ["name", "start", "end", "parent", "unit"],
                       "spans": self.spans, **extra}, fh)
            fh.write("\n")


def fingerprint(totals: dict) -> dict[str, int]:
    """The integer counts of a totals table, flattened to name.count."""
    return {
        f"{name}.{key}": int(value)
        for name, entry in totals.items()
        for key, value in entry.items()
        if key != "self_s"
    }


def per_layer_metrics(all_totals: dict, fp_totals: dict, n_traced: int,
                      n_fp: int) -> dict[str, float]:
    """Per-layer metric values from the totals of all traced units (times)
    and of the fingerprint units (counts)."""
    values = {}
    for name, _, _ in PER_LAYER:
        if name == "cli.report_bytes":
            values[name] = fp_totals["cli.main"].get("report_bytes", 0) / n_fp
            continue
        func, key = name.rsplit(".", 1)
        if key == "self_s":
            values[name] = all_totals[func]["self_s"] / n_traced
        elif key == "site_ops_per_s":
            entry = all_totals[func]
            values[name] = entry.get("site_ops", 0) / entry["self_s"] if entry["self_s"] else 0.0
        else:
            values[name] = fp_totals[func].get(key, 0) / n_fp
    return values
