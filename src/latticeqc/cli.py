"""Command-line front end.

Exit codes: 0 on success, 1 when a verified property fails (oracle
mismatch, gate leakage, out-of-band z-score, leftover defects), 2 on
usage or input-parsing errors.  Given the same inputs and seed, every
command writes byte-identical output files.  Each ``cmd_*`` returns its
report, exit status and one-line summary, and ``stats`` its CSV file;
:func:`main` alone stamps the version, writes them, and prints the summary.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from . import __version__
from .lattice import _SITE_TABLE, MixedState, classical, read_sites
from .primitives import Script, execute
from .protocols import StrayAtomsError, _format_codes, _homes, oracle_computers
from .gates import (
    GateLeakageError,
    extract_logical_unitary,
    hadamard_phase_correction,
    macro_from_fields,
    matrix_to_json_obj,
)
from .stats import (
    FillDistribution,
    monte_carlo_yield,
    repair_experiment,
    sample_occupations,
)

_HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def _dist_from_args(args) -> FillDistribution:
    p2 = args.p2
    if p2 is None:
        p2 = 1.0 - args.p0 - args.p1 - args.p3 - args.p4
    return FillDistribution(args.p0, args.p1, p2, args.p3, args.p4)


def _dumps(obj) -> str:
    """The stdlib's JSON text of obj at ``indent=2, sort_keys=True,
    allow_nan=False``, byte for byte, where a numpy integer array stands
    for its ``tolist()``; any other array is a TypeError, as in the stdlib.
    With an indent the stdlib encodes item by item in Python.  Here a list
    of ints is rendered by one ``map``, and the rows of a 2-D int array, or
    of a list of 1-D int arrays of one dtype and one shape, are coded as
    one int64 each so that each distinct row is rendered once: from a
    table indexed by the code when the codes are few, else after a sort.
    A list of dicts with one set of str keys is rendered one
    ``str.format`` per dict, with int and int-row columns filling the
    template's slots directly.  Other dicts and arrays in a list are put
    one by one, so no piece of the text holds more than a block of rows.
    Scalars other than str and int go to ``json.dumps``."""
    out: list[str] = []
    _put(obj, "\n", out)
    return "".join(out)


_BLOCK = 4096  # list items joined into one piece of out
_TABLE = 4096  # _rows looks rows up by code up to max(row count, _TABLE) codes


def _put(value, nl: str, out: list):
    # nl is a newline plus the indentation of the line that holds value
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iu":
            raise TypeError("Object of type ndarray is not JSON serializable")
        if value.ndim != 2:
            value = value.tolist()
    if type(value) is int:
        out.append(int.__repr__(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple, np.ndarray)):
        if not len(value):
            out.append("[]")
            return
        inner = nl + "  "
        texts, comma = _texts(value, inner), "," + inner
        out.append("[" + inner)
        if texts is None:  # each item in turn, so the rows inside reach a block join
            for k, item in enumerate(value):
                if k:
                    out.append(comma)
                _put(item, inner, out)
        else:
            for k in range(0, len(texts), _BLOCK):  # no piece of out megabytes long
                if k:
                    out.append(comma)
                out.append(comma.join(texts[k:k + _BLOCK]))
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        out.append("{" + inner)
        for k, (key, item) in enumerate(sorted(value.items())):
            if k:
                out.append("," + inner)
            out.append(_key(key) + ": ")
            _put(item, inner, out)
        out.append(nl + "}")
    else:
        out.append(json.dumps(value, allow_nan=False))


def _texts(items, nl: str) -> list | None:
    """The JSON text of each item of a non-empty list, tuple or 2-D int
    array, on a line that starts with nl; None for dicts no record path
    takes and for other arrays, which _put puts one by one."""
    if isinstance(items, np.ndarray):
        return _rows(items, nl)
    types = set(map(type, items))
    if types == {int}:
        return list(map(int.__repr__, items))
    rows = _stack(items, types)
    if rows is not None:
        return _rows(rows, nl)
    if types == {dict}:
        keys = list(items[0])
        if (keys and all(isinstance(key, str) for key in keys)
                and set(map(len, items)) == {len(keys)}):
            try:
                return _records(items, sorted(keys), nl)
            except (KeyError, TypeError, ValueError):
                # KeyError: the key sets differ.  Otherwise raise what the
                # stdlib raises first, item by item below
                pass
    if any(issubclass(t, (dict, np.ndarray)) for t in types):
        return None
    texts = []
    for item in items:
        out: list[str] = []
        _put(item, nl, out)
        texts.append("".join(out))
    return texts


def _stack(items, types: set):
    """The 2-D int array whose rows are items, when items are 1-D int
    arrays of one dtype and one length; else None."""
    if types == {np.ndarray}:
        forms = {(item.dtype, item.shape) for item in items}
        if len(forms) == 1 and items[0].ndim == 1 and items[0].dtype.kind in "iu":
            # np.stack would expand each item in a Python loop
            return np.concatenate(items).reshape(len(items), items[0].size)
    return None


def _row_template(width: int, nl: str) -> str:
    # the text of a row of width ints on a line that starts with nl, one
    # slot per int; it holds no brace, so it splices into other templates
    if not width:
        return "[]"
    row_nl = nl + "  "
    return "[" + row_nl + ("," + row_nl).join(["{}"] * width) + nl + "]"


def _rows(rows: np.ndarray, nl: str) -> list:
    """The texts of the rows of a 2-D int array; a distinct row is
    rendered once."""
    count, width = rows.shape
    template = _row_template(width, nl)
    if not width:
        return [template] * count
    least = rows.min()
    radix = int(rows.max()) - int(least) + 1
    if radix ** width >= 2 ** 63:  # no int64 code per row
        return [template.format(*row) for row in rows.tolist()]
    # A row's code has one digit per entry, the entry minus the least one.
    # int64 arithmetic wraps (uint64 entries), but each digit lies in
    # [0, radix) and so comes out exact.
    digits = rows.astype(np.int64, copy=False) - least.astype(np.int64)
    powers = np.int64(radix) ** np.arange(width - 1, -1, -1)
    codes = digits @ powers
    if radix ** width > max(count, _TABLE):  # too many codes for a table: sort them
        distinct, codes = np.unique(codes, return_inverse=True)
        slots = np.arange(distinct.size)
    else:  # a table indexed by the code
        distinct = slots = np.flatnonzero(np.bincount(codes))
    # Each distinct code is decoded to its row and rendered once.  The
    # digits go back to the dtype of rows, where adding the least entry
    # wraps back into range as the subtraction above did.
    found = (distinct[:, None] // powers % radix).astype(rows.dtype) + least
    table = np.empty(slots[-1] + 1, dtype=object)
    table[slots] = [template.format(*row) for row in found.tolist()]
    return table.take(codes).tolist()


def _records(items: list, keys: list, nl: str) -> list | None:
    """The texts of dicts that share the str keys ``keys`` (sorted, at
    least one), one ``str.format`` per dict.  A column of ints, or of 1-D
    int arrays of one dtype and one length, fills its slots directly, its
    row template spliced into the record's; a column of other scalars is
    rendered to one text per dict first.  A column of containers, such as
    a state's (L, 3) configs, gives None: a record would be one text."""
    inner = nl + "  "
    slots, columns = [], []
    for key in keys:
        column = list(map(itemgetter(key), items))
        types = set(map(type, column))
        rows = _stack(column, types)
        if rows is not None:
            slots.append(_row_template(rows.shape[1], inner))
            columns.extend(rows.T.tolist())
        elif any(issubclass(t, (list, tuple, dict, np.ndarray)) for t in types):
            return None
        else:
            slots.append("{}")
            columns.append(column if types == {int} else _texts(column, inner))
    template = "{{" + inner + ("," + inner).join(
        encode_basestring_ascii(key).replace("{", "{{").replace("}", "}}") + ": " + slot
        for key, slot in zip(keys, slots)) + nl + "}}"
    if not columns:  # every column holds empty rows
        return [template.format()] * len(items)
    return list(map(template.format, *columns))


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + json.dumps(key, allow_nan=False) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write_json(path: str | None, obj, *files):
    # Writes obj to path (stdout if None) after each (path, pieces) of files
    # whose path is set, and removes the files it opened if one fails.  The
    # whole report renders before any file opens, so a value json cannot
    # write raises first.  Its pieces are written one by one, and _put joins
    # a long list in blocks of _BLOCK items: one join of the pieces, or of a
    # 10^5-row list, would be a multi-MB copy that sets the peak memory.
    out: list[str] = []
    _put(obj, "\n", out)
    out.append("\n")
    opened = []
    try:
        for p, pieces in filter(itemgetter(0), [*files, (path, out)]):
            with open(p, "w") as fh:
                opened.append(p)
                fh.writelines(pieces)
    except BaseException:  # a write can fail on any error, not only an OSError
        for p in filter(os.path.isfile, opened):  # never a device such as /dev/full
            os.remove(p)
        raise
    if not path:
        sys.stdout.writelines(out)


def _add_dist_flags(p: argparse.ArgumentParser, p0=0.1, p1=0.1):
    p.add_argument("--p0", type=float, default=p0, help="empty-site probability")
    p.add_argument("--p1", type=float, default=p1, help="single-atom probability")
    p.add_argument("--p2", type=float, default=None,
                   help="two-atom probability (default: remainder)")
    p.add_argument("--p3", type=float, default=0.0)
    p.add_argument("--p4", type=float, default=0.0)


def cmd_format(args) -> tuple:
    if args.lattice:
        a = read_sites(args.lattice, a_only=True)
    elif args.L < 1:
        raise ValueError("lattice needs at least one site")
    else:
        rng = np.random.default_rng(args.seed)
        a = sample_occupations(args.L, _dist_from_args(args), rng)
    codes = _format_codes(a, args.n)
    homes = _homes(codes, args.n)
    # a register runs home-n .. home-1 (mod L), left to right
    windows = (homes[:, None] - np.arange(args.n, 0, -1)) % a.size
    initial = np.zeros((a.size, 3), dtype=a.dtype)  # [a, 0, 0] per site
    initial[:, 0] = a
    report = {
        "L": int(a.size),
        "n": args.n,
        "seed": None if args.lattice else args.seed,
        "initial": initial,
        "final": _SITE_TABLE.take(codes, axis=0),
        "computers": [
            {"home": k, "n": args.n, "qubit_sites": w}
            for k, w in zip(homes.tolist(), windows)
        ],
    }
    status = 0
    if args.check_oracle:
        agree = np.array_equal(oracle_computers(a, args.n), homes)
        report["oracle_match"] = agree
        status = int(not agree)
    return report, status, f"formatted {a.size} sites into {homes.size} computers"


def cmd_gates(args) -> tuple:
    flags = {k: getattr(args, k) for k in ("q", "q1", "q2", "phi")}
    macro = macro_from_fields(args.gate, {k: v for k, v in flags.items() if v is not None})
    U, leakage = extract_logical_unitary(macro, args.n, L=args.L)
    checks = {}
    if args.gate == "phase":
        target = np.diag([np.exp(1j * macro.phi), 1.0])
        checks["matches_diag"] = bool(np.abs(U - target).max() < 1e-10)
    elif args.gate == "h":
        checks["unbiased"] = bool(np.abs(np.abs(U) ** 2 - 0.5).max() < 1e-10)
        d1, d2 = hadamard_phase_correction(U)
        corrected = np.diag(d1) @ U @ np.diag(d2)
        checks["hadamard_up_to_phases"] = bool(
            np.abs(corrected - _HADAMARD).max() < 1e-10
        )
    else:
        diag = np.diag(U)
        off = U - np.diag(diag)
        checks["diagonal"] = bool(np.abs(off).max() < 1e-10)
        checks["one_minus"] = bool(np.sum(np.abs(diag + 1.0) < 1e-10) == 1)
        checks["entangling"] = bool(
            abs(diag[0] * diag[3] - diag[1] * diag[2]) > 0.5
        )
    report = {
        "n": args.n,
        "L": args.L,
        "gate": args.gate,
        "matrix": matrix_to_json_obj(U),
        "leakage": leakage,
        "checks": checks,
    }
    ok = all(checks.values())
    return report, 0 if ok else 1, (f"gate {args.gate}: leakage {leakage:.2e}, "
                                    f"checks {'pass' if ok else 'FAIL'}")


def cmd_stats(args) -> tuple:
    report = monte_carlo_yield(
        args.L, _dist_from_args(args), args.n, args.trials, args.seed, jobs=args.jobs)
    return report.to_json_obj(), 0 if abs(report.z) <= 3.0 else 1, (
        f"mean {report.mean:.2f} +- {report.stderr:.2f} vs predicted "
        f"{report.prediction:.2f} (z = {report.z:+.2f})"), (args.csv, [report.to_csv()])


def cmd_repair(args) -> tuple:
    report = repair_experiment(
        args.L, _dist_from_args(args), args.n, eps=args.eps, seed=args.seed
    )
    residual = report.repair.residual_empty + report.repair.residual_single
    return report.to_json_obj(), 0 if residual == 0 else 1, (
        f"repair fixed {report.repair.defects_fixed} defects "
        f"({report.repair.atoms_lost} atoms lost, {report.repair.rounds} rounds); "
        f"yield {report.yield_before} -> {report.yield_after}")


def cmd_run(args) -> tuple:
    with open(args.script) as fh:
        script = Script.parse(fh.read())
    with open(args.lattice, "rb") as fh:
        text = fh.read()
    if text.lstrip(b" \t\n\r")[:1] == b"{":  # a state object, or malformed JSON
        state = MixedState.from_json_obj(json.loads(text))
    else:
        state = classical(read_sites(args.lattice))
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    final, counts = execute(state, script, rng)
    report = {
        "seed": args.seed,
        "counts": counts,
        "state": final.to_json_obj(),
    }
    if final.is_classical() and len(final.branches) == 1:
        report["config"] = _SITE_TABLE.take(final.branches[0][1].codes[0], axis=0)
    return report, 0, f"ran {len(script)} ops; {len(counts)} counts recorded"


def _seed(text: str) -> int:
    """A --seed value: numpy seeds its generators with non-negative ints
    only.  A value that is no int gets argparse's own message for one."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


@cache  # one parser per process; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeqc",
        description="Ensemble quantum computation on defective periodic lattices",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("format", help="sample or load a lattice and format it")
    p.add_argument("--L", type=int, default=64)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lattice", help="JSON file with [[a,b,p], ...] sites")
    _add_dist_flags(p)
    p.add_argument("--check-oracle", action="store_true")
    p.set_defaults(func=cmd_format)

    p = sub.add_parser("gates", help="extract and check a logical gate matrix")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--gate", required=True, choices=("phase", "h", "cz"))
    p.add_argument("--q", type=int)
    p.add_argument("--q1", type=int)
    p.add_argument("--q2", type=int)
    p.add_argument("--phi", type=float)
    p.set_defaults(func=cmd_gates)

    p = sub.add_parser("stats", help="Monte Carlo protocol yield vs the closed formula")
    p.add_argument("--L", type=int, default=100000)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for trials (results independent of jobs)")
    _add_dist_flags(p)
    p.add_argument("--csv", help="write per-trial counts as CSV")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("repair", help="repair a defective lattice and re-seed defects")
    p.add_argument("--L", type=int, default=100000)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=None,
                   help="defect rate after repair (default 1/n)")
    _add_dist_flags(p, p0=0.05, p1=0.1)
    p.set_defaults(p3=0.1, p4=0.3)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("run", help="run a script file on a lattice file")
    p.add_argument("script")
    p.add_argument("lattice")
    p.set_defaults(func=cmd_run)

    for name, default in (("format", 0), ("stats", 0), ("repair", 0), ("run", None)):
        sub.choices[name].add_argument("--seed", type=_seed, default=default)
    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, status, summary, *files = args.func(args)
        report["version"] = __version__
        _write_json(args.out, report, *files)
        print(summary, file=sys.stderr)
        return status
    except (StrayAtomsError, GateLeakageError) as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return 1
    # RecursionError: deeply nested JSON; MemoryError: an array too large, such as --L 10**11
    except (ValueError, OverflowError, OSError, RecursionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
