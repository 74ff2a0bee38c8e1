"""Translation-invariant primitive operations and the script interpreter.

Every operation acts identically on all sites (there is no addressing);
computation is steered entirely through occupation patterns and global
cyclic shifts of the pointer level.  Unitaries act on :class:`MixedState`
branch by branch; the emptying channels and the pointer counter act on
the ensemble itself.

Scripts (ordered op sequences) serialize to a line-oriented text form:

    U m n x     pair transfer |m,0,n> <-> |m+x,0,n-x|  (b != 0 blocks)
    W           |1,0,1> <-> |0,1,1>
    V theta     a/b beam-splitter rotation, pointer spectator
    C phi       phase exp(i*phi*sum_k a_k*p_k)
    S x         cyclic pointer shift, x steps to the right
    EB / EP     empty level b / p (trace-out channel)
    SPLIT eps   rotation on span{(2,0,0),(1,1,0)} by angle asin(sqrt(eps))
    COUNTP      projective measurement of the total pointer count

Blank lines and ``#`` comments are ignored; parse(to_text(s)) == s.

Each op class declares everything the engines and the DSL read: its
``head`` (its dataclass fields are the arguments, in order), its ``kind``
(swap, rotate, shift, phase, empty or count) and the one-site data of its
kind: ``pair()`` for a swap, ``images(site)`` for a rotation and
``level`` for an emptying channel, a site being an ``(a, b, p)`` tuple
of ints.  A site holds at most M_MAX atoms per level, and V also needs
a+b <= M_MAX; an op past either limit raises
:class:`OccupationOverflowError`.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import astuple, dataclass, fields
from functools import lru_cache
from typing import Union

import numpy as np

from .lattice import (
    M_MAX,
    PRUNE_TOL,
    _SITE_TABLE,
    MixedState,
    OccupationOverflowError,
    PureState,
    _encode,
    _lexsorted,
)


class ScriptParseError(ValueError):
    """A script text line could not be parsed."""


@dataclass(frozen=True)
class PairTransfer:
    """Sitewise swap |m,0,n> <-> |m+x,0,n-x>; self-inverse, b != 0 blocks."""

    head = "U"
    kind = "swap"

    m: int
    n: int
    x: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("occupations must be non-negative")
        if self.m + self.x < 0 or self.n - self.x < 0:
            raise ValueError(
                f"invalid transfer endpoints for (m={self.m}, n={self.n}, x={self.x})"
            )

    def pair(self) -> tuple[tuple, tuple]:
        m, n, x = self.m, self.n, self.x
        if max(m, n, m + x, n - x) > M_MAX:
            raise OccupationOverflowError(
                f"transfer endpoint exceeds cutoff {M_MAX}: (m={m}, n={n}, x={x})"
            )
        return (m, 0, n), (m + x, 0, n - x)


@dataclass(frozen=True)
class WSwap:
    """Sitewise swap |1,0,1> <-> |0,1,1>."""

    head = "W"
    kind = "swap"

    def pair(self) -> tuple[tuple, tuple]:
        return (1, 0, 1), (0, 1, 1)


@lru_cache(maxsize=(M_MAX + 1) * 64)  # the sectors of as many ops as _image_table holds
def _sector_unitary(T: int, theta: float) -> np.ndarray:
    """exp(-i*theta*H) on the (T+1)-dim sector with fixed a+b = T.

    Basis index i corresponds to (a=i, b=T-i); the hopping matrix has
    elements <i-1|H|i> = sqrt(i*(T-i+1)).  Computed by eigendecomposition
    of the real symmetric H, which keeps the result unitary to rounding.
    """
    dim = T + 1
    H = np.zeros((dim, dim))
    for i in range(1, dim):
        H[i - 1, i] = H[i, i - 1] = math.sqrt(i * (T - i + 1))
    vals, vecs = np.linalg.eigh(H)
    U = (vecs * np.exp(-1j * theta * vals)) @ vecs.T
    U.setflags(write=False)
    return U


@dataclass(frozen=True)
class ABRotation:
    """exp(-i*theta*(a^dag b + b^dag a)) per site; pointer is a spectator."""

    head = "V"
    kind = "rotate"

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"rotation angle must be finite, got {float(self.theta)!r}")

    def images(self, site: tuple) -> tuple:
        a, b, p = site
        T = a + b
        if T == 0:
            return ((site, 1.0),)
        if T > M_MAX:
            raise OccupationOverflowError(f"a+b = {T} on a site exceeds sector cutoff {M_MAX}")
        col = _sector_unitary(T, self.theta)[:, a]
        return tuple(
            ((i, T - i, p), col[i])
            for i in range(T + 1)
            if abs(col[i]) >= 1e-16
        )


@dataclass(frozen=True)
class Collide:
    """Diagonal phase exp(i*phi * sum_k a_k*p_k)."""

    head = "C"
    kind = "phase"

    phi: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError(f"phase angle must be finite, got {float(self.phi)!r}")


@dataclass(frozen=True)
class Shift:
    """Cyclic shift of the pointer level, x steps to the right."""

    head = "S"
    kind = "shift"

    x: int


@dataclass(frozen=True)
class EmptyB:
    """Channel: trace out and zero level b everywhere."""

    head = "EB"
    kind = "empty"
    level = 1


@dataclass(frozen=True)
class EmptyP:
    """Channel: trace out and zero the pointer level everywhere."""

    head = "EP"
    kind = "empty"
    level = 2


_SPLIT_X = (2, 0, 0)
_SPLIT_Y = (1, 1, 0)


@dataclass(frozen=True)
class DefectSplit:
    """Sitewise rotation [[sqrt(1-eps), -sqrt(eps)], [sqrt(eps), sqrt(1-eps)]]
    on span{(2,0,0), (1,1,0)}; identity elsewhere."""

    head = "SPLIT"
    kind = "rotate"

    eps: float

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")

    def images(self, site: tuple) -> tuple:
        c, s = math.sqrt(1.0 - self.eps), math.sqrt(self.eps)
        if site == _SPLIT_X:
            return ((_SPLIT_X, c), (_SPLIT_Y, s))
        if site == _SPLIT_Y:
            return ((_SPLIT_X, -s), (_SPLIT_Y, c))
        return ((site, 1.0),)


@dataclass(frozen=True)
class CountP:
    """Projective measurement of the total pointer count."""

    head = "COUNTP"
    kind = "count"


_OPS = (
    PairTransfer, WSwap, ABRotation, Collide, Shift, EmptyB, EmptyP, DefectSplit, CountP
)
PrimitiveOp = Union[_OPS]


class Script(tuple):
    """Ordered sequence of primitive operations, the unit of execution: a
    tuple of ops, which it equals and hashes like."""

    def __add__(self, other) -> "Script":
        return Script((*self, *other))

    def __repr__(self):
        return f"Script({len(self)} ops)"

    def to_text(self) -> str:
        return "".join(_op_to_text(op) + "\n" for op in self)

    @classmethod
    def parse(cls, text: str) -> "Script":
        ops = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                ops.append(_op_from_tokens(line.split()))
            except (ValueError, IndexError) as exc:
                raise ScriptParseError(f"line {lineno}: {raw.strip()!r}: {exc}") from exc
        return cls(ops)


_BY_HEAD = {cls.head: cls for cls in _OPS}
_PARSE = {"int": int, "float": float}  # field annotation -> token parser


def _op_to_text(op: PrimitiveOp) -> str:
    if type(op) not in _OPS:
        raise TypeError(f"unknown op {op!r}")
    args = (repr(v) if isinstance(v, float) else str(v) for v in astuple(op))
    return " ".join([op.head, *args])


def _op_from_tokens(tok: list[str]) -> PrimitiveOp:
    cls = _BY_HEAD.get(tok[0])
    if cls is None or len(tok) != 1 + len(fields(cls)):
        raise ValueError("unrecognized operation")
    return cls(*(_PARSE[f.type](t) for f, t in zip(fields(cls), tok[1:])))


# ---------------------------------------------------------------------------
# the engine on site codes
#
# A site (a, b, p) is one small int, its site code (see lattice._encode),
# and a pure branch is an array of code rows with one amplitude per row.
# A basis-preserving script compiles once into steps on codes: one fused
# sitewise table per run of swaps and emptying channels, and per shift
# one lookup of a packed table, the code without its pointer digit and
# the pointer digit in one uint16, and one roll of the pointer digit.
# Input occupations of any integer dtype encode without a copy to int64
# (lattice._encode).  _run is the one runner of compiled steps, and the
# engine runs a swap, a shift or the zeroing of an emptying channel as
# its one-op script on every row.  The other kernels group equal keys
# through _groups, one np.unique: a Collide computes one phase
# factor per distinct weight sum(a*p), an emptying channel branches on
# the emptied level's digit rows in sorted order, COUNTP sums Born
# weights per pointer total, and a rotation expands rows through a
# per-code image table and sums equal rows, kept in order of first
# occurrence.  Amplitudes round as a loop over a {config: amplitude}
# dict does (tests/helpers.py keeps that loop): a moved term is
# 0.0 + amp, complex products are written as real products, sums run in
# the dict's order, and each |a|^2 is Python's abs(a) ** 2, one call per
# row, as np.abs and numpy's squaring differ from it in the last bit.


# Per-code constants: the weight a*p of a Collide and each level's digit.
_A_P = np.prod(_SITE_TABLE[:, ::2], axis=1).astype(np.uint16)
_DIGITS = np.ascontiguousarray(_SITE_TABLE.T, dtype=np.uint8)


@lru_cache(maxsize=256)
def _compile(script: Script) -> tuple:
    """Steps on site codes: ("table", t) maps code c to t[c]; ("shift", x,
    pack) maps it to rest[c] plus p[c'] of the site c' x sites to the
    left, where pack[c] = rest[c] << 3 | p[c] (rest <= 336 and p <= 6, so
    pack fits 12 bits).  The table pending at a Shift folds into pack.  A
    Collide changes no code and compiles to nothing."""
    ident = _encode(_SITE_TABLE)
    steps = []
    table = ident
    for op in script:
        kind = getattr(op, "kind", None)
        if kind == "shift":
            p = _DIGITS[2, table].astype(ident.dtype)
            steps.append(("shift", op.x, (table - p) << 3 | p))
            table = ident
            continue
        if kind == "phase":
            continue
        if kind == "swap":
            s1, s2 = op.pair()
            step = ident.copy()
            step[_encode([s1, s2])] = _encode([s2, s1])
        elif kind == "empty":
            step = _encode(_SITE_TABLE * (np.arange(3) != op.level))
        else:
            raise ValueError(f"script contains non-classical operation {op!r}")
        table = step[table]
    if table is not ident:
        steps.append(("table", table))
    for arr in (a for step in steps for a in step if isinstance(a, np.ndarray)):
        arr.setflags(write=False)  # the cache hands these to every caller
    return tuple(steps)


def _move(codes: np.ndarray, step: tuple) -> np.ndarray:
    """Apply a "table" or "shift" step to site codes of shape (..., L)."""
    v = np.take(step[-1], codes)
    if step[0] == "table":
        return v
    moved = np.roll(v & 7, step[1], axis=-1)
    v >>= 3  # v is np.take's own array
    v += moved
    return v


def _run(codes: np.ndarray, script: Script) -> np.ndarray:
    """The one runner of compiled steps, on site codes of shape (..., L)."""
    for step in _compile(script):
        codes = _move(codes, step)
    return codes


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _cmul(ar, ai, br, bi) -> tuple:
    """(ar + i*ai) * (br + i*bi) as Python's complex product rounds it
    (numpy's own complex multiply may fuse the real products)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _scale(amps: np.ndarray, x: float) -> np.ndarray:
    """amps * x, with x promoted to complex as Python promotes it."""
    return _complex(*_cmul(amps.real, amps.imag, x, 0.0))


def _unitary(st: PureState, op) -> PureState:
    """One unitary op on one pure branch."""
    if op.kind == "rotate":
        return _rotate(st, op)
    if op.kind == "phase":
        weights = np.take(_A_P, st.codes).sum(axis=1)
        group, first = _groups(weights)
        f = np.array([cmath.exp(1j * op.phi * w) for w in weights[first].tolist()])[group]
        amps = _complex(*_cmul(st.amps.real, st.amps.imag, f.real, f.imag))
        return PureState._from_codes(st.codes, amps)
    if op.kind == "swap" and op.pair()[0] == op.pair()[1]:
        return PureState._from_codes(st.codes, st.amps)  # moves no term
    return PureState._from_codes(*_lexsorted(_run(st.codes, Script([op])), st.amps + 0.0))


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal items of a 1-d array, or the equal rows of a 2-d
    one: each item's group number and each group's first index.  Groups
    are numbered in sorted order; a row sorts by its bytes."""
    if keys.ndim == 2:
        keys = np.ascontiguousarray(keys)
        keys = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    return group, first


# The most site cells (rows times sites) one rotation step may expand a
# branch into; a V that would need more raises instead of exhausting memory.
ROTATION_CELLS = 2 ** 26


@lru_cache(maxsize=64)
def _image_table(op) -> tuple:
    """(count, table, fixed) for a rotation: code c has count[c] images,
    table[:, c, j] is (code, re, im) of image j, and fixed[c] says that c
    is its own only image, times 1.  Filled in as codes turn up, so only
    the sites a state holds reach op.images."""
    n = len(_SITE_TABLE)
    return np.zeros(n, dtype=np.int64), np.zeros((3, n, M_MAX + 1)), np.zeros(n, dtype=bool)


def _rotate(st: PureState, op) -> PureState:
    """Apply op.images on each site in turn, pruning after every site.

    Site k expands every row into its images in (row, image) order; equal
    rows are summed in that order and kept in order of first occurrence.
    A site whose codes are all fixed only turns -0.0 parts into 0.0, which
    the final + 0.0 does for all of them.
    """
    codes, re, im = st.codes, st.amps.real, st.amps.imag
    count, table, fixed = _image_table(op)
    for c in set(codes[count[codes] == 0].tolist()):
        site = tuple(_SITE_TABLE[c].tolist())
        img = op.images(site)
        u = np.array([z for _, z in img], dtype=complex)
        table[:, c, :len(img)] = _encode([s for s, _ in img]), u.real, u.imag
        count[c] = len(img)
        fixed[c] = len(img) == 1 and img[0][0] == site and u[0] == 1.0
    for k in np.flatnonzero(~fixed[codes].all(axis=0)).tolist():
        col = codes[:, k]
        row, j = np.nonzero(np.arange(table.shape[2]) < count[col][:, None])
        if row.size * codes.shape[1] > ROTATION_CELLS:
            raise ValueError(
                f"{_op_to_text(op)} would expand the state to {row.size} rows of "
                f"{codes.shape[1]} sites, past {ROTATION_CELLS} site cells")
        image = table[:, col[row], j]
        new = codes[row]
        new[:, k] = image[0]
        pre, pim = _cmul(re[row], im[row], image[1], image[2])
        group, first = _groups(new)
        order = np.argsort(first)  # the groups in order of first occurrence
        re = np.bincount(group, pre)[order]
        im = np.bincount(group, pim)[order]
        keep = np.hypot(re, im) >= PRUNE_TOL
        codes, re, im = new[first[order[keep]]], re[keep], im[keep]
    return PureState._from_codes(*_lexsorted(codes, _complex(re + 0.0, im + 0.0)))


def _empty(state: MixedState, op) -> MixedState:
    """Trace out op.level: branch on its digits, in sorted order of the
    digit rows, then zero it and renormalize each branch."""
    new_branches: list[tuple[float, PureState]] = []
    for w, st in state.branches:
        zeroed = _run(st.codes, Script([op]))
        group, _ = _groups(np.take(_DIGITS[op.level], st.codes))  # uint8: bytes sort like digits
        amps = st.amps + 0.0
        weights = np.bincount(group, [abs(a) ** 2 for a in amps.tolist()])
        for g, weight in enumerate(weights.tolist()):
            if weight <= 1e-30:
                continue
            rows = group == g
            amp = _scale(amps[rows], 1.0 / math.sqrt(weight))
            new_branches.append((w * weight, PureState._from_codes(zeroed[rows], amp)))
    return MixedState(new_branches)


def _count_p(state: MixedState, rng: np.random.Generator | None) -> tuple[MixedState, float]:
    """Measure the total pointer count: draw one outcome (Born rule) and
    collapse.  When a single outcome has all the probability no
    randomness is consumed, so runs on classical ensembles stay
    deterministic.
    """
    totals = [np.take(_DIGITS[2], st.codes).sum(axis=1) for _, st in state.branches]
    group, first = _groups(every := np.concatenate(totals))
    outcomes = every[first].tolist()
    if len(outcomes) == 1:
        return state, float(outcomes[0])
    if rng is None:
        raise ValueError("sampling a non-deterministic count requires an rng")
    probs = [w * abs(a) ** 2 for w, st in state.branches for a in st.amps.tolist()]
    dist = np.bincount(group, probs)
    # the first outcome whose running total exceeds the draw, else the last
    g = min(int(np.searchsorted(np.cumsum(dist), rng.random(), side="right")), len(dist) - 1)
    outcome, prob = outcomes[g], float(dist[g])
    new_branches = []
    for (w, st), total in zip(state.branches, totals):
        rows = total == outcome
        if not rows.any():
            continue
        amps = st.amps[rows]
        # left to right on every Python; sum() compensates from 3.12 on
        bw = float(np.cumsum([abs(a) ** 2 for a in amps.tolist()])[-1])
        amp = _scale(amps, 1.0 / math.sqrt(bw))
        new_branches.append((w * bw / prob, PureState._from_codes(st.codes[rows], amp)))
    return MixedState(new_branches), float(outcome)


def _step(
    state: MixedState, op: PrimitiveOp, rng: np.random.Generator | None = None
) -> tuple[MixedState, float | None]:
    """Apply one op; returns the new state and the COUNTP outcome (None
    for every other op)."""
    if type(op) not in _OPS:
        raise TypeError(f"unknown op {op!r}")
    if op.kind == "count":
        return _count_p(state, rng)
    if op.kind == "empty":
        return _empty(state, op), None
    branches = [(w, _unitary(st, op)) for w, st in state.branches]
    return MixedState(branches), None


def apply_classical(occ: np.ndarray, script: Script) -> np.ndarray:
    """Run a basis-preserving script on classical occupations.

    ``occ`` has shape (..., L, 3); leading axes are a batch, so a whole
    family of lattices runs in one vectorized pass through the compiled
    script.  Phases from Collide are physically inert on a classical
    configuration and are dropped here (:func:`execute` tracks them).
    """
    return np.take(_SITE_TABLE, _run(_encode(occ), script), axis=0)


# ---------------------------------------------------------------------------
# the interpreter


def execute(
    state: MixedState, script: Script, rng: np.random.Generator | None = None
) -> tuple[MixedState, list[float]]:
    """Run a script op by op; returns the final state and any COUNTP outcomes."""
    counts: list[float] = []
    for op in script:
        state, value = _step(state, op, rng)
        if value is not None:
            counts.append(value)
    return state, counts

