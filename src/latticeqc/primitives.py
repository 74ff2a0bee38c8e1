"""Translation-invariant primitive operations and the script interpreter.

Every operation acts identically on all sites (there is no addressing);
computation is steered entirely through occupation patterns and global
cyclic shifts of the pointer level.  Every op but the pointer counter
COUNTP acts on a :class:`MixedState` one branch at a time; COUNTP is the
one op that reads all branches at once.

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
    _SITE_TABLE,
    MixedState,
    OccupationOverflowError,
    PureState,
    _encode,
    _lexsorted,
    _live,
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


@lru_cache(maxsize=(M_MAX + 1) * 64)  # every sector of 64 rotation angles
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
# the pointer digit in one uint16, and an in-place add of the pointer
# digit moved x sites along the ring (_roll_into).
# Input occupations of any integer dtype encode without a copy to int64
# (lattice._encode).  _run is the one runner of compiled steps: execute
# runs each maximal run of swaps and shifts as one script on every row
# (_moved), and _parts the zeroing of an emptying channel as its one-op
# script.  _step sends a swap or a shift to _moved, COUNTP, the one op
# that couples branches, to _count_p, and maps every other op over the
# branches one at a time through _parts.  Sums over the sites of code
# rows run down the transposed rows, one contiguous column per site.  The
# other kernels group equal keys through _groups, one stable sort: a
# Collide computes one phase factor per distinct weight sum(a*p), an
# emptying channel branches on the emptied level's digit rows in sorted
# order, COUNTP sums Born weights per pointer total, both renormalize
# through _collapse, and a rotation carries each row as one packed key
# of per-site ids, expands it site by site through per-id tables
# memoized by (op, held codes), sums equal keys where two rows can meet,
# kept in order of first occurrence, and sorts and decodes the keys once
# (see _rotate); its prune test is lattice._live.  Amplitudes round as
# a {config: amplitude} dict loop does (tests/helpers.py keeps it): a moved
# term is 0.0 + amp, complex products are written as real products, sums
# run in the dict's order, and each |a|^2 is Python's abs(a) ** 2, one
# call per row, as np.abs and numpy's squaring differ in the last bit.


# Per-code constants: the weight a*p of a Collide and each level's digit.
_A_P = np.prod(_SITE_TABLE[:, ::2], axis=1).astype(np.uint16)
_DIGITS = np.ascontiguousarray(_SITE_TABLE.T, dtype=np.uint8)
_MOVES = ("swap", "shift")  # the kinds that only permute configurations


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


def _roll_into(ufunc, out: np.ndarray, src: np.ndarray, x: int):
    """ufunc(out, np.roll(src, x, axis=-1)) into out, without the roll's
    copy: two slices along the last axis, cyclic for any x, L = 0 too."""
    L = out.shape[-1]
    x %= max(L, 1)
    ufunc(out[..., x:], src[..., :L - x], out=out[..., x:])
    ufunc(out[..., :x], src[..., L - x:], out=out[..., :x])


def _move(codes: np.ndarray, step: tuple) -> np.ndarray:
    """Apply a "table" or "shift" step to site codes of shape (..., L)."""
    v = np.take(step[-1], codes)
    if step[0] == "table":
        return v
    p = v & 7
    v >>= 3  # v is np.take's own array
    _roll_into(np.add, v, p, step[1])
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


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal items of a 1-d array, or the equal rows of a 2-d
    one: each item's group number and each group's first index.  Groups
    are numbered in sorted order, by one stable sort; a row sorts by its bytes."""
    if keys.ndim == 2:
        keys = np.ascontiguousarray(keys)
        keys = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    sort = keys[order]
    starts = np.ones(len(keys), dtype=bool)  # where a group starts in sorted order
    starts[1:] = sort[1:] != sort[:-1]
    group = np.empty_like(order)
    group[order] = np.cumsum(starts) - 1
    return group, order[np.flatnonzero(starts)]


# The most site cells (rows times sites) one rotation step may expand a
# branch into; a V that would need more raises instead of exhausting memory.
ROTATION_CELLS = 2 ** 24


@lru_cache(maxsize=256)
def _rotation_tables(op, held: bytes) -> tuple:
    """_rotate's tables for op on the held codes (their sorted intp bytes).
    Ids number held codes and images in code order.  Per code: fixed, id;
    per id: code, image count (0 unless held: a site turns once), its
    slots in order, padded with -1 to the largest count, and meets (shares
    an image with another held id); per slot: id step, amplitude.  No
    exception is cached: a refusal names the lowest held code past the
    op's cutoff on every call."""
    held = np.frombuffer(held, dtype=np.intp)
    images = {site: op.images(site) for site in map(tuple, _SITE_TABLE[held].tolist())}
    fixed = np.zeros(len(_SITE_TABLE), dtype=bool)
    fixed[held] = [img == ((site, 1.0),) for site, img in images.items()]
    targets = _encode([s for img in images.values() for s, _ in img])
    ure, uim = np.array([(z.real, z.imag) for img in images.values() for _, z in img]).T
    alphabet = np.bincount(np.concatenate((held, targets)), minlength=len(_SITE_TABLE)) > 0
    code = np.flatnonzero(alphabet).astype(np.uint16)  # id -> code
    ident = np.cumsum(alphabet) - 1  # code -> id, on the alphabet
    source = np.repeat(ident.take(held), [len(img) for img in images.values()])  # per slot
    count = np.bincount(source, minlength=len(code))
    slots = np.full((len(code), count.max()), -1)
    within = np.arange(len(source)) - (np.cumsum(count) - count).take(source)
    slots[source, within] = np.arange(len(source))
    meets = np.bincount(source, np.bincount(targets).take(targets) > 1, minlength=len(code)) > 0
    tables = (fixed, ident.astype(np.uint64), code, count, slots, meets,
              (ident.take(targets) - source).astype(np.uint64), ure, uim)
    for arr in tables:
        arr.setflags(write=False)  # the cache hands these to every caller
    return tables


def _held(codes: np.ndarray) -> bytes:
    """The distinct codes of a code array, sorted, as _rotation_tables'
    intp bytes: one sort of a copy, freed on return."""
    codes = np.sort(codes, axis=None)
    last = np.ones(codes.size, dtype=bool)  # the last of each run of equal codes
    np.not_equal(codes[1:], codes[:-1], out=last[:-1])
    return codes[last].astype(np.intp).tobytes()


def _rotate(st: PureState, op) -> tuple:
    """Apply op.images on each site in turn, pruning after every site;
    returns the code rows in lexicographic order and their amplitudes.

    Site k expands every row into its images in (row, image) order; equal
    rows are summed in that order and kept in order of first occurrence.
    Rows enter distinct, so two meet only where the column holds two ids
    that share an image: a constant column, or one where no id meets,
    keeps the rows and their products as they come.  A sum of one there,
    like a site whose codes are all fixed, would only turn -0.0 parts into
    0.0; no nonzero part depends on the sign of a zero, and the final
    + 0.0 turns every zero part into 0.0 (tables: see _rotation_tables).

    The rows travel through the sites as packed keys, not code rows.  A
    row is its columns' ids in fields of ``bits`` bits, column 0 in the
    top field of word 0, in ``words`` uint64 words; no field straddles a
    word, so keys compare word by word as their rows compare.  A column
    that is constant over the rows and fixed under the op cannot tell two
    rows apart: it gets no field and is copied back from row 0.  A site
    reads its field with a shift and a mask and rewrites it by adding
    each image's id step, which uint64 wraparound keeps exact.  The keys
    are sorted once, after the last site.  They are built and decoded one
    field position at a time, across all words, so neither holds more
    than one id per row and word at once.  The column tests and the id
    build read the codes transposed, one site per contiguous row, from a
    copy freed before the first site, and the keys are built word-major.
    """
    codes, re, im = st.codes, st.amps.real, st.amps.imag
    rows, L = codes.shape
    tables = _rotation_tables(op, _held(codes))
    fixed, ident, code, count, slots, meets, step, ure, uim = tables
    bits = max(1, (len(code) - 1).bit_length())
    per, mask = 64 // bits, np.uint64((1 << bits) - 1)  # fields per word, field mask
    shift = (64 - bits * np.arange(1, per + 1)).astype(np.uint64)
    # before the transposed copy exists: take's intp copy of its indices is
    # the largest temporary here, and it follows their order, a site per row
    still = fixed.take(codes.T).all(axis=1)  # columns whose every code the op fixes
    sites = np.ascontiguousarray(codes.T)  # column k of the rows is row k
    same = sites.min(axis=1) == sites.max(axis=1)  # constant columns
    kept = np.flatnonzero(~(same & still))
    words = max(1, -(-len(kept) // per))
    key = np.zeros((words, rows), dtype=np.uint64)  # built word by word, then transposed
    for i in range(min(per, len(kept))):  # field i of every word
        cols = kept[i::per]
        key[:len(cols)] |= (ident << shift[i]).take(sites[cols])
    key = np.ascontiguousarray(key.T)
    rotated = np.flatnonzero(~still)
    del sites  # the site loop holds keys and amplitudes alone

    for c, f in zip(rotated.tolist(), np.searchsorted(kept, rotated).tolist()):
        w, s = f // per, int(shift[f % per])
        old = ((key[:, w] >> s) & mask).view(np.int64)
        cnt = count.take(old)
        total = int(cnt.sum())
        if total * L > ROTATION_CELLS:
            raise ValueError(
                f"{_op_to_text(op)} would expand the state to {total} rows of "
                f"{L} sites, past {ROTATION_CELLS} site cells")
        slot = slots.take(old, axis=0)  # row i's images take the slots of id old[i]
        slot = slot.ravel() if slot.size == total else slot[slot >= 0]
        new = key.repeat(cnt, axis=0)
        new[:, w] += (step << s).take(slot)
        pre, pim = _cmul(re.repeat(cnt), im.repeat(cnt), ure.take(slot), uim.take(slot))
        if same[c] or not meets.take(old).any():  # no two rows meet here
            re, im = pre, pim
        else:
            # big-endian words sort by their bytes as the keys do; past the first
            # sites the rows come nearly sorted, which the stable sort is quick on
            group, first = _groups(new[:, 0] if words == 1 else new.byteswap())
            at = np.zeros(total, dtype=bool)
            at[first] = True
            at = np.flatnonzero(at)  # the groups' first rows, in order
            new, order = new[at], group[at]  # groups by first occurrence
            re, im = np.bincount(group, pre)[order], np.bincount(group, pim)[order]
        keep = _live(re, im)
        if not keep.all():
            keep = np.flatnonzero(keep)
            new, re, im = new[keep], re[keep], im[keep]
        key = new

    order = np.argsort(key[:, 0]) if words == 1 else np.lexsort(key.T[::-1])
    key = key[order]
    out = np.repeat(codes[:1], len(key), axis=0)
    for i in range(min(per, len(kept))):  # field i of every word
        cols = kept[i::per]
        ids = key[:, :len(cols)] >> shift[i]
        ids &= mask
        out[:, cols] = code.take(ids.view(np.int64))
    return out, _complex(re[order] + 0.0, im[order] + 0.0)


def _collapse(codes: np.ndarray, amps: np.ndarray, rows: np.ndarray) -> tuple:
    """The Born weight of a branch's ``rows``, summed left to right (sum()
    compensates from Python 3.12 on), and those rows renormalized by a
    real 1/sqrt(weight), promoted to complex as Python promotes it."""
    amps = amps[rows]
    weight = float(np.cumsum([abs(a) ** 2 for a in amps.tolist()])[-1])
    x = 1.0 / math.sqrt(weight)
    amps = _complex(*_cmul(amps.real, amps.imag, x, 0.0))
    return weight, PureState._from_codes(codes[rows], amps)


def _parts(st: PureState, op) -> list:
    """The (weight, branch) parts of one pure branch under an op that
    neither moves terms nor counts: one per digit row of an emptying
    channel's level, in sorted order, or one of weight 1.0 for a unitary."""
    if op.kind == "empty":
        zeroed = _run(st.codes, Script([op]))
        group, first = _groups(np.take(_DIGITS[op.level], st.codes))  # uint8 sorts like digits
        amps = st.amps + 0.0
        return [_collapse(zeroed, amps, group == g) for g in range(len(first))]
    if op.kind == "rotate":
        codes, amps = _rotate(st, op)
    else:  # a phase; the site sum runs along each site's contiguous column
        weights = np.take(_A_P, st.codes.T).sum(axis=0)
        group, first = _groups(weights)
        f = np.array([cmath.exp(1j * op.phi * w) for w in weights[first].tolist()])[group]
        codes, amps = st.codes, _complex(*_cmul(st.amps.real, st.amps.imag, f.real, f.imag))
    return [(1.0, PureState._from_codes(codes, amps))]


def _moved(state: MixedState, ops) -> MixedState:
    """A run of swaps and shifts on every branch as one compiled script:
    one sort of each branch's rows, one + 0.0 of its amplitudes and one
    MixedState.  The run permutes each branch's configurations, so rows
    stay distinct and no two distinct branches become equal, and the
    result is that of the ops one at a time.  A swap of a site with itself
    moves no term: a run of such swaps alone returns the state as it is,
    -0.0 parts included."""
    if all(op.kind == "swap" and op.pair()[0] == op.pair()[1] for op in ops):
        return state
    script = Script(ops)
    return MixedState([
        (w, PureState._from_codes(*_lexsorted(_run(st.codes, script), st.amps + 0.0)))
        for w, st in state.branches])


def _count_p(state: MixedState, rng: np.random.Generator | None) -> tuple:
    """Measure the total pointer count: draw one outcome (Born rule) and
    return the branches' (weight, branch) parts collapsed onto it, and the
    outcome.  When a single outcome has all the probability the state
    itself comes back and no randomness is consumed, so runs on classical
    ensembles stay deterministic.
    """
    totals = [np.take(_DIGITS[2], st.codes.T).sum(axis=0) for _, st in state.branches]
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
    parts = []
    for (w, st), total in zip(state.branches, totals):
        rows = total == outcome
        if rows.any():
            weight, branch = _collapse(st.codes, st.amps, rows)
            parts.append((w * weight / prob, branch))
    return parts, float(outcome)


def _step(
    state: MixedState, op: PrimitiveOp, rng: np.random.Generator | None = None
) -> tuple[MixedState, float | None]:
    """Apply one op; returns the new state and the COUNTP outcome (None
    for every other op)."""
    if type(op) not in _OPS:
        raise TypeError(f"unknown op {op!r}")
    if op.kind in _MOVES:
        return _moved(state, (op,)), None
    if op.kind == "count":
        parts, outcome = _count_p(state, rng)
        return (parts if parts is state else MixedState(parts)), outcome
    parts = [(w * v, part) for w, st in state.branches for v, part in _parts(st, op)]
    return MixedState(parts), None


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
    """Run a script; returns the final state and any COUNTP outcomes.  Each
    maximal run of consecutive swaps and shifts steps as one (_moved), and
    every other op steps alone."""
    counts: list[float] = []
    run: list = []
    for op in script:
        if type(op) in _OPS and op.kind in _MOVES:
            run.append(op)
            continue
        state, run = _moved(state, run), []
        state, value = _step(state, op, rng)
        if value is not None:
            counts.append(value)
    return _moved(state, run), counts

