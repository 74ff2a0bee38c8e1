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
kind: ``pair(m_max)`` for a swap, ``images(site, m_max)`` for a rotation
and ``level`` for an emptying channel.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import astuple, dataclass, fields
from functools import lru_cache
from typing import Iterable, Iterator, Union

import numpy as np

from .lattice import (
    DEFAULT_M_MAX,
    PRUNE_TOL,
    BasisConfig,
    MixedState,
    OccupationOverflowError,
    PureState,
    SiteOccupancy,
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

    def pair(self, m_max: int) -> tuple[SiteOccupancy, SiteOccupancy]:
        m, n, x = self.m, self.n, self.x
        if max(m, n, m + x, n - x) > m_max:
            raise OccupationOverflowError(
                f"transfer endpoint exceeds cutoff {m_max}: (m={m}, n={n}, x={x})"
            )
        return SiteOccupancy(m, 0, n), SiteOccupancy(m + x, 0, n - x)


@dataclass(frozen=True)
class WSwap:
    """Sitewise swap |1,0,1> <-> |0,1,1>."""

    head = "W"
    kind = "swap"

    def pair(self, m_max: int) -> tuple[SiteOccupancy, SiteOccupancy]:
        return SiteOccupancy(1, 0, 1), SiteOccupancy(0, 1, 1)


@lru_cache(maxsize=None)
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

    def images(self, site: SiteOccupancy, m_max: int) -> tuple:
        T = site.a + site.b
        if T == 0:
            return ((site, 1.0),)
        if T > m_max:
            raise OccupationOverflowError(
                f"a+b = {T} on a site exceeds sector cutoff {m_max}"
            )
        col = _sector_unitary(T, self.theta)[:, site.a]
        return tuple(
            (SiteOccupancy(i, T - i, site.p), col[i])
            for i in range(T + 1)
            if abs(col[i]) >= 1e-16
        )


@dataclass(frozen=True)
class Collide:
    """Diagonal phase exp(i*phi * sum_k a_k*p_k)."""

    head = "C"
    kind = "phase"

    phi: float


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


_SPLIT_X = SiteOccupancy(2, 0, 0)
_SPLIT_Y = SiteOccupancy(1, 1, 0)


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

    def images(self, site: SiteOccupancy, m_max: int) -> tuple:
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

# Kinds that map classical configurations to classical configurations.
_CLASSICAL_KINDS = ("swap", "shift", "phase", "empty")


class Script:
    """Ordered sequence of primitive operations; the unit of execution."""

    __slots__ = ("ops",)

    def __init__(self, ops: Iterable[PrimitiveOp] = ()):
        self.ops = tuple(ops)

    def __iter__(self) -> Iterator[PrimitiveOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __add__(self, other: "Script") -> "Script":
        return Script(self.ops + tuple(other))

    def __eq__(self, other) -> bool:
        return isinstance(other, Script) and self.ops == other.ops

    def __hash__(self):
        return hash(self.ops)

    def __repr__(self):
        return f"Script({len(self.ops)} ops)"

    def is_basis_preserving(self) -> bool:
        return all(getattr(op, "kind", None) in _CLASSICAL_KINDS for op in self.ops)

    def to_text(self) -> str:
        return "".join(_op_to_text(op) + "\n" for op in self.ops)

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
# unitary kernels (per pure branch): terms, op, cutoff -> terms


def _swap_terms(terms: dict, op, m_max: int) -> dict:
    """Exchange the two one-site states of op.pair on every site."""
    s1, s2 = op.pair(m_max)
    if s1 == s2:
        return dict(terms)
    swap = {s1: s2, s2: s1}
    out: dict[BasisConfig, complex] = {}
    for config, amp in terms.items():
        new = BasisConfig(tuple(swap.get(s, s) for s in config.sites))
        out[new] = out.get(new, 0.0) + amp
    return out


def _rotate_terms(terms: dict, op, m_max: int) -> dict:
    """Apply op.images on each site in turn, pruning after every site.

    Intermediate terms are keyed by site tuples; each BasisConfig is built
    once, after the last site.
    """
    rows = {config.sites: amp for config, amp in terms.items()}
    images: dict[SiteOccupancy, tuple] = {}
    for k in range(len(next(iter(rows)))):
        out: dict[tuple, complex] = {}
        for sites, amp in rows.items():
            site = sites[k]
            if site not in images:
                images[site] = op.images(site, m_max)
            for new, u in images[site]:
                key = sites if new == site else sites[:k] + (new,) + sites[k + 1:]
                out[key] = out.get(key, 0.0) + amp * u
        rows = {key: a for key, a in out.items() if abs(a) >= PRUNE_TOL}
    return {BasisConfig(sites): amp for sites, amp in rows.items()}


def _shift_terms(terms: dict, op, m_max: int) -> dict:
    out = {}
    for config, amp in terms.items():
        L = config.L
        sites = config.sites
        new = BasisConfig(
            tuple(
                SiteOccupancy(sites[k].a, sites[k].b, sites[(k - op.x) % L].p)
                for k in range(L)
            )
        )
        out[new] = out.get(new, 0.0) + amp
    return out


def _phase_terms(terms: dict, op, m_max: int) -> dict:
    out = {}
    for config, amp in terms.items():
        weight = sum(s.a * s.p for s in config.sites)
        out[config] = amp * cmath.exp(1j * op.phi * weight)
    return out


_KERNELS = {
    "swap": _swap_terms,
    "rotate": _rotate_terms,
    "shift": _shift_terms,
    "phase": _phase_terms,
}


# ---------------------------------------------------------------------------
# channels


def _empty_level(state: MixedState, level_idx: int) -> MixedState:
    """Trace out one level: branch on its occupation pattern, then zero it."""
    new_branches: list[tuple[float, PureState]] = []
    for w, st in state.branches:
        groups: dict[tuple, dict[BasisConfig, complex]] = {}
        for config, amp in st:
            pattern = tuple(s[level_idx] for s in config.sites)
            zeroed = BasisConfig(
                tuple(
                    SiteOccupancy(*(0 if i == level_idx else s[i] for i in range(3)))
                    for s in config.sites
                )
            )
            grp = groups.setdefault(pattern, {})
            grp[zeroed] = grp.get(zeroed, 0.0) + amp
        for pattern in sorted(groups):
            terms = groups[pattern]
            weight = sum(abs(a) ** 2 for a in terms.values())
            if weight <= 1e-30:
                continue
            scale = 1.0 / math.sqrt(weight)
            new_branches.append(
                (
                    w * weight,
                    PureState(
                        {c: a * scale for c, a in terms.items()}, st.m_max, check=False
                    ),
                )
            )
    return MixedState(new_branches, check=False, merge=True)


def _count_distribution(state: MixedState) -> dict[int, float]:
    dist: dict[int, float] = {}
    for w, st in state.branches:
        for config, amp in st:
            c = config.level_total(2)
            dist[c] = dist.get(c, 0.0) + w * abs(amp) ** 2
    return dist


def count_p(
    state: MixedState, rng: np.random.Generator | None = None, mode: str = "sample"
) -> tuple[float, MixedState]:
    """Measure the total pointer count.

    ``sample`` draws one outcome (Born rule) and collapses; when a single
    outcome has all the probability no randomness is consumed, so runs on
    classical ensembles stay deterministic.  ``expect`` returns the
    expectation and leaves the state untouched.
    """
    dist = _count_distribution(state)
    if mode == "expect":
        return sum(c * p for c, p in dist.items()), state
    if mode != "sample":
        raise ValueError(f"unknown count mode {mode!r}")
    outcomes = sorted(dist)
    if len(outcomes) == 1:
        return float(outcomes[0]), state
    if rng is None:
        raise ValueError("sampling a non-deterministic count requires an rng")
    r = rng.random()
    acc = 0.0
    outcome = outcomes[-1]
    for c in outcomes:
        acc += dist[c]
        if r < acc:
            outcome = c
            break
    prob = dist[outcome]
    new_branches = []
    for w, st in state.branches:
        kept = {c: a for c, a in st if c.level_total(2) == outcome}
        if not kept:
            continue
        bw = sum(abs(a) ** 2 for a in kept.values())
        scale = 1.0 / math.sqrt(bw)
        new_branches.append(
            (
                w * bw / prob,
                PureState({c: a * scale for c, a in kept.items()}, st.m_max, check=False),
            )
        )
    return float(outcome), MixedState(new_branches, check=False, merge=True)


def _step(
    state: MixedState, op: PrimitiveOp, rng: np.random.Generator | None = None
) -> tuple[MixedState, float | None]:
    """Apply one op through the sparse engine; returns the new state and
    the COUNTP outcome (None for every other op)."""
    if type(op) not in _OPS:
        raise TypeError(f"unknown op {op!r}")
    if op.kind == "count":
        value, state = count_p(state, rng, "sample")
        return state, value
    if op.kind == "empty":
        return _empty_level(state, op.level), None
    kernel = _KERNELS[op.kind]
    branches = [
        (w, PureState(kernel(st.terms, op, st.m_max), st.m_max, check=False))
        for w, st in state.branches
    ]
    return MixedState(branches, check=False, merge=False), None


# ---------------------------------------------------------------------------
# classical engine: compiled site-code lookup tables
#
# A classical site (a, b, p) is one small int, its site code
# a*R**2 + b*R + p with R = m_max + 1.  A basis-preserving script compiles
# once per (script, m_max) into steps on an array of codes: one fused
# sitewise table per run of swaps and emptying channels, a roll of the
# pointer digit per shift, and a phase step per Collide.


@lru_cache(maxsize=8)
def _site_table(m_max: int) -> np.ndarray:
    """Row c holds the occupations (a, b, p) of site code c."""
    R = m_max + 1
    sites = np.indices((R, R, R)).reshape(3, -1).T.copy()
    sites.setflags(write=False)
    return sites


def _encode(occ, m_max: int) -> np.ndarray:
    occ = np.asarray(occ, dtype=np.int64)
    if occ.shape[-1:] != (3,):
        raise ValueError(f"expected trailing axis of size 3, got {occ.shape}")
    if occ.size and occ.max() > m_max:
        raise OccupationOverflowError(f"occupation exceeds cutoff {m_max}")
    if occ.size and occ.min() < 0:
        raise ValueError("negative occupation")
    R = m_max + 1
    codes = (occ[..., 0] * R + occ[..., 1]) * R + occ[..., 2]
    return codes.astype(np.min_scalar_type(R**3 - 1))


@lru_cache(maxsize=256)
def _compile(script: Script, m_max: int) -> tuple:
    """Steps on site codes: ("table", t) maps code c to t[c]; ("shift", x,
    rest, p) maps it to rest[c] plus p[c'] of the site c' x sites to the
    left; ("phase", phi, w) adds phi * sum(w[c]) to the phase.  The table
    pending at a Shift folds into rest and p, and the one pending at a
    Collide into w, so w[c] is a*p after that table."""
    sites = _site_table(m_max)
    ident = _encode(sites, m_max)
    steps = []
    table = ident
    for op in script:
        kind = getattr(op, "kind", None)
        if kind == "shift":
            p = sites[table, 2].astype(ident.dtype)
            steps.append(("shift", op.x, table - p, p))
            table = ident
            continue
        if kind == "phase":
            steps.append(("phase", op.phi, sites[table, 0] * sites[table, 2]))
            continue
        if kind == "swap":
            s1, s2 = op.pair(m_max)
            step = ident.copy()
            if max(s1 + s2) <= m_max:  # below cutoff 1 W's sites do not exist
                step[_encode([s1, s2], m_max)] = _encode([s2, s1], m_max)
        elif kind == "empty":
            step = _encode(sites * (np.arange(3) != op.level), m_max)
        else:
            raise ValueError(f"script contains non-classical operation {op!r}")
        table = step[table]
    if table is not ident:
        steps.append(("table", table))
    for arr in (a for step in steps for a in step if isinstance(a, np.ndarray)):
        arr.setflags(write=False)  # the cache hands these to every caller
    return tuple(steps)


def _run_classical(occ, script: Script, m_max: int, phase: float | None = None):
    """Encode (..., L, 3) occupations, run the compiled script, decode.

    With ``phase`` None the phase steps are skipped; otherwise each adds
    phi * sum(a*p) to it, in op order.
    """
    codes = _encode(occ, m_max)
    for step in _compile(script, m_max):
        if step[0] == "table":
            codes = np.take(step[1], codes)
        elif step[0] == "shift":
            moved = np.roll(np.take(step[3], codes), step[1], axis=-1)
            codes = np.take(step[2], codes) + moved
        elif phase is not None:
            phase += step[1] * float(np.take(step[2], codes).sum())
    return np.take(_site_table(m_max), codes, axis=0), phase


def apply_classical(occ: np.ndarray, script: Script, m_max: int = DEFAULT_M_MAX) -> np.ndarray:
    """Run a basis-preserving script on classical occupations.

    ``occ`` has shape (..., L, 3); leading axes are a batch, so a whole
    family of lattices runs in one vectorized pass.  Phases from Collide
    are physically inert on a classical configuration and are dropped
    here (:func:`execute` tracks them).
    """
    return _run_classical(occ, script, m_max)[0]


# ---------------------------------------------------------------------------
# public op wrappers and the interpreter


def pair_transfer(state: MixedState, m: int, n: int, x: int) -> MixedState:
    return _step(state, PairTransfer(m, n, x))[0]


def w_swap(state: MixedState) -> MixedState:
    return _step(state, WSwap())[0]


def ab_rotation(state: MixedState, theta: float) -> MixedState:
    return _step(state, ABRotation(theta))[0]


def collide(state: MixedState, phi: float) -> MixedState:
    return _step(state, Collide(phi))[0]


def shift_p(state: MixedState, x: int) -> MixedState:
    return _step(state, Shift(x))[0]


def empty_p(state: MixedState) -> MixedState:
    return _step(state, EmptyP())[0]


def empty_b(state: MixedState) -> MixedState:
    return _step(state, EmptyB())[0]


def defect_split(state: MixedState, eps: float) -> MixedState:
    return _step(state, DefectSplit(eps))[0]


def execute(
    state: MixedState, script: Script, rng: np.random.Generator | None = None
) -> tuple[MixedState, list[float]]:
    """Run a script; returns the final state and any COUNTP outcomes.

    Classical states running basis-preserving scripts take the compiled
    classical engine per branch; the result is identical to the generic
    path, including Collide phases.
    """
    if state.is_classical() and script.is_basis_preserving():
        branches = []
        for w, st in state.branches:
            config, amp0 = next(iter(st.terms.items()))
            occ, phase = _run_classical(config.to_array(), script, st.m_max, 0.0)
            final = {BasisConfig.from_array(occ): amp0 * cmath.exp(1j * phase)}
            branches.append((w, PureState(final, st.m_max, check=False)))
        return MixedState(branches, check=False, merge=True), []

    counts: list[float] = []
    for op in script:
        state, value = _step(state, op, rng)
        if value is not None:
            counts.append(value)
    return state, counts


def apply(
    state: MixedState, script: Script, rng: np.random.Generator | None = None
) -> MixedState:
    """Like :func:`execute` but discards measurement outcomes."""
    return execute(state, script, rng)[0]
