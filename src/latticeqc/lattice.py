"""Sparse second-quantized states on a periodic 1D lattice.

Every site carries three occupation numbers, one per internal level
(``a``, ``b`` and the pointer level ``p``).  A pure state is a sparse
complex superposition over classical occupation patterns.  Mixed states
are stored as weighted ensembles of pure states, which is exact here
because the only non-unitary elements (the emptying channels and the
pointer counter) decohere in the occupation basis.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple

import numpy as np

M_MAX = 6               # per-level occupation cutoff
NORM_TOL = 1e-10        # allowed drift of total probability
PRUNE_TOL = 1e-14       # amplitudes below this are dropped
BRANCH_MERGE_TOL = 1e-12


class OccupationOverflowError(ValueError):
    """An occupation count would exceed the cutoff M_MAX."""


class SiteOccupancy(NamedTuple):
    a: int
    b: int
    p: int


@dataclass(frozen=True, order=True)
class BasisConfig:
    """One classical occupation pattern, usable as a dictionary key.

    Equality and ordering are exact and component-wise; the ordering is
    what makes iteration over sparse maps reproducible.
    """

    sites: tuple[SiteOccupancy, ...]

    def __post_init__(self):
        if len(self.sites) < 1:
            raise ValueError("lattice needs at least one site")
        for s in self.sites:
            if min(s) < 0:
                raise ValueError(f"negative occupation in {s}")

    @classmethod
    def from_counts(cls, counts: Iterable[Iterable[int]]) -> "BasisConfig":
        return cls(tuple(SiteOccupancy(int(a), int(b), int(p)) for a, b, p in counts))

    @property
    def L(self) -> int:
        return len(self.sites)

    def to_json_obj(self) -> list:
        return [[s.a, s.b, s.p] for s in self.sites]

    @classmethod
    def from_json_obj(cls, obj) -> "BasisConfig":
        return cls.from_counts(check_sites(obj))


def check_sites(sites, a_only: bool = False) -> list:
    """A JSON list of sites, checked: it is not empty and every site is a
    list of three integers; with ``a_only`` (format's input)
    every site reads [a, 0, 0]."""
    if not isinstance(sites, list):
        raise ValueError(f"a lattice is a list of sites, got {type(sites).__name__}")
    # the whole list at C speed first; the walk below only names the bad site
    if (set(map(type, sites)) == {list} and set(map(len, sites)) == {3}
            and set(map(type, chain.from_iterable(sites))) == {int}
            and not (a_only and any(map(any, map(itemgetter(1, 2), sites))))):
        return sites
    rule = ("format takes sites [a, 0, 0] with every atom in level a" if a_only
            else "a site is a list [a, b, p] of three integers")
    for k, site in enumerate(sites):
        ok = isinstance(site, list) and len(site) == 3 and all(type(x) is int for x in site)
        if not ok or (a_only and (site[1] or site[2])):
            raise ValueError(f"lattice site {k} is {json.dumps(site)}; {rule}")
    if not sites:
        raise ValueError("lattice needs at least one site")
    return sites


_R = M_MAX + 1
# Row c holds the occupations (a, b, p) of site code c.
_SITE_TABLE = np.indices((_R, _R, _R)).reshape(3, -1).T.copy()
_SITE_TABLE.setflags(write=False)
_SITE_OBJECTS = tuple(SiteOccupancy(*s) for s in _SITE_TABLE.tolist())


def _encode(occ) -> np.ndarray:
    """Site codes a*R**2 + b*R + p, R = M_MAX + 1, of (..., 3) occupations,
    as uint16; rows of codes sort like the configurations they encode."""
    occ = np.asarray(occ, dtype=np.int64)
    if occ.shape[-1:] != (3,):
        raise ValueError(f"expected trailing axis of size 3, got {occ.shape}")
    if occ.size and occ.max() > M_MAX:
        raise OccupationOverflowError(f"occupation exceeds cutoff {M_MAX}")
    if occ.size and occ.min() < 0:
        raise ValueError("negative occupation")
    return (occ @ np.array([_R * _R, _R, 1])).astype(np.uint16)


def _lexsorted(codes: np.ndarray, amps: np.ndarray) -> tuple:
    """Rows of codes in lexicographic order, with their amplitudes."""
    order = np.lexsort(codes.T[::-1])
    return codes[order], amps[order]


class PureState:
    """Normalized sparse superposition.  Treat instances as immutable.

    Term t is row t of ``codes``, the site codes of one configuration
    (see :func:`_encode`), with amplitude ``amps[t]``.  Rows are distinct
    and in lexicographic order, which is the order of their
    configurations, so every iteration over them, and everything derived
    from such iterations, is bit-reproducible.  ``terms`` is the same
    state as a read-only ``{BasisConfig: complex}`` map.
    """

    __slots__ = ("codes", "amps", "_terms")

    def __init__(self, terms: dict):
        cleaned: dict[BasisConfig, complex] = {}
        for config in sorted(terms):
            amp = complex(terms[config])
            if abs(amp) >= PRUNE_TOL:
                cleaned[config] = amp
        if not cleaned:
            raise ValueError("state has no support")
        if len({config.L for config in cleaned}) > 1:
            raise ValueError("terms live on different lattice sizes")
        # raises OccupationOverflowError above the cutoff
        self.codes = _encode([config.sites for config in cleaned])
        self.amps = np.array(list(cleaned.values()), dtype=complex)
        self._terms = MappingProxyType(cleaned)
        nsq = self.norm_sq()
        if abs(nsq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {nsq!r} drifted from 1")

    @classmethod
    def _from_codes(cls, codes: np.ndarray, amps: np.ndarray) -> "PureState":
        """A state from distinct code rows in lexicographic order (see
        :func:`_lexsorted`), dropping amplitudes below PRUNE_TOL."""
        keep = np.hypot(amps.real, amps.imag) >= PRUNE_TOL
        if not keep.all():
            codes, amps = codes[keep], amps[keep]
        if not amps.size:
            raise ValueError("state has no support")
        st = cls.__new__(cls)
        st.codes, st.amps, st._terms = codes, amps, None
        return st

    @property
    def terms(self) -> MappingProxyType:
        if self._terms is None:
            configs = (BasisConfig(tuple(map(_SITE_OBJECTS.__getitem__, row)))
                       for row in self.codes.tolist())
            self._terms = MappingProxyType(dict(zip(configs, self.amps.tolist())))
        return self._terms

    @property
    def L(self) -> int:
        return self.codes.shape[1]

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amps.tolist())

    def amplitude(self, config: BasisConfig) -> complex:
        return self.terms.get(config, 0.0 + 0.0j)

    def inner(self, other: "PureState") -> complex:
        if len(self.amps) > len(other.amps):
            return other.inner(self).conjugate()
        return sum(a.conjugate() * other.terms.get(c, 0.0) for c, a in self.terms.items())

    def is_classical(self) -> bool:
        return len(self.amps) == 1

    def translate(self, d: int) -> "PureState":
        return PureState._from_codes(*_lexsorted(np.roll(self.codes, d, axis=1), self.amps))

    def __iter__(self) -> Iterator[tuple[BasisConfig, complex]]:
        return iter(self.terms.items())

    def __repr__(self):
        return f"PureState({len(self.amps)} terms, L={self.L})"


def _branch_signature(state: PureState) -> bytes:
    # Big-endian bytes compare like the rows of codes, hence like the
    # tuple of the state's configurations.
    return state.codes.astype(">u4").tobytes()


def _close(x: np.ndarray, y: np.ndarray) -> bool:
    d = x - y
    return bool((np.hypot(d.real, d.imag) <= BRANCH_MERGE_TOL).all())


def _merge_branches(branches: list[tuple[float, PureState]]) -> list[tuple[float, PureState]]:
    # Branches whose term sets agree (amplitudes within BRANCH_MERGE_TOL)
    # describe the same pure state and are combined by summing weights.
    # Each branch is compared only with merged branches of its signature,
    # in merge order.
    merged: list[tuple[float, PureState]] = []
    by_sig: dict[bytes, list[int]] = {}
    for w, st in branches:
        slots = by_sig.setdefault(_branch_signature(st), [])
        for i in slots:
            w0, st0 = merged[i]
            if _close(st.amps, st0.amps):
                merged[i] = (w0 + w, st0)
                break
        else:
            slots.append(len(merged))
            merged.append((w, st))
    return merged


class MixedState:
    """Weighted ensemble of pure states (a classical mixture)."""

    __slots__ = ("branches",)

    def __init__(self, branches: Iterable[tuple[float, PureState]]):
        kept = [(float(w), st) for w, st in branches if float(w) > 1e-15]
        if not kept:
            raise ValueError("mixture has no branches")
        if len(kept) > 1:
            kept.sort(key=lambda ws: (_branch_signature(ws[1]), ws[0]))
            kept = _merge_branches(kept)
        self.branches = tuple(kept)
        if any(st.L != self.L for _, st in kept):
            raise ValueError("branches disagree on lattice size")
        total = sum(w for w, _ in kept)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"branch weights sum to {total!r}, expected 1")

    @property
    def L(self) -> int:
        return self.branches[0][1].L

    def is_classical(self) -> bool:
        """True when every branch is a single classical configuration."""
        return all(st.is_classical() for _, st in self.branches)

    def sole_config(self) -> BasisConfig:
        """The configuration of a one-branch, one-term state."""
        if len(self.branches) != 1 or not self.branches[0][1].is_classical():
            raise ValueError("state is not a single classical configuration")
        return next(iter(self.branches[0][1].terms))

    def translate(self, d: int) -> "MixedState":
        return MixedState([(w, st.translate(d)) for w, st in self.branches])

    def to_json_obj(self) -> dict:
        return {
            "branches": [
                {
                    "weight": w,
                    "terms": [
                        {"config": c.to_json_obj(), "re": a.real, "im": a.imag}
                        for c, a in st
                    ],
                }
                for w, st in self.branches
            ]
        }

    @classmethod
    def from_json_obj(cls, obj) -> "MixedState":
        """The inverse of :meth:`to_json_obj`; malformed input is a ValueError."""
        branches = []
        try:
            for i, b in enumerate(obj["branches"]):
                terms = {
                    BasisConfig.from_json_obj(t["config"]): complex(
                        _real(t["re"], f"branch {i} term {j} re"),
                        _real(t["im"], f"branch {i} term {j} im"))
                    for j, t in enumerate(b["terms"])
                }
                if len(terms) != len(b["terms"]):
                    raise ValueError("a branch lists one configuration twice")
                w = _real(b["weight"], f"branch {i} weight")
                if w < 0:  # MixedState would drop it without a word
                    raise ValueError(f"branch {i} weight is {w!r}; expected 0 or more")
                branches.append((w, PureState(terms)))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed state: {exc!r}") from exc
        return cls(branches)

    def __repr__(self):
        return f"MixedState({len(self.branches)} branches, L={self.L})"


def _real(x, where: str) -> float:
    # NaN would slip past PureState's pruning and MixedState's weight test
    if type(x) is int or (type(x) is float and math.isfinite(x)):
        return x
    raise ValueError(f"{where} is {json.dumps(x)}; expected a finite number")


def classical(config: BasisConfig | Iterable) -> MixedState:
    """Wrap one classical configuration as a weight-1 single-term state."""
    if not isinstance(config, BasisConfig):
        config = BasisConfig.from_counts(config)
    return MixedState([(1.0, PureState({config: 1.0 + 0.0j}))])


def fidelity(x: MixedState, y: MixedState, mode: str = "paired") -> float:
    """Overlap between two states.

    ``paired`` pairs branches positionally (requires matching branch
    counts and weights) and returns sum_b w_b |<x_b|y_b>|^2; for pure
    states this is the usual |<x|y>|^2.  ``strict`` returns 1.0 only if
    the two ensembles are identical term by term, else 0.0.
    """
    if x.L != y.L:
        raise ValueError(f"lattice size mismatch: {x.L} vs {y.L}")
    if mode == "paired":
        if len(x.branches) != len(y.branches):
            raise ValueError("branch counts differ; no positional pairing exists")
        total = 0.0
        for (wx, sx), (wy, sy) in zip(x.branches, y.branches):
            if abs(wx - wy) > NORM_TOL:
                raise ValueError("paired branches carry different weights")
            total += wx * abs(sx.inner(sy)) ** 2
        return total
    if mode == "strict":
        if len(x.branches) != len(y.branches):
            return 0.0
        for (wx, sx), (wy, sy) in zip(x.branches, y.branches):
            if abs(wx - wy) > BRANCH_MERGE_TOL:
                return 0.0
            if _branch_signature(sx) != _branch_signature(sy) or not _close(sx.amps, sy.amps):
                return 0.0
        return 1.0
    raise ValueError(f"unknown fidelity mode {mode!r}")
