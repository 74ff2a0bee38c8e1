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
from typing import Iterable, NamedTuple

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
        return cls(tuple(SiteOccupancy(a, b, p) for a, b, p in _integers(counts).tolist()))

    @property
    def L(self) -> int:
        return len(self.sites)


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


def read_sites(path: str, a_only: bool = False) -> np.ndarray:
    """The (L, 3) int64 sites of a lattice file, checked as by
    :func:`check_sites`; with ``a_only`` the a column of sites [a, 0, 0].
    A count past int64 is refused.

    A file of one-digit counts, ``[[d,d,d],...]`` with any JSON
    whitespace, is read as bytes; every other file goes through
    ``json.load`` and :func:`check_sites` and raises what they raise."""
    with open(path, "rb") as fh:
        digits = _one_digit_sites(fh.read().translate(None, b" \t\n\r"))
    if digits is None or (a_only and digits[:, 1:].any()):
        with open(path) as fh:
            sites = check_sites(json.load(fh), a_only)
        rows = [s[0] for s in sites] if a_only else sites
        try:
            return np.array(rows, dtype=np.int64)
        except OverflowError:
            raise _past_int64(np.array(rows, dtype=object)) from None
    return (digits[:, 0] if a_only else digits).astype(np.int64)


_ROW_PUNCTUATION = np.frombuffer(b"[,,]", dtype=np.uint8)


def _one_digit_sites(text: bytes) -> np.ndarray | None:
    """The (L, 3) uint8 counts of a text that is exactly ``[`` plus L >= 1
    rows ``[d,d,d]`` joined by commas plus ``]``, d one ASCII digit;
    None for any other text.  Whitespace inside a count of the original
    file leaves two digits side by side here, so it is refused too."""
    L, rest = divmod(len(text) - 1, 8)
    if L < 1 or rest or text[0] != ord("["):
        return None
    rows = np.frombuffer(text, dtype=np.uint8, offset=1).reshape(L, 8)
    # columns 0, 2, 4, 6 read "[,,]"; column 7 is "," and "]" on the last row
    if not ((rows[:, ::2] == _ROW_PUNCTUATION).all()
            and (rows[:-1, 7] == ord(",")).all() and rows[-1, 7] == ord("]")):
        return None
    digits = rows[:, 1:6:2] - np.uint8(ord("0"))  # a byte below "0" wraps past 9
    return digits if (digits <= 9).all() else None


_R = M_MAX + 1
# Row c holds the occupations (a, b, p) of site code c.
_SITE_TABLE = np.indices((_R, _R, _R)).reshape(3, -1).T.copy()
_SITE_TABLE.setflags(write=False)
_SITE_OBJECTS = tuple(SiteOccupancy(*s) for s in _SITE_TABLE.tolist())


def _integers(x) -> np.ndarray:
    """An integer array as it is; other counts as int64 if every value is a
    finite integer, or as an object array of them if some integer is past
    int64 (numpy reads a list of such Python ints as float or object), and
    so is a uint64 array that holds one."""
    arr = np.asarray(x)
    if arr.dtype.kind in "iu":
        if arr.dtype == np.uint64 and arr.max(initial=0) > np.iinfo(np.int64).max:
            return arr.astype(object)
        return arr
    try:
        with np.errstate(invalid="ignore"):  # NaN and inf fail the compare instead
            ints = arr.astype(np.int64)
        if (ints == arr).all():
            return ints
    except OverflowError:
        pass
    big = np.array(x, dtype=object)
    if not all(isinstance(v, (int, np.integer)) for v in big.flat):
        raise ValueError("expected integer counts")
    return big


def _past_int64(counts: np.ndarray) -> ValueError:
    """The error for integer counts of which one is past int64."""
    return ValueError(f"count {max(counts.flat, key=abs)} is too large for int64")


def _encode(occ) -> np.ndarray:
    """Site codes a*R**2 + b*R + p, R = M_MAX + 1, of (..., 3) occupations,
    as uint16; rows of codes sort like the configurations they encode.
    Counts are checked in their own integer dtype (see :func:`_integers`)."""
    occ = _integers(occ)
    if occ.shape[-1:] != (3,):
        raise ValueError(f"expected trailing axis of size 3, got {occ.shape}")
    if occ.size and occ.min() < 0:
        raise ValueError("negative occupation")
    if occ.dtype == object:
        raise _past_int64(occ)
    if occ.size and occ.max() > M_MAX:
        raise OccupationOverflowError(f"occupation exceeds cutoff {M_MAX}")
    a, b, p = (occ[..., k].astype(np.uint16) for k in range(3))
    return a * np.uint16(_R * _R) + b * np.uint16(_R) + p


# re*re + im*im lies within a few ulps of |z|^2 and hypot within one ulp
# of |z|, so outside PRUNE_TOL**2 widened by a relative 2e-12 the square
# decides as hypot does; below _HYPOT_ALL items hypot alone is quicker.
_SQUARE_LO, _SQUARE_HI = (PRUNE_TOL * (1 - 1e-12)) ** 2, (PRUNE_TOL * (1 + 1e-12)) ** 2
_HYPOT_ALL = 512


def _live(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """np.hypot(re, im) >= PRUNE_TOL on finite parts, computing hypot only
    for the items whose squared modulus lies near PRUNE_TOL**2."""
    if re.size < _HYPOT_ALL:
        return np.hypot(re, im) >= PRUNE_TOL
    square = re * re
    square += im * im
    live = square >= _SQUARE_HI
    near = np.flatnonzero(live != (square >= _SQUARE_LO))
    live[near] = np.hypot(re[near], im[near]) >= PRUNE_TOL
    return live


def _lexsorted(codes: np.ndarray, amps: np.ndarray) -> tuple:
    """Rows of codes in lexicographic order, with their amplitudes; one row as it is."""
    if len(codes) < 2:
        return codes, amps
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
        """The state of a ``{BasisConfig: complex}`` map, built by :func:`_pure`."""
        st = _pure([config.sites for config in terms], terms.values())
        self.codes, self.amps, self._terms = st.codes, st.amps, None

    @classmethod
    def _from_codes(cls, codes: np.ndarray, amps: np.ndarray) -> "PureState":
        """A state from distinct code rows in lexicographic order (see
        :func:`_lexsorted`), dropping amplitudes below PRUNE_TOL."""
        keep = _live(amps.real, amps.imag)
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

    def is_classical(self) -> bool:
        return len(self.amps) == 1

    def __repr__(self):
        return f"PureState({len(self.amps)} terms, L={self.L})"


def _branch_signature(state: PureState) -> bytes:
    # Big-endian bytes compare like the rows of codes, hence like the
    # tuple of the state's configurations.
    return state.codes.astype(">u4").tobytes()


def _branch_order(branch: tuple[float, PureState]) -> tuple:
    return _branch_signature(branch[1]), branch[0]


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
            merged = _merge_branches(sorted(kept, key=_branch_order))
            # a summed weight can move its branch out of order
            kept = merged if len(merged) == len(kept) else sorted(merged, key=_branch_order)
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

    def to_json_obj(self) -> dict:
        """The report form of the state: a term's ``config`` is its (L, 3)
        int array of sites, which the CLI's report writer renders as a list."""
        return {
            "branches": [
                {
                    "weight": w,
                    "terms": [
                        {"config": c, "re": a.real, "im": a.imag}
                        for c, a in zip(_SITE_TABLE.take(st.codes, axis=0), st.amps.tolist())
                    ],
                }
                for w, st in self.branches
            ]
        }

    @classmethod
    def from_json_obj(cls, obj) -> "MixedState":
        """The state that the parsed JSON text of :meth:`to_json_obj`
        describes; malformed input, an unknown key included, is a
        ValueError.  Every term is checked, pruned or not."""
        branches = []
        try:
            for i, b in enumerate(_fields(obj, "state", "branches")[0]):
                terms, w = _fields(b, f"branch {i}", "terms", "weight")
                sites, amps = [], []
                for j, t in enumerate(terms):
                    where = f"branch {i} term {j}"
                    config, re, im = _fields(t, where, "config", "re", "im")
                    sites.append(check_sites(config))
                    if min(chain.from_iterable(config)) < 0:
                        BasisConfig.from_counts(config)  # raises, naming the site
                    amps.append(complex(_real(re, f"{where} re"), _real(im, f"{where} im")))
                if len(sites) > 1 and len({tuple(map(tuple, c)) for c in sites}) < len(sites):
                    raise ValueError("a branch lists one configuration twice")
                w = _real(w, f"branch {i} weight")
                if w < 0:  # MixedState would drop it without a word
                    raise ValueError(f"branch {i} weight is {w!r}; expected 0 or more")
                branches.append((w, _pure(sites, amps)))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed state: {exc!r}") from exc
        return cls(branches)

    def __repr__(self):
        return f"MixedState({len(self.branches)} branches, L={self.L})"


def _fields(obj, where: str, *keys) -> list:
    """The values at ``keys`` of a JSON object that has no other key."""
    extra = sorted(obj.keys() - set(keys)) if isinstance(obj, dict) else ()
    if extra:
        raise ValueError(f"{where} has no field {extra[0]!r}")
    return [obj[key] for key in keys]


def _real(x, where: str) -> float:
    # NaN would slip past PureState's pruning and MixedState's weight test
    if type(x) is int or (type(x) is float and math.isfinite(x)):
        return x
    raise ValueError(f"{where} is {json.dumps(x)}; expected a finite number")


def _pure(sites: list, amps: Iterable) -> PureState:
    """Amplitude ``amps[t]`` on configuration ``sites[t]`` of L sites (a, b, p):
    terms below PRUNE_TOL are dropped, the rest encoded, sorted and checked for norm."""
    kept = [(c, a) for c, a in zip(sites, map(complex, amps)) if abs(a) >= PRUNE_TOL]
    if not kept:
        raise ValueError("state has no support")
    sites, amps = zip(*kept)
    if len(set(map(len, sites))) > 1:
        raise ValueError("terms live on different lattice sizes")
    try:
        codes = _encode(sites)
    except (TypeError, ValueError, OverflowError):
        codes = None
    if codes is None or codes.ndim != 2:
        # BasisConfig names a negative or empty site before a count above M_MAX
        codes = _encode([BasisConfig.from_counts(config).sites for config in sites])
    st = PureState._from_codes(*_lexsorted(codes, np.array(amps)))
    nsq = st.norm_sq()
    if abs(nsq - 1.0) > NORM_TOL:
        raise ValueError(f"state norm^2 = {nsq!r} drifted from 1")
    return st


def classical(config: BasisConfig | Iterable) -> MixedState:
    """Wrap one classical configuration, a BasisConfig or L sites
    (a, b, p), as a weight-1 single-term state."""
    sites = config.sites if isinstance(config, BasisConfig) else config
    return MixedState([(1.0, _pure([sites], [1.0]))])
