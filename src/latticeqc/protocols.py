"""Composite lattice protocols: depopulation, formatting, repair.

``format_script`` turns a depopulated random lattice into disjoint
"computers": a register of n single-atom qubit sites directly left of a
home site that holds one atom plus one pointer atom.  A computer is named
by its home k alone, since its register is the sites k-n .. k-1 (mod L),
so the computers of a lattice are a sorted int64 array of homes.  Which
computers survive is predicted from the raw counts by ``oracle_homes``;
the two routes are checked against each other exhaustively in the tests.

``repair_round_script`` implements donor-assisted defect filling: a
four-atom site lends an atom pair through the pointer level, a shifted
deposit fills an empty (or single) site, and the leftover atom is thrown
away, so every corrected defect costs exactly one atom.
"""
from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .lattice import M_MAX, _R, _SITE_TABLE, _encode, _integers, _past_int64
from .primitives import (
    DefectSplit,
    EmptyB,
    EmptyP,
    PairTransfer,
    Script,
    Shift,
    _roll_into,
    _run,
)


class StrayAtomsError(ValueError):
    """A formatted lattice holds occupied sites outside any computer."""

    def __init__(self, sites):
        self.sites = tuple(sites)
        super().__init__(f"stray atoms at sites {self.sites}")


def depopulate_script(cutoff: int, target: int = 2) -> Script:
    """Reduce every occupation in (target, cutoff] down to exactly target.

    Each step parks the surplus of an x-atom site in the pointer level
    and discards it; sites at or below the target are never touched.
    """
    if target not in (2, 4):
        raise ValueError("depopulation target must be 2 or 4")
    if cutoff < target:
        raise ValueError("cutoff must be >= target")
    ops = []
    for x in range(target + 1, cutoff + 1):
        ops.append(PairTransfer(x, 0, target - x))
        ops.append(EmptyP())
    return Script(ops)


def format_script(n: int) -> Script:
    """Self-organize a depopulated lattice into computers with n qubits.

    Single-atom sites promote their atom to a pointer; each pointer then
    walks n steps left, surviving an emptying round per step only while
    it sits on a two-atom site.  Survivors convert their inspected window
    into single-atom qubit sites on the way back and finish as one atom
    plus one pointer on the original (home) site.  Everything else is
    emptied along the way.
    """
    if n < 1:
        raise ValueError("computers need at least one qubit site")
    ops = [PairTransfer(1, 0, -1)]
    walk_left = [Shift(-1), PairTransfer(2, 1, 1), EmptyP(), PairTransfer(2, 1, 1)]
    ops += walk_left * n
    ops.append(PairTransfer(2, 1, -1))
    walk_right = [Shift(1), PairTransfer(2, 2, 1), EmptyP(), PairTransfer(3, 0, -2)]
    ops += walk_right * (n - 1)
    ops += [Shift(1), PairTransfer(2, 0, -2), EmptyP(), PairTransfer(2, 0, -1)]
    return Script(ops)


def prepare_script(n: int) -> Script:
    """Depopulate every count from M_MAX down to two atoms, then format.
    The depopulation ops fuse into the table before format's first shift,
    so they cost nothing at run time."""
    return depopulate_script(M_MAX, 2) + format_script(n)


def _counts(a) -> np.ndarray:
    """Raw a-counts of any shape, checked: integers, none negative, all within int64."""
    a = _integers(a)
    if a.min(initial=0) < 0:
        raise ValueError("negative occupation")
    if a.dtype == object:
        raise _past_int64(a)
    return a


def _ring(a) -> np.ndarray:
    """The raw a-counts of one ring: 1-d, and checked as :func:`_counts`."""
    a = _integers(a)
    if a.ndim != 1:
        raise ValueError(f"expected shape (L,), got {a.shape}")
    return _counts(a)


def _format_codes(a: np.ndarray, n: int) -> np.ndarray:
    """The site codes :func:`prepare_script` leaves on the raw a-counts of one
    ring (a batch is refused).  A count above M_MAX runs as M_MAX, which is
    exact: depopulation ends every count above two at two."""
    a = _ring(a)
    codes = np.empty(a.shape, dtype=np.uint16)
    np.minimum(a, M_MAX, out=codes, casting="unsafe")
    codes *= np.uint16(_R * _R)  # the code of site (a, 0, 0)
    return _run(codes, prepare_script(n))


def format_counts(a: np.ndarray, n: int) -> np.ndarray:
    """Run :func:`prepare_script` on the raw a-counts of one ring; returns
    the final (L, 3) occupations (see :func:`_format_codes`)."""
    return np.take(_SITE_TABLE, _format_codes(a, n), axis=0)


def _left_window(site: np.ndarray, left: np.ndarray, n: int) -> np.ndarray:
    """The sites of mask ``site`` whose n left neighbours, cyclically along
    the last axis, all lie in mask ``left``; narrows ``site`` in place."""
    for j in range(1, min(n, site.shape[-1]) + 1):  # offsets past L repeat
        _roll_into(np.bitwise_and, site, left, j)
    return site


def oracle_homes(a: np.ndarray, n: int) -> np.ndarray:
    """Boolean home mask for raw a-counts, batched over leading axes.

    Site k becomes a home iff a_k == 1 and the n sites to its left all
    hold two atoms or more (cyclically); depopulation leaves those at two.
    """
    a = np.asarray(a)
    return _left_window(a == 1, a >= 2, n)


def oracle_computers(a: np.ndarray, n: int) -> np.ndarray:
    """Homes of the computers :func:`format_counts` leaves on the raw
    a-counts of one ring, which both check alike (a batch is refused)."""
    return np.flatnonzero(oracle_homes(_ring(a), n))


# Site codes of a register qubit (1,0,0) and of a home (1,0,1).
_QUBIT, _HOME = _encode([(1, 0, 0), (1, 0, 1)])


def verify_formatted(occ: np.ndarray, n: int) -> np.ndarray:
    """Homes of the computers of a formatted (L, 3) occupation array
    (see :func:`_homes`); a count outside 0..M_MAX is ``_encode``'s error."""
    occ = _integers(occ)
    if occ.ndim != 2 or occ.shape[1] != 3:
        raise ValueError(f"expected shape (L, 3), got {occ.shape}")
    return _homes(_encode(occ), n)


def _homes(codes: np.ndarray, n: int) -> np.ndarray:
    """Homes of the computers of the formatted site codes of one ring.

    A home is a site (1,0,1) whose n left neighbours (cyclically) all hold
    (1,0,0), so no two computers share a site, and with n >= L there is
    none.  An occupied site outside every computer raises
    :class:`StrayAtomsError`.
    """
    homes = _left_window(codes == _HOME, codes == _QUBIT, n)
    cover = homes.copy()
    for j in range(1, min(n, homes.size) + 1):
        _roll_into(np.bitwise_or, cover, homes, -j)
    strays = np.flatnonzero((codes != 0) & ~cover)
    if strays.size:
        raise StrayAtomsError(strays.tolist())
    return np.flatnonzero(homes)


# ---------------------------------------------------------------------------
# repair


def repair_round_script(x: int, phase: str) -> Script:
    """One repair round at shift x.

    A donor (four-atom site) promotes an atom pair to the pointer level;
    the pair rides the shift x sites to the right, one atom is deposited
    if the site there is a matching defect (empty for ``fill_empty``, one
    atom for ``fill_single``), and after the return shift the donor is
    restored whenever nothing was deposited.  The emptying step discards
    the leftover atom of a spent pair.
    """
    if phase == "fill_empty":
        deposit = PairTransfer(0, 2, 1)
    elif phase == "fill_single":
        deposit = PairTransfer(1, 2, 1)
    else:
        raise ValueError(f"unknown repair phase {phase!r}")
    return Script(
        [
            PairTransfer(4, 0, -2),
            Shift(x),
            deposit,
            Shift(-x),
            PairTransfer(4, 0, -2),
            EmptyP(),
        ]
    )


@dataclass
class RepairReport:
    defects_fixed: int
    atoms_lost: int
    rounds: int
    residual_empty: int
    residual_single: int

    to_json_obj = asdict


def repair_occupations(a: np.ndarray) -> tuple[np.ndarray, RepairReport]:
    """Run repair rounds directly on a-level counts (b and p empty); returns
    an int64 copy repaired by :func:`_repair` and its report.  The ring is
    checked as :func:`format_counts` checks it, and at most 4."""
    a = _ring(a)
    if a.max(initial=0) > 4:
        raise ValueError("repair expects counts depopulated to <= 4")
    a = a.astype(np.int64)  # a copy: the caller's array stays as it is
    return a, _repair(a)


def _repair(a: np.ndarray) -> RepairReport:
    """Repair the counts 0..4 of a ring the caller owns, in place.

    Equivalent to repeatedly applying :func:`repair_round_script`, whose
    sweep (x = 1 .. L-1 per phase) pairs donors with defects as nested
    brackets pair on the ring: no unspent donor or defect lies between a
    pair, or it would have paired at a shorter shift.  Each phase finds
    its pairs with one stable sort and counts its longest shift as rounds.
    """
    L = a.size
    fixed = executed = 0
    for defect_val in (0, 1):
        donor = a == 4
        pos = np.flatnonzero((a == defect_val) | donor)
        if not pos.size:
            continue
        steps = 2 * donor[pos].view(np.int8) - 1
        # In ring order from just after the lowest running total, a level's
        # events (a donor's total before it, a defect's after it) alternate
        # and open with a donor or close with a defect, so in a stable sort
        # by level every donor directly before a defect is a pair.
        start = int(np.argmin(np.cumsum(steps, dtype=np.int32))) + 1
        pos, steps = np.roll(pos, -start), np.roll(steps, -start)
        level = np.cumsum(steps, dtype=np.int32) - (steps > 0)
        order = np.argsort(level, kind="stable")
        pair = np.flatnonzero(np.diff(steps[order]) < 0)
        src, dst = pos[order[pair]], pos[order[pair + 1]]
        a[dst] += 1
        a[src] = 2
        fixed += src.size
        executed += int(((dst - src) % L).max(initial=0))

    report = RepairReport(
        defects_fixed=fixed,
        atoms_lost=fixed,
        rounds=executed,
        residual_empty=int((a == 0).sum()),
        residual_single=int((a == 1).sum()),
    )
    if report.residual_empty or report.residual_single:
        warnings.warn(
            f"insufficient donors: {report.residual_empty} empty and "
            f"{report.residual_single} single-atom sites remain",
            RuntimeWarning,
        )
    return report


# ---------------------------------------------------------------------------
# controlled defect creation


def create_defects_script(eps: float) -> Script:
    """Depopulate to two atoms, then split each pair site into a
    two-atom/one-atom superposition and trace out level b, leaving an
    independent one-atom defect with probability eps per site."""
    return depopulate_script(4, 2) + Script([DefectSplit(eps), EmptyB()])


def sample_defect_creation(
    a: np.ndarray, eps: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw one classical branch of the defect-creation channel on raw
    a-counts; returns an int64 copy (see :func:`_create_defects`)."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"defect rate eps must lie in [0, 1], got {float(eps)!r}")
    a2 = _counts(a).astype(np.int64)
    _create_defects(a2, eps, rng)
    return a2


def _create_defects(a: np.ndarray, eps: float, rng: np.random.Generator) -> None:
    """Depopulate counts the caller owns to two, in place, and turn each
    two-atom site into a one-atom defect iff its uniform is below eps."""
    np.minimum(a, 2, out=a)
    a -= (a == 2) & (rng.random(a.shape) < eps)
