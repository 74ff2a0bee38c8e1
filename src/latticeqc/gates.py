"""Pointer-steered logical gates on formatted computers.

A formatted computer stores one qubit per register site, encoded in
which level the single atom occupies (|down> = level a, |up> = level b).
The home site holds one atom plus the pointer atom.  Gates move the
pointer with global shifts, so every computer on the lattice executes
the same logical operation in lockstep; every macro returns the pointer
home, so macros compose.

Conventions: qubit offsets are counted leftward from home (offset j is
site home - j), valid offsets are 1..n.  Gate matrices are written in
the (|down>, |up>) basis per qubit, first listed qubit most significant.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import product
from typing import Union

import numpy as np

from .lattice import BasisConfig, MixedState, _encode, classical
from .primitives import (
    ABRotation,
    Collide,
    CountP,
    EmptyP,
    PairTransfer,
    Script,
    Shift,
    WSwap,
    execute,
)

DOWN_SITE = (1, 0, 0)
UP_SITE = (0, 1, 0)
HOME_SITE = (1, 0, 1)
EMPTY_SITE = (0, 0, 0)

V_THETA = math.pi / 8
LEAK_TOL = 1e-6  # largest leakage out of the logical subspace a gate may have


class GateLeakageError(RuntimeError):
    """Amplitude escaped the logical subspace beyond tolerance."""


# Each macro declares its JSON ``head`` (its dataclass fields are the other
# keys), the register offsets it uses, ``qubits(n)``, and its pointer walk,
# ``steps(n)``: (offset, op) pairs that fire op with the pointer at that
# offset.  ``n`` only matters for MeasureQubit's rest.


@dataclass(frozen=True)
class PhaseGate:
    """diag(e^{i phi}, 1) on the qubit at offset q."""

    head = "phase"

    q: int
    phi: float

    def qubits(self, n: int) -> tuple[int, ...]:
        return (self.q,)

    def steps(self, n: int) -> tuple:
        return ((self.q, Collide(self.phi)),)


@dataclass(frozen=True)
class HadamardLike:
    """Unbiased single-qubit rotation at offset q; equals the Hadamard up
    to diagonal phase corrections on both sides."""

    head = "h"

    q: int

    def qubits(self, n: int) -> tuple[int, ...]:
        return (self.q,)

    def steps(self, n: int) -> tuple:
        ops = (ABRotation(V_THETA), Collide(math.pi), ABRotation(-V_THETA),
               Collide(math.pi / 2))
        return tuple((self.q, op) for op in ops)


@dataclass(frozen=True)
class ControlPhasePi:
    """Two-qubit entangling gate: a -1 phase on exactly one logical string."""

    head = "cz"

    q1: int
    q2: int

    def qubits(self, n: int) -> tuple[int, ...]:
        return (self.q1, self.q2)

    def steps(self, n: int) -> tuple:
        lift = PairTransfer(1, 1, 1)
        return ((self.q1, lift), (self.q2, Collide(math.pi)), (self.q1, lift))


@dataclass(frozen=True)
class MeasureQubit:
    """Projective measurement of the qubit at offset q.

    ``rest`` names a reserved spectator qubit (held in |down>) whose site
    shelters the pointer while the lattice-wide pointer count is read
    off; it must differ from q.  With ``count_up_too`` the protocol is
    repeated after a W swap to count former |up> qubits as well.
    """

    head = "measure"

    q: int
    rest: int | None = None
    count_up_too: bool = False

    def qubits(self, n: int) -> tuple[int, ...]:
        return (self.q, n if self.rest is None else self.rest)

    def steps(self, n: int) -> tuple:
        q, rest = self.qubits(n)
        count = (
            (q, PairTransfer(1, 1, -1)),
            (rest, PairTransfer(1, 1, 1)),
            (rest, PairTransfer(1, 2, 1)),
            (rest, CountP()),
            (rest, EmptyP()),
            (rest, PairTransfer(2, 0, -1)),
        )
        if not self.count_up_too:
            return count
        return count + ((q, WSwap()),) + count  # W turns each left |up> into |down>


_MACROS = (PhaseGate, HadamardLike, ControlPhasePi, MeasureQubit)
GateMacro = Union[_MACROS]


def _move(cur: int, tgt: int) -> list:
    return [] if cur == tgt else [Shift(cur - tgt)]


def compile_macro(macro: GateMacro, n: int) -> tuple[Script, int]:
    """Expand a macro into primitives and the pointer's end offset.

    The pointer walks from home through the macro's steps, one shift
    between offsets, and back home, so the end offset is always 0 and
    macros can be concatenated freely.
    """
    qubits = macro.qubits(n)
    for q in qubits:
        if not 1 <= q <= n:
            raise ValueError(f"qubit offset {q} outside register 1..{n}")
    if len(set(qubits)) < len(qubits):
        raise ValueError(f"{type(macro).__name__} needs distinct qubits, got {qubits}")
    ops, at = [], 0
    for offset, op in macro.steps(n):
        ops += _move(at, offset) + [op]
        at = offset
    return Script(ops + _move(at, 0)), 0


def computer_config(n: int, L: int | None = None, up_offsets=()) -> BasisConfig:
    """A lattice with one formatted computer in a logical basis state.

    The home is site n and qubit j sits at site n - j, so the register
    starts at site 0; offsets listed in ``up_offsets`` start in |up>, the
    rest in |down>.
    """
    if L is None:
        L = n + 2
    if L < n + 1:
        raise ValueError("lattice too small for the register")
    up = set(up_offsets)
    bad = [j for j in up if not 1 <= j <= n]
    if bad:
        raise ValueError(f"up offsets {bad} outside register 1..{n}")
    sites = [EMPTY_SITE] * L
    for j in range(1, n + 1):
        sites[n - j] = UP_SITE if j in up else DOWN_SITE
    sites[n] = HOME_SITE
    return BasisConfig.from_counts(sites)


def involved_qubits(macro: GateMacro, n: int) -> tuple[int, ...]:
    if any(op.kind in ("empty", "count") for _, op in macro.steps(n)):
        raise ValueError(f"{type(macro).__name__} has no unitary logical action")
    return macro.qubits(n)


def extract_logical_unitary(
    macro: GateMacro,
    n: int,
    qubits: tuple[int, ...] | None = None,
    L: int | None = None,
) -> tuple[np.ndarray, float]:
    """Simulate the macro on all logical basis inputs over ``qubits``.

    Returns the 2^k x 2^k matrix in the computational (|down>, |up>)
    ordering plus the worst-case leakage out of the logical subspace.
    Leakage above ``LEAK_TOL`` raises :class:`GateLeakageError`.
    """
    if qubits is None:
        qubits = involved_qubits(macro, n)
    k = len(qubits)
    script, _ = compile_macro(macro, n)
    basis_bits = list(product((0, 1), repeat=k))
    configs = [
        computer_config(n, L, up_offsets=[q for q, b in zip(qubits, bits) if b])
        for bits in basis_bits
    ]
    # the input whose code row an output row equals, if any
    index = {row.tobytes(): i for i, row in enumerate(_encode([c.sites for c in configs]))}
    U = np.zeros((2 ** k, 2 ** k), dtype=complex)
    leakage = 0.0
    for col, config in enumerate(configs):
        out, _ = execute(classical(config), script)
        if len(out.branches) != 1:
            raise GateLeakageError("gate macro produced a mixed state")
        _, st = out.branches[0]
        captured = 0.0
        for code, amp in zip(st.codes, st.amps.tolist()):
            row = index.get(code.tobytes())
            if row is not None:
                U[row, col] = amp
                captured += abs(amp) ** 2
        leakage = max(leakage, 1.0 - captured)
    if leakage > LEAK_TOL:
        raise GateLeakageError(f"leakage {leakage:.3e} exceeds {LEAK_TOL:.1e}")
    return U, leakage


def hadamard_phase_correction(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal phase vectors (d1, d2) with diag(d1) @ U @ diag(d2) = H.

    Solves the phase equations of an unbiased 2x2 unitary in closed form;
    unitarity guarantees the fourth equation is consistent.
    """
    theta = np.angle(U)
    a0 = -theta[0, 0]
    a1 = -theta[1, 0]
    b0 = 0.0
    b1 = theta[0, 0] - theta[0, 1]
    return np.exp(1j * np.array([a0, a1])), np.exp(1j * np.array([b0, b1]))


def measure_qubit(
    state: MixedState,
    macro: MeasureQubit,
    rng: np.random.Generator | None = None,
    *,
    n: int,
) -> tuple[int, int | None, MixedState]:
    """Measure one qubit on every computer of the lattice at once.

    Returns (down_count, up_count, state): the number of computers whose
    qubit collapsed to |down>, the |up> tally when ``count_up_too`` is
    set (else None), and the post-measurement state.  Measured sites end
    up emptied exactly where |down> was found; pointer and rest qubit
    survive on every computer.
    """
    state, counts = execute(state, compile_macro(macro, n)[0], rng)
    up = int(counts[1]) if macro.count_up_too else None
    return int(counts[0]), up, state


def run_circuit(
    state: MixedState,
    macros,
    n: int,
    rng: np.random.Generator | None = None,
    counts: list | None = None,
) -> MixedState:
    """Apply a macro sequence; measurement outcomes go to ``counts``."""
    for macro in macros:
        state, outcomes = execute(state, compile_macro(macro, n)[0], rng)
        if counts is not None:
            counts.extend(outcomes)
    return state


# ---------------------------------------------------------------------------
# serialization


# A macro is {"op": head, field: value, ...}; a field with a default may be
# left out.  Values must have the JSON type of the field's annotation.
_BY_HEAD = {cls.head: cls for cls in _MACROS}
_JSON_TYPES = {
    "int": (int,), "float": (float, int), "bool": (bool,), "int | None": (int, type(None))
}


def macros_to_json_obj(macros) -> list:
    out = []
    for m in macros:
        if type(m) not in _MACROS:
            raise TypeError(f"unknown macro {m!r}")
        out.append({"op": m.head, **asdict(m)})
    return out


def macro_from_fields(head: str, values: dict) -> GateMacro:
    """The macro named ``head``, its fields read from ``values``; a key
    that names no field is a ValueError."""
    cls = _BY_HEAD.get(head) if isinstance(head, str) else None
    if cls is None:
        raise ValueError(f"unknown macro op {head!r}")
    extra = sorted(set(values) - {f.name for f in fields(cls)})
    if extra:
        raise ValueError(f"macro {head!r} has no field {extra[0]!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in values:
            if f.default is MISSING:
                raise ValueError(f"macro {head!r} needs field {f.name!r}")
            continue
        v = values[f.name]
        if type(v) not in _JSON_TYPES[f.type]:
            raise ValueError(f"macro {head!r}: {f.name} must be {f.type}, got {v!r}")
        kwargs[f.name] = float(v) if f.type == "float" else v
    return cls(**kwargs)


def macros_from_json_obj(obj) -> list:
    macros = []
    for item in obj:
        if not isinstance(item, dict):
            raise ValueError(f"macro must be an object, got {item!r}")
        values = dict(item)
        macros.append(macro_from_fields(values.pop("op", None), values))
    return macros


def matrix_to_json_obj(U: np.ndarray) -> list:
    return [[{"re": z.real, "im": z.imag} for z in row] for row in np.asarray(U)]
