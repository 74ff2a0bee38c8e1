import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from latticeqc import (
    ABRotation,
    BasisConfig,
    Collide,
    ControlPhasePi,
    CountP,
    EmptyP,
    GateLeakageError,
    HadamardLike,
    MeasureQubit,
    MixedState,
    PairTransfer,
    PhaseGate,
    PureState,
    Script,
    Shift,
    WSwap,
    classical,
    compile_macro,
    computer_config,
    execute,
    extract_logical_unitary,
    hadamard_phase_correction,
    involved_qubits,
    macros_from_json_obj,
    macros_to_json_obj,
    matrix_to_json_obj,
    measure_qubit,
    run_circuit,
)

from helpers import amplitude, fidelity, sole_config

SX = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def qubit_phase(phi):
    # pointer parked on a qubit site: |down>=(1,0,p) collects the phase
    return np.diag([np.exp(1j * phi), 1.0])


def oracle_hadamard():
    V = scipy.linalg.expm(-1j * math.pi / 8 * SX)
    return qubit_phase(math.pi / 2) @ V.conj().T @ qubit_phase(math.pi) @ V


def two_computers(up_a=(), up_b=()):
    # n=2, L=10: computer A has qubits (0,1), home 2; B has (6,7), home 8
    sites = [(0, 0, 0)] * 10
    for home, ups in ((2, up_a), (8, up_b)):
        sites[home] = (1, 0, 1)
        for j in (1, 2):
            sites[(home - j) % 10] = (0, 1, 0) if j in ups else (1, 0, 0)
    return classical(BasisConfig.from_counts(sites))


# -- macro expansion ---------------------------------------------------------


def test_compile_phase_gate():
    script, end = compile_macro(PhaseGate(2, 0.5), n=3)
    assert script == (Shift(-2), Collide(0.5), Shift(2))
    assert end == 0


def test_compile_hadamard():
    script, _ = compile_macro(HadamardLike(1), n=3)
    assert script == (
        Shift(-1),
        ABRotation(math.pi / 8),
        Collide(math.pi),
        ABRotation(-math.pi / 8),
        Collide(math.pi / 2),
        Shift(1),
    )


def test_compile_control_phase():
    script, _ = compile_macro(ControlPhasePi(1, 3), n=3)
    assert script == (
        Shift(-1),
        PairTransfer(1, 1, 1),
        Shift(-2),
        Collide(math.pi),
        Shift(2),
        PairTransfer(1, 1, 1),
        Shift(1),
    )


def test_compile_measure():
    script, _ = compile_macro(MeasureQubit(1, rest=3), n=3)
    assert script == (
        Shift(-1),
        PairTransfer(1, 1, -1),
        Shift(-2),
        PairTransfer(1, 1, 1),
        PairTransfer(1, 2, 1),
        CountP(),
        EmptyP(),
        PairTransfer(2, 0, -1),
        Shift(3),
    )


def test_compile_offset_validation():
    with pytest.raises(ValueError):
        compile_macro(PhaseGate(0, 1.0), n=3)
    with pytest.raises(ValueError):
        compile_macro(PhaseGate(4, 1.0), n=3)
    with pytest.raises(ValueError):
        compile_macro(ControlPhasePi(2, 2), n=3)
    with pytest.raises(ValueError):
        compile_macro(MeasureQubit(2, rest=2), n=3)


def test_resolve_rest_defaults_to_leftmost():
    assert MeasureQubit(1).qubits(4) == (1, 4)
    assert MeasureQubit(1, rest=2).qubits(4) == (1, 2)
    assert compile_macro(MeasureQubit(1), n=4) == compile_macro(MeasureQubit(1, rest=4), n=4)


def test_involved_qubits():
    assert involved_qubits(PhaseGate(2, 0.1), n=3) == (2,)
    assert involved_qubits(ControlPhasePi(1, 3), n=3) == (1, 3)
    with pytest.raises(ValueError, match="MeasureQubit has no unitary logical action"):
        involved_qubits(MeasureQubit(1, rest=2), n=2)
    with pytest.raises(ValueError, match="MeasureQubit has no unitary logical action"):
        involved_qubits(MeasureQubit(1), n=2)
    with pytest.raises(ValueError, match="MeasureQubit has no unitary logical action"):
        extract_logical_unitary(MeasureQubit(1), n=2)


# -- the computer factory ----------------------------------------------------


def test_computer_config_layout():
    cfg = computer_config(3, up_offsets=(2,))
    assert cfg.sites == (
        (1, 0, 0),  # offset 3
        (0, 1, 0),  # offset 2, flipped up
        (1, 0, 0),  # offset 1
        (1, 0, 1),  # home
        (0, 0, 0),
    )
    assert cfg.L == 5  # default padding of two empty sites


def test_computer_config_validation():
    with pytest.raises(ValueError):
        computer_config(3, L=3)
    with pytest.raises(ValueError):
        computer_config(2, up_offsets=(3,))


# -- extracted logical matrices ----------------------------------------------


def test_phase_gate_matrix():
    for phi in (math.pi / 7, 1.0):
        U, leak = extract_logical_unitary(PhaseGate(2, phi), n=3, L=12)
        assert leak == 0.0
        assert_allclose(U, qubit_phase(phi), atol=1e-12)


def test_phase_gate_position_independent():
    U1, _ = extract_logical_unitary(PhaseGate(1, 0.8), n=3)
    U3, _ = extract_logical_unitary(PhaseGate(3, 0.8), n=3)
    assert_allclose(U1, U3, atol=1e-12)


def test_hadamard_matrix_against_algebra_oracle():
    U, leak = extract_logical_unitary(HadamardLike(1), n=3, L=12)
    assert leak < 1e-12
    assert_allclose(U, oracle_hadamard(), atol=1e-12)
    # unbiased: every matrix element carries probability one half
    assert_allclose(np.abs(U) ** 2, np.full((2, 2), 0.5), atol=1e-12)


def test_hadamard_frozen_matrix():
    U, _ = extract_logical_unitary(HadamardLike(1), n=2)
    expected = np.array([[-1j, -1], [-1j, 1]]) / math.sqrt(2)
    assert_allclose(U, expected, atol=1e-12)


def test_hadamard_phase_correction_restores_h():
    U, _ = extract_logical_unitary(HadamardLike(2), n=3)
    d1, d2 = hadamard_phase_correction(U)
    assert_allclose(np.diag(d1) @ U @ np.diag(d2), HADAMARD, atol=1e-12)
    assert_allclose(np.abs(d1), 1.0)
    assert_allclose(np.abs(d2), 1.0)


def test_control_phase_matrix():
    U, leak = extract_logical_unitary(ControlPhasePi(1, 3), n=3, L=12)
    assert leak == 0.0
    # basis order (q1 q2): down-down, down-up, up-down, up-up
    assert_allclose(U, np.diag([1, 1, -1, 1]), atol=1e-12)


def test_control_phase_qubit_order_flips_index():
    U, _ = extract_logical_unitary(ControlPhasePi(1, 3), n=3, qubits=(3, 1))
    assert_allclose(U, np.diag([1, -1, 1, 1]), atol=1e-12)


def test_control_phase_is_entangling():
    U, _ = extract_logical_unitary(ControlPhasePi(1, 2), n=2)
    # a product gate diag(a,b) x diag(c,d) satisfies U00*U33 == U11*U22
    assert abs(U[0, 0] * U[3, 3] - U[1, 1] * U[2, 2]) > 1.9


def test_restricted_extraction_keeps_spectator_identity():
    U, _ = extract_logical_unitary(HadamardLike(1), n=2, qubits=(1, 2))
    assert_allclose(U, np.kron(oracle_hadamard(), np.eye(2)), atol=1e-12)
    U, _ = extract_logical_unitary(PhaseGate(2, 0.9), n=2, qubits=(1, 2))
    assert_allclose(U, np.kron(np.eye(2), qubit_phase(0.9)), atol=1e-12)


def test_extraction_flags_non_logical_output():
    # a measurement empties the measured site, which no logical basis
    # configuration matches, so the leakage guard must fire
    with pytest.raises(GateLeakageError):
        extract_logical_unitary(MeasureQubit(1, rest=2), n=2, qubits=(1,))


# -- spectator structure -----------------------------------------------------


def test_rotation_sandwich_is_identity_without_pointers():
    rng = np.random.default_rng(6)
    sandwich = Script(
        [ABRotation(math.pi / 8), Collide(math.pi), ABRotation(-math.pi / 8)]
    )
    for _ in range(20):
        occ = rng.integers(0, 3, size=(4, 3))
        occ[:, 2] = 0  # no pointers anywhere
        terms = {}
        configs = {BasisConfig.from_counts(occ)}
        while len(configs) < 3:
            occ2 = rng.integers(0, 3, size=(4, 3))
            occ2[:, 2] = 0
            configs.add(BasisConfig.from_counts(occ2))
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        amps /= np.linalg.norm(amps)
        state = MixedState([(1.0, PureState(dict(zip(sorted(configs), amps))))])
        out, _ = execute(state, sandwich)
        assert fidelity(state, out, mode="paired") >= 1 - 1e-12


def test_gate_restores_home_and_idle_sites():
    st = classical(computer_config(3, L=9, up_offsets=(3,)))
    for macro in (PhaseGate(1, 0.3), HadamardLike(2), ControlPhasePi(1, 2)):
        out = run_circuit(st, [macro], n=3)
        for _, branch in out.branches:
            for cfg, _ in branch.terms.items():
                assert cfg.sites[3] == (1, 0, 1)  # home intact, pointer back
                assert cfg.sites[0] == (0, 1, 0)  # untouched up qubit
                for k in (4, 5, 6, 7, 8):
                    assert cfg.sites[k] == (0, 0, 0)


# -- ensemble lockstep -------------------------------------------------------


def test_lockstep_phase_accumulates_per_computer():
    phi = 0.7
    st = two_computers()
    out = run_circuit(st, [PhaseGate(1, phi)], n=2)
    ((_, branch),) = out.branches
    amp = amplitude(branch, sole_config(st))
    assert amp == pytest.approx(np.exp(2j * phi))  # both computers fire


def test_lockstep_hadamard_gives_product_state():
    st = two_computers(up_b=(1,))  # A starts down, B starts up
    out = run_circuit(st, [HadamardLike(1)], n=2)
    ((_, branch),) = out.branches
    U, _ = extract_logical_unitary(HadamardLike(1), n=2)
    down, up = (1, 0, 0), (0, 1, 0)
    base = [list(s) for s in sole_config(st).sites]
    for sa in (0, 1):
        for sb in (0, 1):
            sites = [list(x) for x in base]
            sites[1] = list(up if sa else down)
            sites[7] = list(up if sb else down)
            cfg = BasisConfig.from_counts(sites)
            assert amplitude(branch, cfg) == pytest.approx(U[sa, 0] * U[sb, 1])


# -- measurement -------------------------------------------------------------


def test_measure_counts_down_and_empties_sites():
    st = two_computers()
    down, up, out = measure_qubit(st, MeasureQubit(1, rest=2), n=2)
    assert (down, up) == (2, None)
    assert sole_config(out) == BasisConfig.from_counts(
        [
            (1, 0, 0), (0, 0, 0), (1, 0, 1), (0, 0, 0), (0, 0, 0),
            (0, 0, 0), (1, 0, 0), (0, 0, 0), (1, 0, 1), (0, 0, 0),
        ]
    )


def test_measure_counts_up_via_continuation():
    st = two_computers(up_b=(1,))
    down, up, out = measure_qubit(
        st, MeasureQubit(1, rest=2, count_up_too=True), n=2
    )
    assert (down, up) == (1, 1)
    # both measured qubits end emptied; rest qubits and homes survive
    assert sole_config(out) == BasisConfig.from_counts(
        [
            (1, 0, 0), (0, 0, 0), (1, 0, 1), (0, 0, 0), (0, 0, 0),
            (0, 0, 0), (1, 0, 0), (0, 0, 0), (1, 0, 1), (0, 0, 0),
        ]
    )


def test_measure_up_only_register():
    st = two_computers(up_a=(1,), up_b=(1,))
    down, up, _ = measure_qubit(st, MeasureQubit(1, rest=2, count_up_too=True), n=2)
    assert (down, up) == (0, 2)


def test_measure_superposed_qubit_statistics():
    st = classical(computer_config(2))
    st = run_circuit(st, [HadamardLike(1)], n=2)
    rng = np.random.default_rng(42)
    trials = 1000
    downs = 0
    for _ in range(trials):
        down, _, post = measure_qubit(st, MeasureQubit(1, rest=2), rng=rng, n=2)
        assert down in (0, 1)
        downs += down
        for _, branch in post.branches:
            for cfg, _ in branch.terms.items():
                assert cfg.sites[2] == (1, 0, 1)  # home intact
                assert cfg.sites[0] == (1, 0, 0)  # rest intact
    freq = downs / trials
    assert abs(freq - 0.5) < 3 * math.sqrt(0.25 / trials)


def test_measure_requires_distinct_rest():
    with pytest.raises(ValueError):
        measure_qubit(two_computers(), MeasureQubit(1, rest=1), n=2)


@pytest.mark.parametrize(
    "macro", [MeasureQubit(0, rest=2), MeasureQubit(3, rest=1), MeasureQubit(1, rest=5)]
)
def test_measure_rejects_offsets_outside_register(macro):
    # offset 0 is the home site; 3 and 5 lie beyond a 2-qubit register
    with pytest.raises(ValueError, match="outside register"):
        measure_qubit(two_computers(), macro, n=2)


# -- circuits ----------------------------------------------------------------


def test_circuit_phases_add():
    st = two_computers()
    out = run_circuit(st, [PhaseGate(1, 0.4), PhaseGate(1, 0.5)], n=2)
    ((_, branch),) = out.branches
    amp = amplitude(branch, sole_config(st))
    assert amp == pytest.approx(np.exp(2j * 0.9))


def test_circuit_composes_like_matrix_product():
    U, _ = extract_logical_unitary(HadamardLike(1), n=2)
    st = classical(computer_config(2))
    out = run_circuit(st, [HadamardLike(1), HadamardLike(1)], n=2)
    ((_, branch),) = out.branches
    UU = U @ U
    down_cfg = computer_config(2)
    up_cfg = computer_config(2, up_offsets=(1,))
    assert amplitude(branch, down_cfg) == pytest.approx(UU[0, 0])
    assert amplitude(branch, up_cfg) == pytest.approx(UU[1, 0])


def test_circuit_collects_measurement_outcomes():
    st = two_computers()
    sink = []
    run_circuit(st, [MeasureQubit(1, rest=2)], n=2, counts=sink)
    assert sink == [2.0]


# -- serialization -----------------------------------------------------------


def test_macro_json_round_trip():
    macros = [
        PhaseGate(1, 0.25),
        HadamardLike(2),
        ControlPhasePi(1, 3),
        MeasureQubit(2, rest=1, count_up_too=True),
        MeasureQubit(1),
    ]
    obj = macros_to_json_obj(macros)
    assert macros_from_json_obj(obj) == macros
    assert obj[0] == {"op": "phase", "q": 1, "phi": 0.25}
    assert obj[3] == {"op": "measure", "q": 2, "rest": 1, "count_up_too": True}
    # fields with a default may be left out
    assert macros_from_json_obj([{"op": "measure", "q": 2}]) == [MeasureQubit(2)]
    assert macros_from_json_obj([{"op": "phase", "q": 1, "phi": 2}]) == [PhaseGate(1, 2.0)]
    with pytest.raises(TypeError):
        macros_to_json_obj([Shift(1)])
    malformed = [
        {"op": "swap"},                                  # unknown op
        {"q": 1},                                        # no op
        {"op": "phase", "q": 1},                         # missing field
        {"op": "cz", "q1": 1},
        {"op": "h", "q": 1, "phi": 0.5},                 # extra key
        {"op": "measure", "q": 1, "up": True},
        {"op": "h", "q": 1.5},                           # wrong type
        {"op": "h", "q": True},
        {"op": "h", "q": "1"},
        {"op": "phase", "q": 1, "phi": "0.5"},
        {"op": "phase", "q": 1, "phi": False},
        {"op": "measure", "q": 1, "rest": 2.0},
        {"op": "measure", "q": 1, "count_up_too": 1},
        ["op", "h"],
    ]
    for item in malformed:
        with pytest.raises(ValueError):
            macros_from_json_obj([item])


def test_matrix_json_shape():
    obj = matrix_to_json_obj(np.array([[1j, 0], [0, 1]]))
    assert obj[0][0] == {"re": 0.0, "im": 1.0}
    assert obj[1][1] == {"re": 1.0, "im": 0.0}
