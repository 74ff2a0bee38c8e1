"""Acceptance gate: the eight headline properties, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Everything is seeded; no test depends on wall-clock
scheduling or worker count.
"""
import math
import time

import numpy as np

from helpers import (
    dense_site_configs,
    expected_formatted,
    fidelity,
    op_matrix,
    random_config,
    random_state,
    run_op,
    sole_config,
    translate,
)
from latticeqc import (
    ABRotation,
    BasisConfig,
    Collide,
    ControlPhasePi,
    DefectSplit,
    EmptyB,
    EmptyP,
    FillDistribution,
    HadamardLike,
    MeasureQubit,
    MixedState,
    PairTransfer,
    PhaseGate,
    PureState,
    Script,
    Shift,
    WSwap,
    apply_classical,
    classical,
    computer_config,
    execute,
    extract_logical_unitary,
    hadamard_phase_correction,
    measure_qubit,
    monte_carlo_yield,
    prepare_script,
    repair_experiment,
    repair_occupations,
    repaired_yield,
    run_circuit,
)

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


def test_acceptance_1_format_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    runs = 0
    # exhaustive: every lattice with L <= 8 and per-site occupancy <= 3
    for L in range(1, 9):
        grids = np.stack(
            np.meshgrid(*([np.arange(4)] * L), indexing="ij"), axis=-1
        ).reshape(-1, L)
        occ = np.zeros(grids.shape + (3,), dtype=np.int64)
        occ[..., 0] = grids
        for n in (1, 2, 3):
            final = apply_classical(occ, prepare_script(n))
            expected = expected_formatted(grids, n)
            mismatches += int((~np.all(final == expected, axis=(-2, -1))).sum())
            runs += grids.shape[0]
    # random: 10^4 lattices at L=64 with occupancies up to 4
    rng = np.random.default_rng(42)
    a = rng.integers(0, 5, size=(10_000, 64))
    occ = np.zeros(a.shape + (3,), dtype=np.int64)
    occ[..., 0] = a
    for n in (1, 2, 3, 4):
        final = apply_classical(occ, prepare_script(n))
        expected = expected_formatted(a, n)
        mismatches += int((~np.all(final == expected, axis=(-2, -1))).sum())
        runs += a.shape[0]
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    report(
        "criterion 1 (format-oracle equivalence)",
        ok,
        f"{runs} lattices, {mismatches} mismatches, {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_2_yield_formula():
    t0 = time.perf_counter()
    dist = FillDistribution.from_pair(0.1, 0.1)
    result = monte_carlo_yield(10**5, dist, 5, trials=100, seed=2024)
    elapsed = time.perf_counter() - t0
    target = 3276.8
    ok = (
        abs(result.prediction - target) < 1e-9
        and abs(result.mean - target) <= 3 * result.stderr
        and elapsed < 60.0
    )
    report(
        "criterion 2 (yield formula)",
        ok,
        f"mean {result.mean:.1f} +- {result.stderr:.1f} vs {target} "
        f"(z = {result.z:+.2f}), {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_3_repaired_yield():
    L = 10**5
    dist = FillDistribution(0.05, 0.1, 0.45, 0.1, 0.3)
    details = []
    ok = True
    for n in (4, 8):
        yields = np.array(
            [
                repair_experiment(L, dist, n, seed=seed).yield_after
                for seed in range(25)
            ],
            dtype=float,
        )
        target = repaired_yield(L, n)
        stderr = yields.std(ddof=1) / math.sqrt(yields.size)
        ok = ok and abs(yields.mean() - target) <= 3 * stderr
        details.append(
            f"n={n}: {yields.mean():.1f} +- {stderr:.1f} vs {target:.1f}"
        )
    asymptote = L / (64 * math.e)
    formula_gap = abs(repaired_yield(L, 64) - asymptote) / asymptote
    ok = ok and formula_gap < 0.01
    details.append(f"n=64 asymptote gap {100 * formula_gap:.2f}%")
    report("criterion 3 (repaired yield)", ok, "; ".join(details))
    assert ok


def test_acceptance_4_repair_correctness():
    rng = np.random.default_rng(77)
    probs = np.array([0.05, 0.1, 0.45, 0.1, 0.3])
    checked = 0
    failures = []
    while checked < 100:
        L = int(rng.integers(64, 513))
        a = rng.choice(5, size=L, p=probs)
        demand = 2 * int((a == 0).sum()) + int((a == 1).sum())
        if int((a == 4).sum()) < demand:
            continue  # criterion applies to donor-surplus lattices
        repaired, rep = repair_occupations(a)
        if rep.residual_empty or rep.residual_single:
            failures.append(f"residual defects at L={L}")
        if rep.atoms_lost != rep.defects_fixed:
            failures.append(f"atom accounting broken at L={L}")
        if rep.defects_fixed != demand:
            failures.append(f"deposit count off at L={L}")
        if rep.rounds > 2 * (L - 1):
            failures.append(f"round bound exceeded at L={L}")
        if not ((repaired >= 2) & (repaired <= 4)).all():
            failures.append(f"counts out of range at L={L}")
        checked += 1
    ok = not failures
    report(
        "criterion 4 (repair correctness)",
        ok,
        failures[0] if failures else "100 donor-surplus lattices fully repaired",
    )
    assert ok


def test_acceptance_5_gate_matrices():
    t0 = time.perf_counter()
    failures = []
    for phi in (math.pi / 7, math.pi / 3, 1.0):
        U, leak = extract_logical_unitary(PhaseGate(2, phi), n=3, L=12)
        target = np.diag([np.exp(1j * phi), 1.0])
        if np.abs(U - target).max() > 1e-10 or leak > 1e-10:
            failures.append(f"phase({phi:.3f})")
    U, leak = extract_logical_unitary(ControlPhasePi(1, 3), n=3, L=12)
    diag = np.diag(U)
    if np.abs(U - np.diag(diag)).max() > 1e-10:
        failures.append("cz not diagonal")
    if np.sum(np.abs(diag + 1.0) < 1e-10) != 1:
        failures.append("cz minus-one count")
    if abs(diag[0] * diag[3] - diag[1] * diag[2]) < 0.5:
        failures.append("cz not entangling")
    if leak > 1e-10:
        failures.append("cz leakage")
    U, leak = extract_logical_unitary(HadamardLike(2), n=3, L=12)
    if np.abs(np.abs(U) ** 2 - 0.5).max() > 1e-10:
        failures.append("hadamard biased")
    d1, d2 = hadamard_phase_correction(U)
    if np.abs(np.diag(d1) @ U @ np.diag(d2) - HADAMARD).max() > 1e-10:
        failures.append("hadamard phase correction")
    if leak > 1e-10:
        failures.append("hadamard leakage")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append("runtime")
    ok = not failures
    report(
        "criterion 5 (gate matrices)",
        ok,
        ", ".join(failures) if failures else f"all gates verified, {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_6_spectator_sandwich():
    rng = np.random.default_rng(55)
    sandwich = Script(
        [ABRotation(math.pi / 8), Collide(math.pi), ABRotation(-math.pi / 8)]
    )
    failures = []
    worst = 1.0
    for _ in range(200):
        L = int(rng.integers(1, 6))
        configs = set()
        while len(configs) < 3:
            occ = rng.integers(0, 4, size=(L, 3))
            occ[:, 2] = 0  # zero pointer occupation everywhere
            configs.add(BasisConfig.from_counts(occ))
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        amps /= np.linalg.norm(amps)
        state = MixedState([(1.0, PureState(dict(zip(sorted(configs), amps))))])
        out, _ = execute(state, sandwich)
        f = fidelity(state, out, mode="paired")
        worst = min(worst, f)
        if f < 1 - 1e-12:
            failures.append(f"sandwich fidelity {f}")
            break
    # every macro must leave uninvolved register content exactly in place
    U, _ = extract_logical_unitary(PhaseGate(1, 0.7), n=2, qubits=(1, 2))
    if np.abs(U - np.kron(np.diag([np.exp(0.7j), 1]), np.eye(2))).max() > 1e-10:
        failures.append("phase touches spectator qubit")
    Uh, _ = extract_logical_unitary(HadamardLike(1), n=2, qubits=(1, 2))
    Uh1, _ = extract_logical_unitary(HadamardLike(1), n=2, qubits=(1,))
    if np.abs(Uh - np.kron(Uh1, np.eye(2))).max() > 1e-10:
        failures.append("hadamard touches spectator qubit")
    # and on a multi-computer lattice every computer must keep its sites
    sites = [(0, 0, 0)] * 12
    for home in (3, 9):
        sites[home] = (1, 0, 1)
        sites[home - 1] = (1, 0, 0)
        sites[home - 2] = (0, 1, 0)
        sites[home - 3] = (1, 0, 0)
    st = classical(BasisConfig.from_counts(sites))
    for macro in (PhaseGate(1, 0.4), HadamardLike(2), ControlPhasePi(1, 3)):
        out = run_circuit(st, [macro], n=3)
        for _, branch in out.branches:
            for cfg, _ in branch.terms.items():
                for home in (3, 9):
                    if cfg.sites[home] != (1, 0, 1):
                        failures.append(f"{type(macro).__name__} moved a home")
                for pad in (4, 5, 10, 11):
                    if cfg.sites[pad] != (0, 0, 0):
                        failures.append(f"{type(macro).__name__} left debris")
    ok = not failures
    report(
        "criterion 6 (spectator identity)",
        ok,
        failures[0] if failures else f"worst sandwich fidelity 1-{1 - worst:.1e}",
    )
    assert ok


def test_acceptance_7_measurement_semantics():
    failures = []
    # classical ensembles: exact counts with no randomness involved
    sites = [(0, 0, 0)] * 16
    ups = {7: False, 11: True, 15: False}  # three computers, q1 pattern
    for home, up in ups.items():
        sites[home] = (1, 0, 1)
        sites[home - 1] = (0, 1, 0) if up else (1, 0, 0)
        sites[home - 2] = (1, 0, 0)
    st = classical(BasisConfig.from_counts(sites))
    down, up, post = measure_qubit(
        st, MeasureQubit(1, rest=2, count_up_too=True), n=2
    )
    if (down, up) != (2, 1):
        failures.append(f"classical counts ({down}, {up})")
    cfg = sole_config(post)
    for home in ups:
        if cfg.sites[home] != (1, 0, 1) or cfg.sites[home - 2] != (1, 0, 0):
            failures.append("pointer or resting qubit damaged")
    # superposed qubit: Hadamard then measure, 10^4 sampled runs
    prepared = run_circuit(classical(computer_config(2)), [HadamardLike(1)], n=2)
    rng = np.random.default_rng(314)
    trials = 10_000
    downs = 0
    for _ in range(trials):
        d, _, post = measure_qubit(prepared, MeasureQubit(1, rest=2), rng=rng, n=2)
        downs += d
        for _, branch in post.branches:
            for c, _ in branch.terms.items():
                if c.sites[2] != (1, 0, 1) or c.sites[0] != (1, 0, 0):
                    failures.append("post-measurement damage")
    freq = downs / trials
    sigma = math.sqrt(0.25 / trials)
    if abs(freq - 0.5) > 3 * sigma:
        failures.append(f"down frequency {freq}")
    ok = not failures
    report(
        "criterion 7 (measurement semantics)",
        ok,
        failures[0] if failures else f"exact counts; down frequency {freq:.4f}",
    )
    assert ok


def _random_valid_transfer(rng):
    m, n = int(rng.integers(0, 5)), int(rng.integers(0, 5))
    lo, hi = -m, n  # keep both endpoints within the cutoff
    x = int(rng.integers(lo, hi + 1))
    while max(m, n, m + x, n - x) > 6:
        x = int(rng.integers(lo, hi + 1))
    return m, n, x


def test_acceptance_8_primitive_algebra():
    rng = np.random.default_rng(808)
    configs = dense_site_configs()
    eye = np.eye(len(configs))
    failures = []

    # unitarity on the dense one-site space, 1000 random primitives
    for i in range(1000):
        kind = i % 5
        if kind == 0:
            op = PairTransfer(*_random_valid_transfer(rng))
        elif kind == 1:
            op = WSwap()
        elif kind == 2:
            op = ABRotation(float(rng.uniform(-math.pi, math.pi)))
        elif kind == 3:
            op = Collide(float(rng.uniform(-2 * math.pi, 2 * math.pi)))
        else:
            op = DefectSplit(float(rng.uniform(0, 1)))
        M = op_matrix(op, configs)
        if np.abs(M.conj().T @ M - eye).max() > 1e-12:
            failures.append(f"unitarity case {i}")
            break

    # involution: transfers and the W swap square to the identity
    for i in range(1000):
        state = random_state(rng, L=3)
        op = PairTransfer(*_random_valid_transfer(rng)) if i % 2 else WSwap()
        twice = run_op(run_op(state, op), op)
        if fidelity(state, twice, mode="strict") != 1.0:
            failures.append(f"involution case {i}")
            break

    # shift-inverse
    for i in range(1000):
        state = random_state(rng, L=4)
        x = int(rng.integers(-8, 9))
        back = run_op(run_op(state, Shift(x)), Shift(-x))
        if fidelity(state, back, mode="strict") != 1.0:
            failures.append(f"shift-inverse case {i}")
            break

    # phase additivity
    for i in range(1000):
        state = random_state(rng, L=3)
        p1, p2 = rng.uniform(-3, 3, size=2)
        a = run_op(run_op(state, Collide(p1)), Collide(p2))
        b = run_op(state, Collide(p1 + p2))
        if fidelity(a, b, mode="paired") < 1 - 1e-12:
            failures.append(f"additivity case {i}")
            break

    # translation covariance across every primitive kind
    kinds = "transfer w v c s ep eb split".split()
    for i in range(1000):
        state = random_state(rng, L=4)
        d = int(rng.integers(1, 4))
        kind = kinds[i % len(kinds)]
        if kind == "transfer":
            op = PairTransfer(*_random_valid_transfer(rng))
        elif kind == "w":
            op = WSwap()
        elif kind == "v":
            op = ABRotation(float(rng.uniform(-1, 1)))
        elif kind == "c":
            op = Collide(float(rng.uniform(-3, 3)))
        elif kind == "s":
            op = Shift(int(rng.integers(-4, 5)))
        elif kind == "ep":
            op = EmptyP()
        elif kind == "eb":
            op = EmptyB()
        else:
            op = DefectSplit(float(rng.uniform(0, 1)))
        a, b = translate(run_op(state, op), d), run_op(translate(state, d), op)
        if fidelity(a, b, mode="strict") != 1.0:
            failures.append(f"covariance case {i} ({kind})")
            break

    # classical fast path vs the generic unitary kernels
    for i in range(1000):
        cfg = random_config(rng, L=int(rng.integers(2, 6)), max_count=3)
        ops = []
        for _ in range(int(rng.integers(1, 6))):
            roll = int(rng.integers(0, 6))
            if roll == 0:
                ops.append(PairTransfer(*_random_valid_transfer(rng)))
            elif roll == 1:
                ops.append(WSwap())
            elif roll == 2:
                ops.append(Shift(int(rng.integers(-4, 5))))
            elif roll == 3:
                ops.append(Collide(float(rng.uniform(-3, 3))))
            elif roll == 4:
                ops.append(EmptyP())
            else:
                ops.append(EmptyB())
        script = Script(ops)
        fast, _ = execute(classical(cfg), script)
        slow = classical(cfg)
        for op in ops:
            slow = run_op(slow, op)
        if fidelity(fast, slow, mode="strict") != 1.0:
            failures.append(f"fast-path case {i}")
            break

    ok = not failures
    report(
        "criterion 8 (primitive algebra)",
        ok,
        failures[0] if failures else "6000 randomized cases verified",
    )
    assert ok
