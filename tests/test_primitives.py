import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import (
    amplitude,
    dense_site_configs,
    fidelity,
    op_matrix,
    random_config,
    random_state,
    run_by_rolls,
    run_op,
    sole_config,
    step_terms,
    translate,
)
from latticeqc import (
    M_MAX,
    ABRotation,
    BasisConfig,
    Collide,
    CountP,
    DefectSplit,
    EmptyB,
    EmptyP,
    MixedState,
    OccupationOverflowError,
    PairTransfer,
    PureState,
    Script,
    ScriptParseError,
    Shift,
    WSwap,
    apply_classical,
    classical,
    execute,
)
from latticeqc import primitives
from latticeqc.lattice import _SITE_TABLE, _encode
from latticeqc.primitives import _groups, _run, _step

SQ = math.sqrt


# -- pair transfer -----------------------------------------------------------


def test_pair_transfer_example():
    st = classical([(2, 0, 1), (1, 0, 1)])
    out = run_op(st, PairTransfer(2, 1, 1))
    assert sole_config(out) == BasisConfig.from_counts([(3, 0, 0), (1, 0, 1)])


def test_pair_transfer_swaps_both_directions():
    st = classical([(3, 0, 0)])
    out = run_op(st, PairTransfer(2, 1, 1))
    assert sole_config(out) == BasisConfig.from_counts([(2, 0, 1)])


def test_pair_transfer_blocked_by_b():
    st = classical([(2, 1, 1)])  # b != 0: the site is opaque to transfers
    out = run_op(st, PairTransfer(2, 1, 1))
    assert sole_config(out) == sole_config(st)


def test_pair_transfer_is_involution():
    rng = np.random.default_rng(7)
    for _ in range(50):
        state = random_state(rng, L=3)
        m, n = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        x = int(rng.integers(-m, n + 1))
        op = PairTransfer(m, n, x)
        twice = run_op(run_op(state, op), op)
        assert fidelity(state, twice, mode="strict") == 1.0


def test_pair_transfer_validation():
    with pytest.raises(ValueError):
        PairTransfer(1, 0, -2)  # m+x < 0
    with pytest.raises(ValueError):
        PairTransfer(0, 1, 2)  # n-x < 0
    with pytest.raises(OccupationOverflowError):
        run_op(classical([(0, 0, 0)]), PairTransfer(4, 3, 3))  # endpoint 7 > cutoff


# -- W swap ------------------------------------------------------------------


def test_w_swap_example_and_involution():
    st = classical([(1, 0, 1), (1, 0, 0)])
    out = run_op(st, WSwap())
    assert sole_config(out) == BasisConfig.from_counts([(0, 1, 1), (1, 0, 0)])
    back = run_op(out, WSwap())
    assert sole_config(back) == sole_config(st)


# -- a/b rotation ------------------------------------------------------------


def _dense_ab_hamiltonian(configs):
    # independent construction: matrix elements of a^dag b + b^dag a
    index = {c: i for i, c in enumerate(configs)}
    H = np.zeros((len(configs), len(configs)))
    for c, j in index.items():
        (s,) = c.sites
        if s.b > 0:  # a^dag b
            dst = BasisConfig.from_counts([(s.a + 1, s.b - 1, s.p)])
            H[index[dst], j] += SQ((s.a + 1) * s.b)
        if s.a > 0:  # b^dag a
            dst = BasisConfig.from_counts([(s.a - 1, s.b + 1, s.p)])
            H[index[dst], j] += SQ(s.a * (s.b + 1))
    return H


@pytest.mark.parametrize("theta", [math.pi / 8, -math.pi / 8, 0.73])
def test_ab_rotation_matches_expm_oracle(theta):
    configs = dense_site_configs()
    H = _dense_ab_hamiltonian(configs)
    expected = scipy.linalg.expm(-1j * theta * H)
    got = op_matrix(ABRotation(theta), configs)
    assert_allclose(got, expected, atol=1e-12)


def test_ab_rotation_single_particle_sector():
    theta = 0.4
    out = run_op(classical([(1, 0, 0)]), ABRotation(theta))
    ((w, branch),) = out.branches
    assert w == 1.0
    assert amplitude(branch, BasisConfig.from_counts([(1, 0, 0)])) == pytest.approx(
        math.cos(theta)
    )
    assert amplitude(branch, BasisConfig.from_counts([(0, 1, 0)])) == pytest.approx(
        -1j * math.sin(theta)
    )


def test_ab_rotation_pointer_is_spectator():
    theta = math.pi / 8
    base = run_op(classical([(1, 0, 0)]), ABRotation(theta)).branches[0][1]
    lifted = run_op(classical([(1, 0, 3)]), ABRotation(theta)).branches[0][1]
    for cfg, amp in base.terms.items():
        (s,) = cfg.sites
        assert amplitude(lifted, BasisConfig.from_counts([(s.a, s.b, 3)])) == pytest.approx(amp)


def test_ab_rotation_inverse():
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = random_state(rng, L=2)
        theta = float(rng.uniform(-math.pi, math.pi))
        round_trip = run_op(run_op(state, ABRotation(theta)), ABRotation(-theta))
        assert fidelity(state, round_trip, mode="paired") >= 1 - 1e-12


def test_ab_rotation_overflow_above_sector_cutoff():
    # per-level counts are inside the cutoff but the a+b sector is not
    st = classical([(4, 3, 0)])
    with pytest.raises(OccupationOverflowError):
        run_op(st, ABRotation(0.1))


def test_ab_rotation_refusal_is_a_function_of_the_input():
    # of several held sites past the cutoff the lowest code is named, on
    # every call and whatever state the same op ran on before
    two = classical([(5, 4, 1), (1, 0, 0), (1, 1, 0), (6, 1, 3)])
    nine = r"^a\+b = 9 on a site exceeds sector cutoff 6$"
    op = ABRotation(0.3)
    for _ in range(2):
        with pytest.raises(OccupationOverflowError, match=nine):
            execute(two, Script([op]))
    op = ABRotation(0.4)
    execute(classical([(1, 0, 0), (1, 1, 0)]), Script([op]))
    with pytest.raises(OccupationOverflowError, match=nine):
        execute(two, Script([op]))
    with pytest.raises(OccupationOverflowError, match=r"^a\+b = 7 on a site exceeds"):
        execute(classical([(4, 3, 0), (6, 6, 0)]), Script([ABRotation(0.5)]))


def test_ab_rotation_refuses_a_runaway_expansion(monkeypatch):
    # each occupied site doubles the rows; past the cell bound V raises
    # before it allocates the expanded rows
    monkeypatch.setattr(primitives, "ROTATION_CELLS", 1000)
    few = classical([(1, 0, 0)] * 4 + [(0, 0, 0)] * 16)
    ((_, branch),) = run_op(few, ABRotation(0.3)).branches
    assert len(branch.codes) == 16  # 16 rows of 20 sites fit in 1000 cells
    with pytest.raises(ValueError, match=r"^V 0\.3 would expand the state to 64 rows of 20 sites"):
        execute(classical([(1, 0, 0)] * 20), Script([ABRotation(0.3)]))
    # 14 site codes, (1, 0, p) and (0, 1, p) for p <= 6, on 40 sites: the
    # packed rows take three words, and the refusal reads the same
    wide = classical([(1, 0, k % 7) for k in range(40)])
    with pytest.raises(ValueError, match=r"^V 0\.3 would expand the state to 32 rows of 40 sites, "
                                         r"past 1000 site cells$"):
        execute(wide, Script([ABRotation(0.3)]))


def test_sector_unitary_cache_is_bounded():
    # one entry per (sector, angle): distinct user angles must not pile up
    bound = (M_MAX + 1) * 64
    for k in range(bound + 50):
        ABRotation(0.001 * k + 0.5).images((1, 0, 0))
    assert primitives._sector_unitary.cache_info().currsize <= bound


# -- collide -----------------------------------------------------------------


def test_collide_phase_per_site_product():
    phi = 0.3
    st = classical([(1, 0, 1), (2, 0, 1), (3, 0, 0)])
    out = run_op(st, Collide(phi))
    ((_, branch),) = out.branches
    amp = amplitude(branch, sole_config(st))
    assert amp == pytest.approx(cmath.exp(1j * phi * 3))  # 1*1 + 2*1 + 3*0


def test_collide_additivity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        state = random_state(rng, L=3)
        p1, p2 = rng.uniform(-3, 3, size=2)
        a = run_op(run_op(state, Collide(p1)), Collide(p2))
        b = run_op(state, Collide(p1 + p2))
        assert fidelity(a, b, mode="paired") >= 1 - 1e-12


def test_collide_prunes_an_amplitude_its_factor_moves_below_prune_tol():
    # a term of amplitude PRUNE_TOL is kept; exp(0.024i) has modulus 1,
    # yet the product rounds to modulus 9.999999999999998e-15 and the term
    # is dropped, as the dict engine drops it
    big, tiny = BasisConfig.from_counts([(0, 0, 0)]), BasisConfig.from_counts([(1, 0, 1)])
    state = MixedState([(1.0, PureState({big: 1.0, tiny: 1e-14}))])
    assert list(state.branches[0][1].terms) == [big, tiny]
    out = run_op(state, Collide(0.024))
    assert list(out.branches[0][1].terms) == [big]
    assert _reprs(out) == _reprs(step_terms(state, Collide(0.024))[0])


def test_site_sums_past_the_width_of_a_site_table():
    # 11,000 sites of (6, 0, 6): each a*p = 36 and each p = 6 fits the
    # uint16 and uint8 tables, but the sums over the sites, a*p up to
    # 396,000 and the pointer totals up to 66,000, pass 2**16
    full = [(6, 0, 6)] * 11_000
    rows = [full, full[:-1] + [(6, 0, 5)]]
    state = MixedState([(1.0, PureState(dict(zip(map(BasisConfig.from_counts, rows),
                                                 [0.6, 0.8j]))))])
    for op in (Collide(0.3), CountP()):
        rng, rng_ref = np.random.default_rng(2), np.random.default_rng(2)
        out, value = _step(state, op, rng)
        ref, value_ref = step_terms(state, op, rng_ref)
        assert value == value_ref and _reprs(out) == _reprs(ref)
        assert rng.random() == rng_ref.random()
    assert execute(state, Script([CountP()]), np.random.default_rng(2))[1] in ([66_000.0],
                                                                                [65_999.0])


# -- shift -------------------------------------------------------------------


def test_shift_moves_pointer_right():
    st = classical([(0, 0, 1), (1, 0, 0), (2, 0, 0)])
    out = run_op(st, Shift(1))
    assert sole_config(out) == BasisConfig.from_counts(
        [(0, 0, 0), (1, 0, 1), (2, 0, 0)]
    )


def test_shift_composition_and_inverse():
    rng = np.random.default_rng(5)
    for _ in range(30):
        state = random_state(rng, L=5)
        x, y = int(rng.integers(-6, 7)), int(rng.integers(-6, 7))
        ab = run_op(run_op(state, Shift(x)), Shift(y))
        once = run_op(state, Shift(x + y))
        assert fidelity(ab, once, mode="strict") == 1.0
        undone = run_op(run_op(state, Shift(x)), Shift(-x))
        assert fidelity(state, undone, mode="strict") == 1.0


def test_shift_full_cycle_is_identity():
    st = classical([(1, 0, 1), (0, 0, 1), (2, 0, 0), (0, 0, 0)])
    assert sole_config(run_op(st, Shift(4))) == sole_config(st)


# -- emptying channels -------------------------------------------------------


def test_empty_p_classical():
    st = classical([(1, 0, 1), (2, 0, 3)])
    out = run_op(st, EmptyP())
    assert sole_config(out) == BasisConfig.from_counts([(1, 0, 0), (2, 0, 0)])


def test_empty_b_classical():
    st = classical([(1, 2, 1)])
    assert sole_config(run_op(st, EmptyB())) == BasisConfig.from_counts([(1, 0, 1)])


def test_empty_p_splits_on_pattern():
    c1 = BasisConfig.from_counts([(1, 0, 1)])
    c2 = BasisConfig.from_counts([(0, 0, 0)])
    alpha, beta = SQ(1 / 3), SQ(2 / 3)
    st = MixedState([(1.0, PureState({c1: alpha, c2: beta}))])
    out = run_op(st, EmptyP())
    assert len(out.branches) == 2
    lookup = {next(iter(br.terms)): w for w, br in out.branches}
    assert lookup[BasisConfig.from_counts([(0, 0, 0)])] == pytest.approx(beta**2)
    assert lookup[BasisConfig.from_counts([(1, 0, 0)])] == pytest.approx(alpha**2)


def test_empty_p_keeps_coherence_within_a_pattern():
    # two terms with the same pointer pattern stay in one coherent branch
    c1 = BasisConfig.from_counts([(1, 0, 1), (0, 0, 0)])
    c2 = BasisConfig.from_counts([(0, 1, 1), (0, 0, 0)])
    st = MixedState([(1.0, PureState({c1: SQ(0.5), c2: SQ(0.5)}))])
    out = run_op(st, EmptyP())
    assert len(out.branches) == 1
    w, branch = out.branches[0]
    assert w == pytest.approx(1.0)
    assert len(branch.terms) == 2


def test_empty_p_merges_identical_results():
    c1 = BasisConfig.from_counts([(1, 0, 1)])
    c2 = BasisConfig.from_counts([(1, 0, 0)])
    st = MixedState([(1.0, PureState({c1: SQ(0.5), c2: SQ(0.5)}))])
    out = run_op(st, EmptyP())
    assert len(out.branches) == 1
    assert out.branches[0][0] == pytest.approx(1.0)
    assert sole_config(out) == BasisConfig.from_counts([(1, 0, 0)])


# -- defect split ------------------------------------------------------------


def test_defect_split_columns():
    eps = 0.2
    out = run_op(classical([(2, 0, 0)]), DefectSplit(eps))
    ((_, branch),) = out.branches
    assert amplitude(branch, BasisConfig.from_counts([(2, 0, 0)])) == pytest.approx(
        SQ(1 - eps)
    )
    assert amplitude(branch, BasisConfig.from_counts([(1, 1, 0)])) == pytest.approx(
        SQ(eps)
    )
    out2 = run_op(classical([(1, 1, 0)]), DefectSplit(eps))
    ((_, branch2),) = out2.branches
    assert amplitude(branch2, BasisConfig.from_counts([(2, 0, 0)])) == pytest.approx(
        -SQ(eps)
    )
    assert amplitude(branch2, BasisConfig.from_counts([(1, 1, 0)])) == pytest.approx(
        SQ(1 - eps)
    )


def test_defect_split_edge_values():
    st = classical([(2, 0, 0), (1, 0, 1)])
    same = run_op(st, DefectSplit(0.0))
    assert sole_config(same) == sole_config(st)
    flipped = run_op(st, DefectSplit(1.0))
    assert sole_config(flipped) == BasisConfig.from_counts([(1, 1, 0), (1, 0, 1)])
    with pytest.raises(ValueError):
        DefectSplit(1.5)


def test_defect_split_untouched_sites():
    out = run_op(classical([(2, 0, 1), (1, 1, 1), (3, 0, 0)]), DefectSplit(0.5))
    assert sole_config(out) == BasisConfig.from_counts(
        [(2, 0, 1), (1, 1, 1), (3, 0, 0)]
    )


# -- dense one-site unitarity ------------------------------------------------


def test_primitives_unitary_on_dense_space():
    configs = dense_site_configs()
    dim = len(configs)
    eye = np.eye(dim)
    cases = [
        PairTransfer(2, 1, 1),
        PairTransfer(0, 4, 2),
        WSwap(),
        ABRotation(math.pi / 8),
        Collide(1.1),
        DefectSplit(0.3),
    ]
    for op in cases:
        M = op_matrix(op, configs)
        assert_allclose(M.conj().T @ M, eye, atol=1e-12)


# -- total pointer count -----------------------------------------------------


def test_count_p_deterministic_needs_no_rng():
    st = classical([(1, 0, 1), (0, 0, 1)])
    after, (value,) = execute(st, Script([CountP()]), rng=None)
    assert value == 2.0
    assert sole_config(after) == sole_config(st)


def test_count_p_requires_rng_when_random():
    c1 = BasisConfig.from_counts([(1, 0, 1)])
    c2 = BasisConfig.from_counts([(1, 0, 0)])
    st = MixedState([(1.0, PureState({c1: SQ(0.5), c2: SQ(0.5)}))])
    with pytest.raises(ValueError):
        execute(st, Script([CountP()]), rng=None)


def test_count_p_collapse_and_statistics():
    c1 = BasisConfig.from_counts([(1, 0, 1)])
    c2 = BasisConfig.from_counts([(1, 0, 0)])
    st = MixedState([(1.0, PureState({c1: SQ(0.3), c2: SQ(0.7)}))])
    rng = np.random.default_rng(123)
    hits = 0
    trials = 4000
    for _ in range(trials):
        after, (value,) = execute(st, Script([CountP()]), rng)
        expect_cfg = c1 if value == 1.0 else c2
        assert sole_config(after) == expect_cfg  # collapsed
        hits += value == 1.0
    assert abs(hits / trials - 0.3) < 3 * SQ(0.3 * 0.7 / trials)


def test_count_p_mixture_distribution():
    b1 = PureState({BasisConfig.from_counts([(0, 0, 2)]): 1.0})
    b2 = PureState({BasisConfig.from_counts([(0, 0, 5)]): 1.0})
    st = MixedState([(0.4, b1), (0.6, b2)])
    rng = np.random.default_rng(9)
    seen = {execute(st, Script([CountP()]), rng)[1][0] for _ in range(200)}
    assert seen == {2.0, 5.0}


@pytest.mark.parametrize("op", [CountP(), EmptyP()], ids=["COUNTP", "EP"])
def test_count_p_sums_weights_left_to_right(op):
    # The three squared amplitudes of the pointer-count-1 terms add up to
    # 0.49999999999999994 left to right, 0.5 when correctly rounded.  Under
    # COUNTP the collapse probability and the branch weight are the same
    # left-to-right sum, so the lone branch keeps weight exactly 1 on every
    # Python; under EP that sum is the weight of their pointer pattern.
    top = BasisConfig.from_counts([(0, 0, 0), (0, 0, 0)])
    ones = [BasisConfig.from_counts([(k, 0, 1), (0, 0, 0)]) for k in range(3)]
    squares = [2 / 30, 6 / 30, 7 / 30]
    st = MixedState([(1.0, PureState({top: SQ(0.5), **dict(zip(ones, map(SQ, squares)))}))])
    kept = [abs(complex(SQ(x))) ** 2 for x in squares]
    assert kept[0] + kept[1] + kept[2] != math.fsum(kept)

    class Upper:
        def random(self):
            return 0.75

    for fn in (_step, step_terms):
        after, value = fn(st, op, Upper())
        if op == CountP():
            assert value == 1.0
            ((w, _),) = after.branches
            assert w == 1.0
        else:
            assert value is None
            (w,) = [w for w, branch in after.branches if len(branch.terms) == 3]
            assert w == kept[0] + kept[1] + kept[2] == 0.49999999999999994


@pytest.mark.parametrize("r, outcome", [
    (0.7, 1.0),  # equal to the first running total: not below it
    (math.nextafter(1.0, 0.0), 2.0),  # the largest draw, equal to the total
    (1.0, 2.0),  # above every running total
])
def test_count_p_draw_at_the_running_totals(r, outcome):
    # outcomes 0, 1, 2 with probabilities 0.7, 0.2, 0.1, whose running
    # totals are 0.7, 0.8999999999999999 and 0.9999999999999999
    st = MixedState([(w, PureState({BasisConfig.from_counts([(0, 0, p)]): 1.0}))
                     for p, w in enumerate([0.7, 0.2, 0.1])])
    assert 0.7 + 0.2 + 0.1 == math.nextafter(1.0, 0.0)

    class Fixed:
        def random(self):
            return r

    for fn in (_step, step_terms):
        after, value = fn(st, CountP(), Fixed())
        assert value == outcome
        ((w, branch),) = after.branches
        assert w == 1.0
        assert branch.terms == {BasisConfig.from_counts([(0, 0, int(outcome))]): 1.0}


# -- script DSL --------------------------------------------------------------


def test_script_text_round_trip():
    script = Script(
        [
            PairTransfer(2, 1, 1),
            WSwap(),
            ABRotation(math.pi / 8),
            Collide(math.pi),
            Shift(-3),
            EmptyB(),
            EmptyP(),
            DefectSplit(0.125),
            CountP(),
        ]
    )
    text = script.to_text()
    assert Script.parse(text) == script
    # float fields survive bit-exactly via repr
    reparsed = Script.parse(text)
    assert reparsed[2].theta == math.pi / 8
    assert reparsed[3].phi == math.pi


def test_script_parse_comments_and_blanks():
    text = "\n# setup\nU 2 1 1   # move a pair\n\nS -1\n"
    script = Script.parse(text)
    assert script == (PairTransfer(2, 1, 1), Shift(-1))


def test_script_parse_errors_carry_line_numbers():
    with pytest.raises(ScriptParseError, match="line 2"):
        Script.parse("U 1 0 0\nU 1 oops 0\n")
    with pytest.raises(ScriptParseError):
        Script.parse("FROB 1\n")
    with pytest.raises(ScriptParseError):
        Script.parse("U 1 0\n")  # arity
    # one argument too many or too few for every head
    for line in ("W 1", "V", "C 1 2", "S", "EB 0", "EP 1", "SPLIT", "COUNTP 1", "U 1 0 0 0"):
        with pytest.raises(ScriptParseError, match="line 2"):
            Script.parse(f"W\n{line}\n")


@pytest.mark.parametrize("line", ["V inf", "V nan", "C nan", "C -inf"])
def test_script_parse_rejects_non_finite_angles(line):
    with pytest.raises(ScriptParseError, match=f"line 3: '{line}': .* must be finite"):
        Script.parse(f"W\n\n{line}\n")
    with pytest.raises(ValueError, match="must be finite"):
        {"V": ABRotation, "C": Collide}[line[0]](float(line[2:]))
    with pytest.raises(ValueError, match=f"must be finite, got {line[2:]}$"):
        {"V": ABRotation, "C": Collide}[line[0]](np.float64(line[2:]))


def test_script_concatenation():
    a = Script([Shift(1)])
    b = Script([EmptyP()])
    assert a + b == (Shift(1), EmptyP())
    assert type(a + b) is Script and type(a + [CountP()]) is Script


def test_script_is_the_tuple_of_its_ops():
    ops = (PairTransfer(2, 1, 1), Shift(-1), ABRotation(0.25), EmptyP())
    script = Script(ops)
    assert isinstance(script, tuple) and script == ops and hash(script) == hash(ops)
    assert {ops: "compiled"}[Script(list(ops))] == "compiled"  # a cache key by its ops
    assert Script() == () and list(script) == list(ops)
    assert repr(script) == "Script(4 ops)" and repr(Script()) == "Script(0 ops)"


def test_identity_swap_keeps_signed_zero_parts():
    # PairTransfer(m, n, 0) swaps a site with itself: it moves no term, so
    # a -0.0 part stays -0.0, as in the dict loop; a swap that moves terms
    # adds them to 0.0 and so turns -0.0 into 0.0
    signed = {BasisConfig.from_counts(c): z for c, z in [
        ([(1, 0, 1), (2, 0, 0)], complex(-0.0, math.sqrt(0.5))),
        ([(2, 0, 0), (1, 0, 1)], complex(math.sqrt(0.5), -0.0)),
    ]}
    state = MixedState([(1.0, PureState(signed))])
    for op, kept in ((PairTransfer(1, 1, 0), True), (PairTransfer(2, 0, 0), True),
                     (WSwap(), False)):
        (_, got), = run_op(state, op).branches
        (_, want), = step_terms(state, op)[0].branches
        assert got.amps.tobytes() == want.amps.tobytes()
        assert (got.amps.tobytes() == state.branches[0][1].amps.tobytes()) is kept
    with pytest.raises(OccupationOverflowError, match="transfer endpoint exceeds cutoff"):
        run_op(state, PairTransfer(M_MAX + 1, 0, 0))


# -- interpreter: fast path vs generic path ----------------------------------


def _random_basis_script(rng, max_val=4):
    ops = []
    for _ in range(int(rng.integers(1, 8))):
        kind = rng.integers(0, 6)
        if kind == 0:
            m, n = int(rng.integers(0, max_val)), int(rng.integers(0, max_val))
            x = int(rng.integers(-m, n + 1))
            ops.append(PairTransfer(m, n, x))
        elif kind == 1:
            ops.append(WSwap())
        elif kind == 2:
            ops.append(Shift(int(rng.integers(-4, 5))))
        elif kind == 3:
            ops.append(Collide(float(rng.uniform(-3, 3))))
        elif kind == 4:
            ops.append(EmptyP())
        else:
            ops.append(EmptyB())
    return Script(ops)


def test_fast_path_matches_generic_path():
    rng = np.random.default_rng(17)
    for _ in range(100):
        cfg = random_config(rng, L=int(rng.integers(2, 6)), max_count=3)
        script = _random_basis_script(rng)
        state = classical(cfg)
        fast, counts = execute(state, script)
        assert counts == []
        slow = _run_generic(state, script)
        assert fidelity(fast, slow, mode="strict") == 1.0


def _run_generic(state, script):
    """Apply a basis-preserving script op by op through the sparse kernels."""
    for op in script:
        state = run_op(state, op)
    return state


def _basis_op():
    transfer = st.tuples(st.integers(0, M_MAX), st.integers(0, M_MAX)).flatmap(
        lambda mn: st.integers(-mn[0], mn[1]).map(lambda x: PairTransfer(mn[0], mn[1], x))
    )
    return st.one_of(
        transfer,
        st.just(WSwap()),
        st.integers(-12, 12).map(Shift),  # |x| >= L on the lattices below
        st.floats(-4.0, 4.0, allow_nan=False).map(Collide),
        st.just(EmptyB()),
        st.just(EmptyP()),
    )


_INT_DTYPES = [np.int8, np.uint8, np.int16, np.int32, np.int64]


@st.composite
def classical_cases(draw):
    """A batch of L <= 5 lattices with occupations up to M_MAX, in any of
    the integer dtypes apply_classical takes, and a basis-preserving
    script whose transfers may reach past M_MAX."""
    L = draw(st.integers(1, 5))
    site = st.tuples(*[st.integers(0, M_MAX)] * 3)
    batch = draw(st.lists(st.lists(site, min_size=L, max_size=L), min_size=1, max_size=4))
    script = Script(draw(st.lists(_basis_op(), min_size=1, max_size=12)))
    return np.array(batch, dtype=draw(st.sampled_from(_INT_DTYPES))), script


@given(classical_cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_prop_compiled_engine_matches_sparse_kernels(case):
    # the reference is the dict engine, which shares no step with the
    # compiled one; execute runs the compiled one-op steps
    batch, script = case
    states = [classical(BasisConfig.from_counts(occ.tolist())) for occ in batch]
    try:
        slow = [_run_dict(state, script) for state in states]
    except OccupationOverflowError:
        with pytest.raises(OccupationOverflowError):
            execute(states[0], script)
        with pytest.raises(OccupationOverflowError):
            apply_classical(batch, script)
        return
    batched = apply_classical(batch, script)
    assert batched.dtype == np.int64 and batched.shape == batch.shape
    for state, ref, out in zip(states, slow, batched):
        fast, counts = execute(state, script)
        assert counts == [] and len(fast.branches) == 1
        ((config, amp),) = fast.branches[0][1].terms.items()
        ((ref_config, ref_amp),) = ref.branches[0][1].terms.items()
        assert config == ref_config
        assert abs(amp - ref_amp) <= 1e-12
        assert np.array_equal(out, np.array(config.sites))


def _run_dict(state, script):
    for op in script:
        state, _ = step_terms(state, op)
    return state


@given(classical_cases(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_prop_input_above_cutoff_raises_on_both_paths(case, data):
    batch, script = case
    b, k, level = (data.draw(st.integers(0, n - 1)) for n in batch.shape)
    batch[b, k, level] = M_MAX + 1
    with pytest.raises(OccupationOverflowError):
        apply_classical(batch, script)
    with pytest.raises(OccupationOverflowError):
        PureState({BasisConfig.from_counts(batch[b]): 1.0})


def test_apply_classical_batched_matches_single():
    rng = np.random.default_rng(23)
    script = Script([PairTransfer(2, 1, 1), Shift(1), WSwap(), EmptyP()])
    batch = rng.integers(0, 4, size=(40, 5, 3))
    out = apply_classical(batch, script)
    for i in range(batch.shape[0]):
        single = apply_classical(batch[i], script)
        assert np.array_equal(out[i], single)


def test_execute_matches_apply_classical_on_a_long_lattice():
    # a one-term state is not sorted by its 10^4 site keys after each op
    rng = np.random.default_rng(29)
    occ = np.stack([rng.integers(0, 3, 10_000), rng.integers(0, 2, 10_000),
                    rng.integers(0, 2, 10_000)], axis=-1)
    script = Script.parse("W\nS 3\nU 2 1 1\nS -3\nW\n")
    out, counts = execute(classical(occ.tolist()), script)
    ((weight, state),) = out.branches
    assert counts == [] and weight == 1.0 and state.amps.tolist() == [1.0]
    assert np.array_equal(sole_config(out).sites, apply_classical(occ, script))


@pytest.mark.parametrize("L", [1, 2, 3, 17])
def test_shift_steps_match_np_roll(L):
    # every shift, past the ring both ways too, on batches of any rank; the
    # table pending at a shift folds into its packed lookup, one follows it
    rng = np.random.default_rng(40 + L)
    for shape in ((L,), (4, L), (2, 3, L)):
        codes = rng.integers(0, len(_SITE_TABLE), size=shape).astype(np.uint16)
        occ = _SITE_TABLE[codes]
        kept = codes.copy(), occ.copy()
        for x in (-2 * L - 1, -L - 1, -L, -1, 0, 1, L - 1, L, L + 1, 2 * L + 3):
            script = Script([PairTransfer(2, 1, 1), Shift(x), WSwap(), Shift(1)])
            want = run_by_rolls(codes, script)
            assert np.array_equal(_run(codes, script), want), (shape, x)
            assert np.array_equal(apply_classical(occ, script), _SITE_TABLE[want]), (shape, x)
            assert np.array_equal(codes, kept[0]) and np.array_equal(occ, kept[1])


def test_shift_of_an_empty_ring_or_batch():
    for shape in ((2, 0, 3), (0, 3), (0, 4, 3)):
        out = apply_classical(np.zeros(shape, np.int64), Script([Shift(1)]))
        assert out.shape == shape


def test_apply_classical_rejects_quantum_ops():
    with pytest.raises(ValueError):
        apply_classical(np.zeros((2, 3), dtype=int), Script([ABRotation(0.1)]))
    # a negative count has no site code, so it must not alias another site
    with pytest.raises(ValueError, match="negative"):
        apply_classical(np.array([[-1, 0, 0], [0, 0, 1]]), Script([Shift(1)]))


# -- the site-code engine against the dict engine ----------------------------


_UNITS = [1.0, -1.0, 1j, -1j]  # exact zero parts, -0.0 among them


@st.composite
def mixed_states(draw):
    """1-3 branches of 1-6 terms on L <= 4 sites, occupations <= 3."""
    L = draw(st.integers(1, 4))
    site = st.tuples(*[st.integers(0, 3)] * 3)
    amp = st.one_of(
        st.sampled_from(_UNITS),
        st.tuples(st.floats(0.1, 1.0), st.floats(-math.pi, math.pi)).map(
            lambda rp: rp[0] * cmath.exp(1j * rp[1])),
    )
    branches = []
    for _ in range(draw(st.integers(1, 3))):
        configs = draw(st.lists(st.tuples(*[site] * L), min_size=1, max_size=6, unique=True))
        amps = np.array(draw(st.lists(amp, min_size=len(configs), max_size=len(configs))))
        amps /= np.linalg.norm(amps)
        terms = {BasisConfig.from_counts(c): a for c, a in zip(configs, amps)}
        branches.append((draw(st.floats(0.05, 1.0)), PureState(terms)))
    total = sum(w for w, _ in branches)
    return MixedState([(w / total, b) for w, b in branches])


def _any_op():
    transfer = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda mn: st.integers(-mn[0], mn[1]).map(lambda x: PairTransfer(mn[0], mn[1], x))
    )
    angle = st.floats(-math.pi, math.pi)
    return st.one_of(
        angle.map(ABRotation),  # twice: rotations sum the most terms
        transfer,
        st.just(WSwap()),
        angle.map(ABRotation),
        angle.map(Collide),
        st.integers(-4, 4).map(Shift),
        st.just(EmptyB()),
        st.just(EmptyP()),
        st.floats(0.0, 1.0).map(DefectSplit),
        st.just(CountP()),
    )


def _reprs(state):
    return [(repr(w), [(c, repr(a)) for c, a in b.terms.items()]) for w, b in state.branches]


# Two rotations in a row whose sums run over three or more terms, so that
# their order shows in the last bits (found by a search over random states).
_ORDER_CASE = MixedState([(1.0, PureState({
    BasisConfig.from_counts([(1, 3, 3), (2, 2, 1)]): 0.5148991135321371 - 0.2285737675651756j,
    BasisConfig.from_counts([(3, 0, 1), (3, 3, 1)]): 0.4686021770766209 + 0.6712895794142841j,
    BasisConfig.from_counts([(3, 0, 2), (0, 0, 0)]): -0.08265153064744028 + 0.07472590150249474j,
}))])


# Two self-swaps in a row on a state with -0.0 parts: a run of swaps that
# move no term must leave every signed zero as it is.
_SIGNED_ZEROS = MixedState([(1.0, PureState({BasisConfig.from_counts(c): z for c, z in [
    ([(1, 0, 1), (2, 0, 0)], complex(-0.0, math.sqrt(0.5))),
    ([(2, 0, 0), (1, 0, 1)], complex(math.sqrt(0.5), -0.0)),
]}))])


@given(mixed_states(), st.lists(_any_op(), min_size=1, max_size=4), st.integers(0, 2**32))
@example(_ORDER_CASE, [ABRotation(-1.5699505104210034), ABRotation(0.8147159229441217)], 0)
@example(_SIGNED_ZEROS, [PairTransfer(1, 1, 0), PairTransfer(2, 0, 0)], 0)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_prop_engine_matches_dict_engine(state, ops, seed):
    # op by op through _step, and the whole list through execute, which
    # steps each run of swaps and shifts as one compiled script
    rng, rng_ref, rng_run = (np.random.default_rng(seed) for _ in range(3))
    start, ref, values = state, state, []
    for op in ops:
        try:
            ref, value_ref = step_terms(ref, op, rng_ref)
        except OccupationOverflowError:
            with pytest.raises(OccupationOverflowError):
                _step(state, op, rng)
            with pytest.raises(OccupationOverflowError):
                execute(start, Script(ops), rng_run)
            return
        state, value = _step(state, op, rng)
        assert value == value_ref
        assert _reprs(state) == _reprs(ref)
        values += [] if value_ref is None else [value_ref]
    out, counts = execute(start, Script(ops), rng_run)
    assert counts == values and _reprs(out) == _reprs(ref)
    assert rng.random() == rng_ref.random() == rng_run.random()  # the same draws were taken


def _pointer_rows(L, live):
    """Two configurations of L sites: the first ``live`` sites (1, 0, p),
    p = 0, 1, ..., and the rest (0, 0, p), whose pointer digit differs
    between the two."""
    rows = []
    for turn in (0, 1):
        rows.append([(1, 0, k) if k < live else (0, 0, (k + turn) % 7) for k in range(L)])
    return rows


def _terms(rows):
    amps = np.array([0.6, -0.64j, 0.48])[:len(rows)]
    terms = dict(zip(map(BasisConfig.from_counts, rows), amps / np.linalg.norm(amps)))
    return MixedState([(1.0, PureState(terms))])


@st.composite
def wide_states(draw):
    """One branch of 1-3 terms on 12 to 24 sites, so that a rotation packs
    its rows into one word or several: at most five live sites, whose
    site is any with a + b <= 2, pointer-only sites (0, 0, p), which V
    and SPLIT fix but whose p may differ between terms, and sites that
    are empty in every term."""
    L = draw(st.sampled_from([12, 13, 17, 20, 24]))
    live = draw(st.sets(st.integers(0, L - 1), max_size=5))
    empty = draw(st.sets(st.integers(0, L - 1))) - live
    ab = st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    site = {True: st.tuples(ab, st.integers(0, M_MAX)).map(lambda t: (*t[0], t[1])),
            False: st.integers(0, M_MAX).map(lambda p: (0, 0, p))}
    sites = [st.just((0, 0, 0)) if k in empty else site[k in live] for k in range(L)]
    # the other terms redraw some sites of the first, so that rows can
    # differ in one word alone
    configs = [draw(st.tuples(*sites))]
    for _ in range(draw(st.integers(0, 2))):
        redrawn = draw(st.sets(st.integers(0, L - 1), min_size=1))
        configs.append(tuple(draw(sites[k]) if k in redrawn else configs[0][k] for k in range(L)))
    configs = list(dict.fromkeys(configs))
    amps = np.array(draw(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(-math.pi, math.pi)),
                                  min_size=len(configs), max_size=len(configs))))
    amps = amps[:, 0] * np.exp(1j * amps[:, 1])
    amps /= np.linalg.norm(amps)
    return MixedState([(1.0, PureState(dict(zip(map(BasisConfig.from_counts, configs), amps))))])


_WIDE, _SHIFTED = _pointer_rows(20, 3)

# Cases for where a rotation regroups its rows, with the number of sites
# that do.  Rows enter distinct, so two meet only where a column holds two
# ids that share an image.  One classical row of down, up, a home, its
# image and a pointer-only site: every code but the last meets another,
# but a constant column holds one id, so no site regroups.
_CLASSICAL = _terms([[(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 3), (1, 0, 0)]])
# Two formatted computers (qubit, qubit, home, gap) after V(0.3) and a
# Collide through the dict engine: a product state whose six occupied
# columns each hold two ids that share their images, so V(-0.3) regroups
# at every one of them.
_PRODUCT = _terms([[(1, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 0)] * 2])
for _op in (ABRotation(0.3), Collide(math.pi)):
    _PRODUCT, _ = step_terms(_PRODUCT, _op)
# Column 0 holds down and up and regroups; column 1 is constant down,
# which meets up, and skips.  The 17 pointer-only columns differ between
# the terms, so they take fields too: 11 codes, 4 bits a site, two words.
_X = [(1, 0, 0), (1, 0, 0), (1, 0, 1)] + [(0, 0, k % 7) for k in range(17)]
_Y = _X[:3] + [(0, 0, (k + 1) % 7) for k in range(17)]
_MIXED = _terms([_X, [(0, 1, 0)] + _X[1:], _Y])
# SPLIT: column 0 holds both sites it mixes, the other (2, 0, 0) columns
# are constant.
_MIXED_SPLIT = _terms([[(2, 0, 0), (2, 0, 0), (0, 0, 1)] * 2,
                       [(1, 1, 0), (2, 0, 0), (0, 0, 1)] + [(2, 0, 0), (2, 0, 0), (0, 0, 1)]])
_REGROUPS = [(_CLASSICAL, ABRotation(0.3), 0), (_PRODUCT, ABRotation(-0.3), 6),
             (_MIXED, ABRotation(0.3), 1), (_MIXED_SPLIT, DefectSplit(0.3), 1)]


# V on five live sites (1, 0, p) leaves 17 codes, 5 bits a site: 12 sites
# fill one word and 13 take two.  On 20 sites 13 codes take 4 bits a site
# and two words, and the first two terms of the last V example differ in
# word 1 alone.
@given(wide_states(), st.one_of(st.floats(-math.pi, math.pi).map(ABRotation),
                                st.floats(0.0, 1.0).map(DefectSplit)))
@example(_terms(_pointer_rows(12, 5)), ABRotation(0.3))
@example(_terms(_pointer_rows(13, 5)), ABRotation(0.3))
@example(_terms(_pointer_rows(20, 3)), ABRotation(-1.1))
@example(_terms([_WIDE, _WIDE[:-1] + [(0, 0, 0)], _SHIFTED]), ABRotation(0.3))
@example(_terms([[(2, 0, 0), (0, 0, 0), (1, 1, 0)] * 6, [(1, 1, 0), (0, 0, 0), (2, 0, 0)] * 6]),
         DefectSplit(0.3))
@example(*_REGROUPS[0][:2])
@example(*_REGROUPS[1][:2])
@example(*_REGROUPS[2][:2])
@example(*_REGROUPS[3][:2])
@settings(max_examples=100, deadline=None, derandomize=True)
def test_prop_rotation_on_wide_states_matches_dict_engine(state, op):
    ref, _ = step_terms(state, op)
    out, _ = _step(state, op)
    assert _reprs(out) == _reprs(ref)


@pytest.mark.parametrize("state, op, regroups", _REGROUPS)
def test_rotation_regroups_only_where_rows_can_meet(monkeypatch, state, op, regroups):
    # rows enter distinct, so two expanded rows are equal only where the
    # column holds two ids that share an image; elsewhere no grouping runs
    sizes = []
    monkeypatch.setattr(primitives, "_groups",
                        lambda keys: sizes.append(len(keys)) or _groups(keys))
    ((_, branch),) = state.branches
    primitives._rotate(branch, op)
    assert len(sizes) == regroups


def _rotation_bits(branch, op):
    codes, amps = primitives._rotate(branch, op)
    return codes.tobytes(), amps.tobytes()


def test_rotation_memo_gives_the_bits_of_a_cold_one():
    ((_, branch),) = _PRODUCT.branches
    warm = [_rotation_bits(branch, ABRotation(-0.3)) for _ in range(2)]
    primitives._rotation_tables.cache_clear()
    assert warm == [_rotation_bits(branch, ABRotation(-0.3))] * 2


def test_rotation_tables_are_read_only():
    # the memo hands the same arrays to every caller
    held = np.unique(_encode([(1, 0, 0), (0, 1, 0), (1, 0, 1)])).astype(np.intp).tobytes()
    tables = primitives._rotation_tables(ABRotation(0.3), held)
    assert len(tables) == 9
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[:1] = table[:1]


def test_rotation_memo_is_bounded():
    # one entry per (op, held codes): distinct user angles must not pile up
    bound = primitives._rotation_tables.cache_info().maxsize
    assert bound is not None
    one = classical([(1, 0, 0), (0, 0, 1)])
    for k in range(bound + 20):
        execute(one, Script([ABRotation(0.001 * k + 0.5)]))
    assert primitives._rotation_tables.cache_info().currsize <= bound


@st.composite
def group_keys(draw):
    """1-d uint64 keys, as a Collide weight, a pointer total or a packed
    rotation key, or 2-d uint8, uint16 or uint64 rows, as digit rows, code
    rows or the words of packed keys, over a few values so that most of
    them repeat.  Packed keys fill the top bits.  1 and 256 sort one way
    as numbers and the other way as bytes."""
    n = draw(st.integers(1, 30))
    top = [2**63, 2**63 + 1, 2**64 - 1]
    dtype = draw(st.sampled_from([np.uint64, np.uint8, np.uint16, "words"]))
    if dtype is np.uint64:
        value = st.one_of(st.integers(0, 6), st.sampled_from(top))
        return np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=dtype)
    cols = draw(st.integers(1, 4))
    value = st.sampled_from({np.uint8: [0, 1, 255], np.uint16: [0, 1, 256, 65535],
                             "words": [0, 1, 256, *top]}[dtype])
    cells = draw(st.lists(value, min_size=n * cols, max_size=n * cols))
    return np.array(cells, dtype=np.uint64 if dtype == "words" else dtype).reshape(n, cols)


@given(group_keys())
@example(np.array([[1, 0, 255]], dtype=np.uint8))  # one row
@example(np.array([], dtype=np.uint64))  # no item
@example(np.array([[256], [1], [256], [0]], dtype=np.uint16))  # one column
@settings(max_examples=200, deadline=None, derandomize=True)
def test_prop_groups_match_dict_grouping(keys):
    if keys.ndim == 1:
        items = keys.tolist()
    elif keys.dtype == np.uint8:
        items = [tuple(r) for r in keys.tolist()]  # digit rows sort like their bytes
    else:
        items = [r.tobytes() for r in keys]
    group, first = _groups(keys)
    # numbered in sorted order, the order of an emptying channel's parts
    ranked = sorted(set(items))
    assert group.tolist() == [ranked.index(x) for x in items]
    assert first.tolist() == [items.index(x) for x in ranked]
    # re-ranked by first index, the row order that _rotate keeps
    first_of = {}
    first_copy = [first_of.setdefault(x, i) for i, x in enumerate(items)]
    assert first[group].tolist() == first_copy
    assert first[np.argsort(first)].tolist() == sorted(set(first_copy))


# -- translation covariance --------------------------------------------------


def test_translation_covariance():
    rng = np.random.default_rng(31)
    ops = [
        PairTransfer(2, 1, 1),
        WSwap(),
        ABRotation(0.37),
        Collide(1.3),
        Shift(2),
        EmptyP(),
        EmptyB(),
        DefectSplit(0.25),
    ]
    for _ in range(20):
        state = random_state(rng, L=4)
        d = int(rng.integers(1, 4))
        for op in ops:
            a = translate(run_op(state, op), d)
            b = run_op(translate(state, d), op)
            assert fidelity(a, b, mode="strict") == 1.0


# -- property-based checks ---------------------------------------------------


@st.composite
def small_states(draw):
    L = draw(st.integers(2, 4))
    nterms = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    return random_state(rng, L=L, nterms=nterms)


@given(small_states(), st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_prop_pair_transfer_preserves_norm(state, m, n, x):
    if m + x < 0 or n - x < 0 or max(m, n, m + x, n - x) > M_MAX:
        return
    out = run_op(state, PairTransfer(m, n, x))
    for _, branch in out.branches:
        assert abs(branch.norm_sq() - 1.0) < 1e-9


@given(small_states(), st.floats(-math.pi, math.pi, allow_nan=False))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_prop_ab_rotation_preserves_norm(state, theta):
    out = run_op(state, ABRotation(theta))
    for _, branch in out.branches:
        assert abs(branch.norm_sq() - 1.0) < 1e-9


@given(small_states())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_prop_w_swap_involution(state):
    assert fidelity(state, run_op(run_op(state, WSwap()), WSwap()), mode="strict") == 1.0


# -- V and SPLIT on several sites against a dense Kronecker oracle ----------

# One-site basis: a, b <= 2 on input, so V reaches a+b <= 4; p <= 2.
_SITES = [(a, b, p) for a in range(5) for b in range(5 - a) for p in range(3)]
_SITE_INDEX = {s: i for i, s in enumerate(_SITES)}


def _one_site_v(theta):
    H = _dense_ab_hamiltonian([BasisConfig.from_counts([s]) for s in _SITES])
    return scipy.linalg.expm(-1j * theta * H)


def _one_site_split(eps):
    M = np.eye(len(_SITES))
    x, y = _SITE_INDEX[(2, 0, 0)], _SITE_INDEX[(1, 1, 0)]
    M[x, x] = M[y, y] = SQ(1 - eps)
    M[y, x], M[x, y] = SQ(eps), -SQ(eps)
    return M


def _dense(terms, L):
    vec = np.zeros(len(_SITES) ** L, dtype=complex)
    for config, amp in terms.items():
        idx = [_SITE_INDEX[tuple(s)] for s in config.sites]
        vec[np.ravel_multi_index(idx, (len(_SITES),) * L)] = amp
    return vec


def _kron_apply(M, vec, L):
    """(M kron M kron ... kron M) @ vec with L factors, applied one factor
    per site so the d**L x d**L product is never stored."""
    psi = vec.reshape((len(_SITES),) * L)
    for k in range(L):
        psi = np.moveaxis(np.tensordot(M, psi, axes=([1], [k])), 0, k)
    return psi.reshape(-1)


@st.composite
def rotate_cases(draw):
    """Two or three sites with occupations up to 2 (biased towards SPLIT's
    (2,0,0) and (1,1,0)), and 1 to 4 terms with random amplitudes."""
    L = draw(st.integers(2, 3))
    site = st.one_of(
        st.sampled_from([(2, 0, 0), (1, 1, 0)]), st.tuples(*[st.integers(0, 2)] * 3)
    )
    configs = draw(st.lists(st.tuples(*[site] * L), min_size=1, max_size=4, unique=True))
    polar = st.tuples(st.floats(0.1, 1.0), st.floats(-math.pi, math.pi))
    amps = np.array([r * cmath.exp(1j * phi) for r, phi in
                     draw(st.lists(polar, min_size=len(configs), max_size=len(configs)))])
    amps /= np.linalg.norm(amps)
    return L, {BasisConfig.from_counts(c): a for c, a in zip(configs, amps)}


@given(rotate_cases(), st.floats(-math.pi, math.pi), st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_prop_rotations_match_kronecker_oracle_on_several_sites(case, theta, eps):
    L, terms = case
    state = MixedState([(1.0, PureState(terms))])
    vec = _dense(terms, L)
    for out, M in ((run_op(state, ABRotation(theta)), _one_site_v(theta)),
                   (run_op(state, DefectSplit(eps)), _one_site_split(eps))):
        ((w, branch),) = out.branches
        assert w == 1.0
        assert_allclose(_dense(branch.terms, L), _kron_apply(M, vec, L), rtol=0, atol=1e-12)
