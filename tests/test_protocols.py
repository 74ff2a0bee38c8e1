import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from latticeqc import (
    M_MAX,
    BasisConfig,
    EmptyP,
    FillDistribution,
    OccupationOverflowError,
    PairTransfer,
    RepairReport,
    Script,
    StrayAtomsError,
    apply_classical,
    classical,
    count_computers_protocol,
    create_defects_script,
    depopulate_script,
    execute,
    format_script,
    oracle_computers,
    oracle_homes,
    prepare_script,
    repair_occupations,
    repair_round_script,
    sample_defect_creation,
    sample_occupations,
    verify_formatted,
)
from latticeqc.cli import _dist_from_args, build_parser
from latticeqc.lattice import _encode
from latticeqc.primitives import _run
from latticeqc.protocols import (
    _HOME,
    _QUBIT,
    _format_codes,
    _homes,
    _left_window,
    _repair,
    format_counts,
)

from helpers import (
    expected_formatted,
    homes_by_rolls,
    homes_of_codes_by_rolls,
    repair_by_script,
    repair_occupations_dense,
    sole_config,
)


def run_on_counts(a_counts, script):
    occ = np.zeros((len(a_counts), 3), dtype=np.int64)
    occ[:, 0] = a_counts
    return apply_classical(occ, script)


# -- depopulation ------------------------------------------------------------


def test_depopulate_script_example():
    out = run_on_counts([5, 3, 2, 1, 0], depopulate_script(5))
    assert_array_equal(out[:, 0], [2, 2, 2, 1, 0])
    assert not out[:, 1:].any()


def test_depopulate_script_structure():
    script = depopulate_script(4, target=2)
    assert script == (
        PairTransfer(3, 0, -1),
        EmptyP(),
        PairTransfer(4, 0, -2),
        EmptyP(),
    )


def test_depopulate_to_four():
    out = run_on_counts([6, 5, 4, 3, 0], depopulate_script(6, target=4))
    assert_array_equal(out[:, 0], [4, 4, 4, 3, 0])


def test_depopulate_matches_closed_form():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 7, size=64)
    out = run_on_counts(a, depopulate_script(6))
    assert_array_equal(out[:, 0], np.minimum(a, 2))


def test_depopulate_validation():
    with pytest.raises(ValueError):
        depopulate_script(6, target=3)
    with pytest.raises(ValueError):
        depopulate_script(1, target=2)


# -- formatting --------------------------------------------------------------


def test_format_script_op_count():
    for n in (1, 2, 5):
        assert len(format_script(n)) == 1 + 4 * n + 1 + 4 * (n - 1) + 4
    with pytest.raises(ValueError):
        format_script(0)


def test_format_minimal_computer():
    out = run_on_counts([2, 1], format_script(1))
    assert_array_equal(out, [[1, 0, 0], [1, 0, 1]])


def test_format_kills_unsupported_candidate():
    out = run_on_counts([1, 1], format_script(1))
    assert not out.any()


def test_format_two_qubit_computer():
    out = run_on_counts([2, 2, 1], format_script(2))
    assert_array_equal(out, [[1, 0, 0], [1, 0, 0], [1, 0, 1]])


def test_format_two_computers_with_leftover():
    out = run_on_counts([2, 2, 2, 1, 2, 2, 1], format_script(2))
    expected = np.array(
        [
            [0, 0, 0],  # unused pair site is emptied
            [1, 0, 0],
            [1, 0, 0],
            [1, 0, 1],
            [1, 0, 0],
            [1, 0, 0],
            [1, 0, 1],
        ]
    )
    assert_array_equal(out, expected)


def test_format_wraparound_window():
    out = run_on_counts([1, 2, 2], format_script(2))
    assert_array_equal(out, [[1, 0, 1], [1, 0, 0], [1, 0, 0]])


def test_format_adjacent_singles_compete():
    out = run_on_counts([2, 2, 1, 1], format_script(2))
    assert_array_equal(out, [[1, 0, 0], [1, 0, 0], [1, 0, 1], [0, 0, 0]])


_BAD_COUNTS = [7, 127, 128, 255, 256, 300, 70000, 2**40, -1, -129]


def _refused(count):
    """The error a count past the cutoff, or below zero, raises."""
    if count > M_MAX:
        return pytest.raises(OccupationOverflowError, match="^occupation exceeds cutoff 6$")
    return pytest.raises(ValueError, match="^negative occupation$")


@pytest.mark.parametrize("count", _BAD_COUNTS)
def test_bad_count_is_refused_in_any_dtype(count):
    # format_counts refuses a negative count and runs one above the cutoff
    # as M_MAX (depopulation ends both at two), so its narrow sites must
    # not wrap a count back into range; it refuses a batch by its shape.
    # A narrow input is checked in its own dtype; verify_formatted reads
    # site codes before it looks for strays
    for dtype in (np.min_scalar_type(count), np.int64):
        a = np.array([1, count, 2, 2], dtype=dtype)
        if count < 0:
            with _refused(count):
                format_counts(a, 1)
        else:
            assert_array_equal(format_counts(a, 1), format_counts([1, M_MAX, 2, 2], 1))
    with pytest.raises(ValueError, match=r"^expected shape \(L,\), got \(2, 3\)$"):
        format_counts(np.array([[2, 1, 2], [2, 2, count]]), 1)
    for dtype in (np.min_scalar_type(count), np.int64):
        occ = np.array([[2, 0, 0], [count, 0, 0], [1, 0, 0]], dtype=dtype)
        with _refused(count):
            apply_classical(occ, prepare_script(1))
        with _refused(count):
            verify_formatted(occ, 1)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64])
def test_format_codes_equal_the_cutoff_dependent_script(dtype):
    # prepare_script(n) depopulates from M_MAX on every ring; the script it
    # replaced stopped at the ring's largest count (at least two), and the
    # pairs past that count find no site to move
    rng = np.random.default_rng(24)
    for L in range(1, 9):
        rings = [*rng.integers(0, 10, size=(40, L), dtype=dtype),
                 *(np.full(L, c, dtype=dtype) for c in range(10))]
        for a in rings:
            occ = np.zeros((L, 3), dtype=np.int64)
            occ[:, 0] = np.minimum(a, M_MAX)
            cutoff = max(int(occ[:, 0].max()), 2)
            for n in range(1, 7):
                old = depopulate_script(cutoff, 2) + format_script(n)
                assert_array_equal(_format_codes(a, n), _run(_encode(occ), old))


_PAST_INT64 = 2**63


def test_count_past_int64_reads_alike_in_any_container():
    past = f"^count {_PAST_INT64} is too large for int64$"
    wide = np.array([[_PAST_INT64, 0, 0], [1, 0, 0]], dtype=np.uint64)
    for occ in (wide, wide.tolist(), wide[:1].tolist()):
        with pytest.raises(ValueError, match=past):
            classical(occ)
        with pytest.raises(ValueError, match=past):
            apply_classical(occ, Script())
        with pytest.raises(ValueError, match=past):
            verify_formatted(occ, 1)
    for a in (wide[:, 0], wide[:, 0].tolist()):
        with pytest.raises(ValueError, match=past):
            format_counts(a, 1)
    # uint64 counts within int64 run as before
    assert_array_equal(apply_classical(wide[1:], Script()), [[1, 0, 0]])
    assert_array_equal(format_counts(np.array([1, 2], dtype=np.uint64), 1), [[1, 0, 1], [1, 0, 0]])
    # a negative site is named first, whatever comes before it
    for big in (_PAST_INT64, M_MAX + 1):
        with pytest.raises(ValueError, match="^negative occupation$"):
            apply_classical([[big, 0, 0], [0, -1, 0]], Script())
        with pytest.raises(ValueError, match="^negative occupation$"):
            verify_formatted([[big, 0, 0], [0, -1, 0]], 1)
        with pytest.raises(ValueError, match="^negative occupation$"):
            format_counts([big, -1], 1)


def test_prepare_handles_overfilled_sites():
    out = run_on_counts([6, 2, 2, 1, 5], prepare_script(2))
    # 6 and 5 depopulate to 2, giving window sites for the home at 3
    assert_array_equal(out[:, 0], [0, 1, 1, 1, 0])
    assert out[3, 2] == 1


# -- the combinatorial oracle ------------------------------------------------


def test_oracle_homes_basic():
    homes = oracle_homes(np.array([2, 2, 1, 0, 2, 1]), 2)
    assert_array_equal(homes, [False, False, True, False, False, False])


def test_oracle_homes_batched():
    a = np.array([[2, 1, 0], [2, 2, 1]])
    homes = oracle_homes(a, 1)
    assert_array_equal(homes, [[False, True, False], [False, False, True]])


raw_lattices = st.integers(1, 12).flatmap(
    lambda L: st.lists(
        st.lists(st.integers(0, 8), min_size=L, max_size=L), min_size=1, max_size=4
    )
)


@given(a=raw_lattices, n=st.integers(1, 4))
@example(a=[[7, 1, 2]], n=1)
@example(a=[[8, 7, 1, 0, 3, 2, 1], [1, 2, 2, 2, 2, 2, 2]], n=2)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_prop_oracle_homes_on_raw_counts(a, n):
    # the rule needs no depopulation: counts of two or more, M_MAX and
    # above included, act as pairs
    a = np.array(a, dtype=np.int64)
    homes = oracle_homes(a, n)
    assert_array_equal(homes, oracle_homes(np.minimum(a, 2), n))
    for row, row_homes in zip(a, homes):
        assert_array_equal(oracle_homes(row, n), row_homes)
        assert_array_equal(row_homes, oracle_homes(np.minimum(row, 2), n))
        assert_array_equal(verify_formatted(format_counts(row, n), n), oracle_computers(row, n))


def _homes_or_strays(homes, codes, n):
    try:
        return homes(codes, n).tolist()
    except StrayAtomsError as exc:
        return exc.sites


@pytest.mark.parametrize("L", [1, 2, 3, 17])
def test_home_scans_match_np_roll(L):
    # windows as long as the ring and past it, on batches of any rank
    rng = np.random.default_rng(60 + L)
    for n in sorted({1, L - 1, L, L + 1, 2 * L + 1} - {0}):
        for shape in ((L,), (4, L), (2, 3, L)):
            a = rng.integers(0, 4, size=shape)
            kept = a.copy()
            assert_array_equal(oracle_homes(a, n), homes_by_rolls(a, n))
            site, left = a == 1, a >= 2
            kept_left = left.copy()
            assert_array_equal(_left_window(site, left, n), homes_by_rolls(a, n))
            assert_array_equal(a, kept)
            assert_array_equal(left, kept_left)
        for ring in rng.integers(0, 4, size=(6, L)):
            formatted = _format_codes(ring, n)  # every occupied site in a computer
            # and random homes, qubits and empty sites, mostly strays
            drawn = rng.choice(np.array([0, _QUBIT, _HOME], np.uint16), size=L, p=[0.2, 0.6, 0.2])
            for codes in (formatted, drawn):
                kept = codes.copy()
                assert (_homes_or_strays(_homes, codes, n)
                        == _homes_or_strays(homes_of_codes_by_rolls, codes, n))
                assert_array_equal(codes, kept)


def test_empty_rings_and_batches():
    empty = np.array([], np.int64)
    assert count_computers_protocol(empty, 3) == 0
    assert oracle_computers(empty, 3).size == 0
    assert oracle_homes(np.zeros((3, 0)), 2).shape == (3, 0)
    assert _homes(np.zeros(0, np.uint16), 2).size == 0


def test_oracle_window_cannot_wrap_onto_home():
    # with n >= L the inspected window cyclically reaches the home itself
    assert not oracle_homes(np.array([2, 1]), 2).any()
    assert not oracle_homes(np.array([1]), 1).any()


def test_oracle_computers_lists_homes():
    # the register of home 4 at n = 3, sites 1..3, is checked at the CLI
    homes = oracle_computers(np.array([0, 2, 2, 2, 1, 0]), 3)
    assert homes.dtype == np.int64
    assert_array_equal(homes, [4])


def test_oracle_computers_refuses_a_batch():
    # flat indices into a batch are not homes; oracle_homes stays batched
    batch = np.array([[2, 1, 0], [2, 2, 1]])
    with pytest.raises(ValueError, match=r"expected shape \(L,\), got \(2, 3\)"):
        oracle_computers(batch, 1)
    for row in batch:
        assert_array_equal(oracle_computers(row, 1), np.flatnonzero(oracle_homes(row, 1)))


def test_oracle_computers_wraparound_register():
    # the register wraps to sites (3, 0); checked at the CLI
    assert_array_equal(oracle_computers(np.array([2, 1, 0, 2]), 2), [1])


def test_expected_formatted_matches_simulation():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        a = rng.integers(0, 3, size=(50, 24))
        got = apply_classical(
            np.stack([a, np.zeros_like(a), np.zeros_like(a)], axis=-1),
            format_script(n),
        )
        assert_array_equal(got, expected_formatted(a, n))


# -- verification scan -------------------------------------------------------


def test_verify_formatted_lists_computers():
    cfg = BasisConfig.from_counts(
        [(0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 0)]
    )
    homes = verify_formatted(np.array(cfg.sites), 2)
    assert homes.dtype == np.int64
    assert_array_equal(homes, [3])


def test_verify_formatted_flags_strays():
    cfg = BasisConfig.from_counts([(2, 0, 0), (1, 0, 1)])
    with pytest.raises(StrayAtomsError) as err:
        verify_formatted(np.array(cfg.sites), 1)
    assert err.value.sites == (0, 1)
    assert str(err.value) == "stray atoms at sites (0, 1)"


def test_verify_formatted_takes_arrays():
    occ = [[1, 0, 0], [1, 0, 1], [0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 0, 1]]
    with pytest.raises(StrayAtomsError) as err:
        verify_formatted(np.array(occ), 1)
    assert err.value.sites == (3,)
    occ[3] = [0, 0, 0]
    assert_array_equal(verify_formatted(np.array(occ), 1), [1, 5])
    with pytest.raises(ValueError):
        verify_formatted(np.zeros((4, 2), dtype=int), 1)


def test_verify_formatted_refuses_a_batch():
    # a batch's stray sites would be axis indices, not sites
    batch = np.zeros((2, 50, 3), dtype=np.int64)
    batch[:, 1] = 1
    with pytest.raises(ValueError, match=r"^expected shape \(L, 3\), got \(2, 50, 3\)$"):
        verify_formatted(batch, 1)
    with pytest.raises(ValueError, match=r"^expected shape \(L, 3\), got \(4, 2\)$"):
        verify_formatted(np.zeros((4, 2), dtype=np.int64), 1)


def _homes_or_strays(find, occ, n):
    try:
        return find(occ, n).tolist()
    except StrayAtomsError as exc:
        return "strays", exc.sites


def verify_formatted_loop(occ, n):
    """Homes and stray sites of a formatted lattice, site by site."""
    L = len(occ)
    homes = [k for k in range(L) if occ[k] == (1, 0, 1)
             and all(occ[(k - j) % L] == (1, 0, 0) for j in range(1, n + 1))]
    covered = {(k - j) % L for k in homes for j in range(n + 1)}
    return homes, [k for k in range(L) if any(occ[k]) and k not in covered]


_formatted_sites = st.one_of(
    st.sampled_from([(0, 0, 0), (1, 0, 0), (1, 0, 1)]),
    st.tuples(*[st.integers(0, M_MAX)] * 3),
)


@given(occ=st.lists(_formatted_sites, min_size=1, max_size=12), n=st.integers(1, 14))
@example(occ=[(1, 0, 0), (1, 0, 1), (1, 0, 0), (1, 0, 1)], n=1)
@example(occ=[(1, 0, 0), (1, 0, 1), (1, 0, 1), (0, 0, 0)], n=1)  # adjacent homes
@example(occ=[(1, 0, 0), (1, 0, 1)], n=2)
@example(occ=[(1, 0, 0), (1, 0, 0), (1, 0, 1)], n=5)  # n >= L
@example(occ=[(1, 0, 0), (1, 0, 1), (0, 0, 0), (1, 0, 0)], n=2)  # register 3, 0
@settings(max_examples=400, deadline=None, derandomize=True)
def test_prop_verify_formatted_matches_site_rule(occ, n):
    """verify_formatted against the home and stray rule, site by site.

    No two computers can share a site: a home's n left neighbours are all
    (1,0,0), so no other home, a (1,0,1) site, lies within n sites of it
    on either side.  n >= L leaves no home at all, since the home is then
    one of its own left neighbours.
    """
    homes, strays = verify_formatted_loop(occ, n)
    want = ("strays", tuple(strays)) if strays else homes
    for dtype in (np.int8, np.int64):
        arr = np.array(occ, dtype=dtype)
        assert _homes_or_strays(verify_formatted, arr, n) == want
        assert _homes_or_strays(lambda o, n: _homes(_encode(o), n), arr, n) == want


def test_homes_on_codes_match_verify_formatted_at_scale():
    rng = np.random.default_rng(31)
    for n in (1, 3, 5):
        a = rng.choice(3, size=20_000, p=[0.1, 0.1, 0.8])
        final = format_counts(a, n)
        assert_array_equal(_homes(_encode(final), n), oracle_computers(a, n))
        assert_array_equal(_homes(_format_codes(a, n), n), oracle_computers(a, n))
        strays = rng.integers(0, a.size, size=7)
        final[strays] = (2, 0, 0)
        want = _homes_or_strays(verify_formatted, final, n)
        assert want[0] == "strays" and set(strays.tolist()) <= set(want[1])
        assert _homes_or_strays(lambda o, n: _homes(_encode(o), n), final, n) == want


@pytest.mark.parametrize(
    "a, message",
    [(np.array([[2, 1], [1, 2]]), r"expected shape (L,), got (2, 2)"),
     (np.array([2, -1, 1]), "negative occupation"),
     (np.array([2, -1, 1], dtype=np.int8), "negative occupation"),
     (np.array([2.0, 1.5, 1.0]), "expected integer counts"),
     (np.array([2.0, np.nan, 1.0]), "expected integer counts")],
)
def test_ring_refusals_read_alike_on_both_formatting_routes(a, message):
    for route in (format_counts, _format_codes, count_computers_protocol):
        with pytest.raises(ValueError) as exc:
            route(a, 1)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "occ, error, message",
    [(np.zeros((3, 2), dtype=np.int64), ValueError, r"expected shape (L, 3), got (3, 2)"),
     (np.array([[7, 0, 0], [1, 0, 1]]), OccupationOverflowError, "occupation exceeds cutoff 6"),
     (np.array([[1, 0, 0], [1, -1, 1]], dtype=np.int8), ValueError, "negative occupation"),
     (np.array([[1, 0, 0.5], [1, 0, 1]]), ValueError, "expected integer counts")],
)
def test_verify_formatted_refusals_are_encode_refusals(occ, error, message):
    with pytest.raises(error) as exc:
        verify_formatted(occ, 1)
    assert str(exc.value) == message
    if occ.shape[1] == 3:
        with pytest.raises(error) as exc:
            _encode(occ)
        assert str(exc.value) == message


def test_verify_formatted_agrees_with_oracle():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        a = rng.integers(0, 3, size=32)
        final = expected_formatted(a, n)
        got = verify_formatted(final, n)
        assert_array_equal(got, oracle_computers(a, n))


def test_verify_empty_lattice_has_no_computers():
    homes = verify_formatted(np.zeros((4, 3), dtype=np.int64), 2)
    assert homes.shape == (0,) and homes.dtype == np.int64


# -- repair ------------------------------------------------------------------


def test_repair_round_script_shape():
    script = repair_round_script(3, "fill_empty")
    assert script[0] == PairTransfer(4, 0, -2)
    assert script[2] == PairTransfer(0, 2, 1)
    script = repair_round_script(3, "fill_single")
    assert script[2] == PairTransfer(1, 2, 1)
    with pytest.raises(ValueError):
        repair_round_script(1, "fill_pair")


def test_repair_round_deposits_one_site_right():
    out = run_on_counts([4, 0, 2, 1, 0, 4, 4, 2], repair_round_script(1, "fill_empty"))
    assert_array_equal(out[:, 0], [2, 1, 2, 1, 0, 4, 4, 2])
    assert not out[:, 1:].any()


def test_repair_round_restores_unspent_donor():
    out = run_on_counts([4, 2, 2], repair_round_script(1, "fill_empty"))
    assert_array_equal(out[:, 0], [4, 2, 2])


def test_repair_round_fill_single():
    out = run_on_counts([4, 1, 2], repair_round_script(1, "fill_single"))
    assert_array_equal(out[:, 0], [2, 2, 2])


def test_repair_rounds_match_vectorized_driver():
    # the vectorized driver early-stops, but skipped rounds are no-ops,
    # so literal script execution must land on the same configuration
    rng = np.random.default_rng(14)
    for _ in range(30):
        L = int(rng.integers(3, 9))
        a = rng.integers(0, 5, size=L)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            repaired, _ = repair_occupations(a)
        occ = np.zeros((L, 3), dtype=np.int64)
        occ[:, 0] = a
        for phase in ("fill_empty", "fill_single"):
            for x in range(1, L):
                occ = apply_classical(occ, repair_round_script(x, phase))
        assert_array_equal(occ[:, 0], repaired)
        assert not occ[:, 1:].any()


def test_repair_script_on_ten_thousand_sites_matches_the_driver():
    # the protocol's own rounds on repair's default fill at L = 10^4, swept
    # through the compiled engine until a phase runs out of donors or of
    # defects, land where the one-pass driver does, in as many rounds
    dist = _dist_from_args(build_parser().parse_args(["repair", "--n", "1"]))
    a = sample_occupations(10_000, dist, np.random.default_rng(1))
    repaired, report = repair_occupations(a)
    sites, rounds = repair_by_script(a)
    assert_array_equal(sites[:, 0], repaired)
    assert not sites[:, 1:].any()
    assert rounds == report.rounds and report.residual_empty == report.residual_single == 0


def test_repair_with_surplus_donors_clears_everything():
    rng = np.random.default_rng(33)
    a = rng.choice([0, 1, 2, 4], size=200, p=[0.05, 0.1, 0.35, 0.5])
    repaired, report = repair_occupations(a)
    assert report.residual_empty == 0
    assert report.residual_single == 0
    assert (repaired >= 2).all()
    assert report.atoms_lost == report.defects_fixed
    # an empty site is deposited into twice: once per phase
    assert report.defects_fixed == 2 * (a == 0).sum() + (a == 1).sum()
    assert report.rounds <= 2 * (a.size - 1)


def test_repair_runs_out_of_donors():
    with pytest.warns(RuntimeWarning, match="insufficient donors"):
        repaired, report = repair_occupations(np.array([4, 0, 0, 0]))
    assert report.defects_fixed == 1
    assert report.atoms_lost == 1
    assert report.residual_empty == 2
    assert_array_equal(repaired, [2, 1, 0, 0])


def test_repair_report_json_keys():
    report = RepairReport(3, 3, 7, 1, 2)
    assert report.to_json_obj() == {
        "defects_fixed": 3,
        "atoms_lost": 3,
        "rounds": 7,
        "residual_empty": 1,
        "residual_single": 2,
    }


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.float64])
def test_repair_leaves_its_input_unchanged(dtype):
    a = np.array([4, 0, 4, 4, 2], dtype=dtype)
    repaired, report = repair_occupations(a)
    assert_array_equal(a, [4, 0, 4, 4, 2])
    assert repaired.dtype == np.int64 and not np.shares_memory(repaired, a)
    assert_array_equal(repaired, [2, 2, 4, 2, 2])
    assert report.defects_fixed == 2


def test_non_integer_counts_are_refused_on_every_path():
    # a cast that truncated would count 1.5 atoms as 1; NaN must not warn
    calls = [
        lambda: classical([[1.5, 0, 0], [2, 0, 1]]),
        lambda: BasisConfig.from_counts([[1.5, 0, 0]]),
        lambda: apply_classical(np.array([[1.9, 0, 0]]), Script()),
        lambda: repair_occupations(np.array([4.0, np.nan])),
        lambda: format_counts(np.array([1.0, 2.5]), 1),
        lambda: oracle_computers(np.array([np.inf, 1.0]), 1),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="^expected integer counts$"):
                call()
    # integral floats are counts
    assert_array_equal(apply_classical(np.array([[1.0, 0, 0]]), Script()), [[1, 0, 0]])
    assert BasisConfig.from_counts([[2.0, 0, 1]]) == BasisConfig.from_counts([[2, 0, 1]])


def test_repair_rejects_bad_counts():
    with pytest.raises(ValueError):
        repair_occupations(np.array([5, 0]))
    with pytest.raises(ValueError):
        repair_occupations(np.array([[2, 2], [2, 2]]))
    with pytest.raises(ValueError, match="integer counts"):
        repair_occupations(np.array([4.7, 0.2, 2.0]))
    with pytest.raises(ValueError, match="integer counts"):
        repair_occupations(np.array([4.0, np.nan, 2.0]))
    repaired, _ = repair_occupations(np.array([4.0, 1.0, 2.0]))
    assert_array_equal(repaired, [2, 2, 2])


def _repair_each_way(a):
    """Repair ``a`` with the engine, with its in-place core on an int8 copy
    and with the dense reference; check that all three give the same sites,
    report and warning categories and leave ``a`` as it was, and return the
    engine's (array, report, warning categories)."""
    before = np.array(a, copy=True)

    def core(a):
        ring = a.astype(np.int8)
        return ring, _repair(ring)

    out = []
    for fn in (repair_occupations, core, repair_occupations_dense):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            repaired, report = fn(a)
        out.append((repaired, report, [w.category for w in caught]))
    (fast, fast_report, fast_warns), *others = out
    for repaired, report, warns in others:
        assert_array_equal(repaired, fast)
        assert report == fast_report
        assert warns == fast_warns
    assert_array_equal(a, before)
    return fast, fast_report, fast_warns


# Counts drawn from a random subset of 0..4, so that lattices without
# donors, without defects or with nothing but defects come up often.
repair_lattices = st.sets(st.integers(0, 4), min_size=1).flatmap(
    lambda values: st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=40)
)


@given(counts=repair_lattices)
@example(counts=[4, 0, 0, 0])
@example(counts=[0, 1, 1, 2])
@example(counts=[4])
@example(counts=[0, 2, 4])  # the only pair wraps round the ring
@example(counts=[4, 4, 0, 0])  # nested pairs
@example(counts=[0, 4, 0, 0, 1])  # more defects than donors
@example(counts=[2, 3])  # neither donors nor defects
@example(counts=[4, 1, 0])
@settings(max_examples=400, deadline=None, derandomize=True)
def test_prop_repair_matches_dense_loop(counts):
    a = np.array(counts, dtype=np.int64)
    _repair_each_way(a)
    assert_array_equal(a, counts)  # the input is not modified


def test_repair_matches_dense_loop_at_scale():
    dist = FillDistribution(0.05, 0.1, 0.45, 0.1, 0.3)
    a = sample_occupations(100_000, dist, np.random.default_rng(20))
    _, fast_report, fast_warns = _repair_each_way(a)
    assert fast_warns == []
    assert fast_report.rounds > 100


def test_repair_matches_dense_loop_at_scale_with_scarce_donors():
    dist = FillDistribution(0.1, 0.2, 0.6, 0.0, 0.1)
    a = sample_occupations(10_000, dist, np.random.default_rng(5))
    _, fast_report, fast_warns = _repair_each_way(a)
    assert fast_warns == [RuntimeWarning]
    assert fast_report.residual_single > 0  # defects are left over
    assert fast_report.rounds > 1000


def test_repair_of_an_empty_lattice():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        repaired, report = repair_occupations(np.array([], dtype=np.int64))
    assert repaired.dtype == np.int64
    assert repaired.size == 0
    assert report == RepairReport(0, 0, 0, 0, 0)


# -- controlled defect creation ----------------------------------------------


def test_create_defects_two_site_mixture():
    eps = 0.2
    out = execute(classical([(2, 0, 0), (2, 0, 0)]), create_defects_script(eps))[0]
    weights = {}
    for w, branch in out.branches:
        cfg = next(iter(branch.terms))
        weights[tuple(s.a for s in cfg.sites)] = w
    assert weights[(2, 2)] == pytest.approx((1 - eps) ** 2)
    assert weights[(1, 2)] == pytest.approx(eps * (1 - eps))
    assert weights[(2, 1)] == pytest.approx(eps * (1 - eps))
    assert weights[(1, 1)] == pytest.approx(eps**2)
    for _, branch in out.branches:
        cfg = next(iter(branch.terms))
        assert all(s.b == 0 and s.p == 0 for s in cfg.sites)


def test_create_defects_depopulates_first():
    eps = 0.5
    out = execute(classical([(4, 0, 0)]), create_defects_script(eps))[0]
    weights = sorted(w for w, _ in out.branches)
    assert weights == pytest.approx([0.5, 0.5])


def test_create_defects_skips_non_pair_sites():
    out = execute(classical([(1, 0, 0), (0, 0, 0)]), create_defects_script(0.3))[0]
    assert sole_config(out) == BasisConfig.from_counts([(1, 0, 0), (0, 0, 0)])


def test_sample_defect_creation_statistics():
    rng = np.random.default_rng(4)
    eps = 0.25
    a = np.full(4000, 2)
    out = sample_defect_creation(a, eps, rng)
    frac = (out == 1).mean()
    assert abs(frac - eps) < 3 * np.sqrt(eps * (1 - eps) / a.size)
    assert ((out == 1) | (out == 2)).all()


def test_sample_defect_creation_depopulates():
    rng = np.random.default_rng(4)
    out = sample_defect_creation(np.array([6, 1, 0]), 0.0, rng)
    assert_array_equal(out, [2, 1, 0])


@pytest.mark.parametrize(
    "a, message",
    [([2, 2.7, 0], "^expected integer counts$"),
     ([2, -3, 0], "^negative occupation$"),
     (np.array([[2, 2], [1, -3]], dtype=np.int8), "^negative occupation$"),
     (np.array([2, 2**63 + 5], dtype=np.uint64), f"^count {2**63 + 5} is too large for int64$")])
def test_sample_defect_creation_refuses_counts_as_a_ring_does(a, message):
    with pytest.raises(ValueError, match=message):
        sample_defect_creation(a, 0.5, np.random.default_rng(4))


@pytest.mark.parametrize("eps", [2.0, -0.1, float("nan")])
def test_sample_defect_creation_refuses_eps_outside_the_unit_interval(eps):
    with pytest.raises(ValueError, match=r"^defect rate eps must lie in \[0, 1\]"):
        sample_defect_creation(np.full(4, 2), eps, np.random.default_rng(4))


def test_defect_creation_script_matches_sampler():
    # the script's exact branch weights against the closed form's frequencies
    rng = np.random.default_rng(77)
    eps, draws = 0.3, 20_000
    for _ in range(5):
        a = rng.integers(0, 5, size=rng.integers(1, 7))
        out = execute(classical([(int(x), 0, 0) for x in a]), create_defects_script(eps))[0]
        exact = {}
        for w, branch in out.branches:
            (config,) = branch.terms
            assert all(s.b == 0 and s.p == 0 for s in config.sites)
            exact[tuple(s.a for s in config.sites)] = w
        samples = sample_defect_creation(np.tile(a, (draws, 1)), eps, rng)
        seen = Counter(map(tuple, samples.tolist()))
        assert set(seen) <= set(exact)
        for outcome, w in exact.items():
            stderr = np.sqrt(w * (1 - w) / draws)
            assert abs(seen[outcome] / draws - w) <= 3 * stderr, (a, outcome)
