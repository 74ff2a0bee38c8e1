import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from latticeqc import (
    FillDistribution,
    count_computers_oracle,
    count_computers_protocol,
    expected_yield,
    monte_carlo_yield,
    repair_experiment,
    repaired_yield,
    sample_occupations,
    trial_seeds,
)
from latticeqc import oracle_computers, stats, verify_formatted
from latticeqc.protocols import _format_codes, _homes, format_counts

from helpers import repair_experiment_composed


def test_fill_distribution_validation():
    FillDistribution(0.1, 0.2, 0.7)
    with pytest.raises(ValueError):
        FillDistribution(0.5, 0.6, -0.1)
    with pytest.raises(ValueError):
        FillDistribution(0.5, 0.1, 0.1)  # sums to 0.7
    d = FillDistribution.from_pair(0.1, 0.25)
    assert d.p2 == pytest.approx(0.65)
    assert d.p3 == 0.0 and d.p4 == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fill_distribution_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        FillDistribution(bad, 0.1, 0.9)
    with pytest.raises(ValueError, match="finite"):
        FillDistribution(0.1, 0.1, 0.8, p4=bad)


def test_expected_yield_reference_point():
    assert expected_yield(10**5, 0.1, 0.1, 5) == pytest.approx(3276.8, rel=1e-12)
    assert expected_yield(100, 0.0, 1.0, 2) == 0.0


def test_repaired_yield_reference_point():
    # 250 * (3/4)^4 is exact in binary floats
    assert repaired_yield(1000, 4) == 79.1015625


@pytest.mark.parametrize("L, n", [(5, 5), (3, 5), (1, 1), (4, 8)])
def test_repaired_yield_is_zero_when_the_window_wraps(L, n):
    # with n >= L a home's window wraps onto the home: no ring holds a computer
    assert repaired_yield(L, n) == 0.0


@pytest.mark.parametrize("n", [0, -1])
def test_repaired_yield_refuses_a_computer_without_qubit_sites(n):
    with pytest.raises(ValueError, match="^computers need at least one qubit site$"):
        repaired_yield(10, n)


@pytest.mark.parametrize("n", [0, -1])
def test_expected_yield_refuses_a_computer_without_qubit_sites(n):
    # it predicted 1.0 computers for n = 0 and 1.25 for n = -1
    with pytest.raises(ValueError, match="^computers need at least one qubit site$"):
        expected_yield(10, 0.1, 0.1, n)


@pytest.mark.parametrize("count", [count_computers_protocol, count_computers_oracle])
def test_counts_refuse_a_computer_without_qubit_sites(count):
    # the oracle counted 3 computers here; a bad ring is named first
    with pytest.raises(ValueError, match="^computers need at least one qubit site$"):
        count(np.array([1, 2, 2, 1, 0, 1]), 0)
    with pytest.raises(ValueError, match=r"^expected shape \(L,\), got \(1, 6\)$"):
        count(np.array([[1, 2, 2, 1, 0, 1]]), 0)


def test_repaired_yield_approaches_asymptote():
    L = 10**5
    asymptote = lambda L, n: L / (n * math.e)
    gap = lambda n: abs(repaired_yield(L, n) - asymptote(L, n)) / asymptote(L, n)
    assert gap(64) < 0.01
    assert gap(4) > gap(8) > gap(64)
    assert asymptote(math.e, 1) == pytest.approx(1.0)


def test_sample_occupations_frequencies():
    dist = FillDistribution(0.1, 0.2, 0.3, 0.15, 0.25)
    rng = np.random.default_rng(0)
    a = sample_occupations(100_000, dist, rng)
    for value, p in enumerate(dist.probs):
        sigma = math.sqrt(p * (1 - p) / a.size)
        assert abs((a == value).mean() - p) < 4 * sigma


@pytest.mark.parametrize(
    "probs",
    [(0.1, 0.1, 0.8, 0.0, 0.0),  # classes 3 and 4 empty
     (0.05, 0.1, 0.45, 0.1, 0.3),  # all five classes
     (0.0, 0.0, 1.0, 0.0, 0.0),  # all mass in one class
     (1.0, 0.0, 0.0, 0.0, 0.0),
     (0.0, 0.0, 0.0, 0.0, 1.0),
     (0.2, 0.0, 0.3, 0.0, 0.5),  # empty classes between full ones
     (1 / 3, 1 / 3, 1 / 3, 0.0, 0.0)],
)
def test_sample_occupations_draws_as_rng_choice(probs):
    # the compare rule is numpy's own rule for choice with p, so the counts,
    # their dtype and the generator's state afterwards are choice's
    dist = FillDistribution(*probs)
    for seed in range(60):
        L = (1, 2, 5, 999)[seed % 4]
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_occupations(L, dist, rng)
        want = ref.choice(5, size=L, p=dist.probs)
        assert got.dtype == want.dtype
        assert_array_equal(got, want)
        assert rng.random() == ref.random()


def test_code_route_counts_as_the_decoded_route_and_the_oracle():
    # seeded rings for n = 1..6: n >= L, counts 0..9 (above M_MAX), narrow,
    # wide and integral-float dtypes, and fills shaped like the benchmark's
    rng = np.random.default_rng(29)
    rings = [rng.integers(0, 10, size=L) for L in (1, 2, 3, 5, 6, 7, 40, 300) for _ in range(3)]
    rings += [sample_occupations(L, FillDistribution(*p), rng) for L, p in
              [(100_000, (0.1, 0.1, 0.8)), (100_000, (0.05, 0.1, 0.45, 0.1, 0.3)), (64, (0.1, 0.1, 0.8))]]
    for a in rings:
        for n in range(1, 7):
            want = oracle_computers(a, n)
            for dtype in (np.int8, np.uint8, np.int64, np.float64):
                ring = a.astype(dtype)
                assert_array_equal(_homes(_format_codes(ring, n), n), want)
                assert count_computers_protocol(ring, n) == want.size
                assert verify_formatted(format_counts(ring, n), n).size == want.size
                assert count_computers_oracle(ring, n) == want.size


def test_counting_routes_agree():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        for _ in range(20):
            a = rng.integers(0, 5, size=128)
            assert count_computers_oracle(a, n) == count_computers_protocol(a, n)


def test_protocol_count_refuses_a_batch():
    # as oracle_computers does; a batch's stray sites would be axis indices
    a = np.random.default_rng(4).integers(0, 3, size=(2, 50))
    with pytest.raises(ValueError, match=r"^expected shape \(L,\), got \(2, 50\)$"):
        count_computers_protocol(a, 1)


def test_oracle_count_refuses_a_batch():
    # a batch's count would be a total over all its lattices
    a = np.random.default_rng(4).integers(0, 3, size=(2, 50))
    with pytest.raises(ValueError, match=r"^expected shape \(L,\), got \(2, 50\)$"):
        count_computers_oracle(a, 1)


@given(a=st.lists(st.integers(0, 6), min_size=1, max_size=30), n=st.integers(1, 4))
@example(a=[5, 5, 5, 1, 0, 6, 2, 2, 1], n=3)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_prop_protocol_count_matches_oracle_above_cutoff_four(a, n):
    a = np.array(a, dtype=np.int64)
    assert count_computers_protocol(a, n) == count_computers_oracle(a, n)


# One ring's counts as a JSON reader or a float pipeline may hand them over.
_ring_values = st.one_of(
    st.integers(-2, 12),
    st.integers(-2, 12).map(float),
    st.floats(-2, 12, allow_nan=False),
    st.just(math.nan),
    st.booleans(),
)


def _count_or_message(count, a, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast may warn
        try:
            return count(a, n)
        except ValueError as exc:
            return str(exc)


@given(ring=st.lists(_ring_values, min_size=1, max_size=20), n=st.integers(1, 4))
@example(ring=[1.7, 2.5], n=1)  # truncated, 1.7 would count as a home
@example(ring=[-1, 1, 2], n=1)
@example(ring=[7, 1, 2], n=1)
@example(ring=[True, True, 2, 2.0, 1], n=2)
@example(ring=[2, math.nan, 1], n=1)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_prop_counting_routes_accept_and_refuse_alike(ring, n):
    a = np.array(ring)
    protocol = _count_or_message(count_computers_protocol, a, n)
    assert protocol == _count_or_message(count_computers_oracle, a, n)
    if isinstance(protocol, int):
        assert_array_equal(verify_formatted(format_counts(a, n), n), oracle_computers(a, n))


def test_monte_carlo_yield_is_deterministic():
    dist = FillDistribution.from_pair(0.1, 0.1)
    r1 = monte_carlo_yield(2000, dist, 3, trials=10, seed=7)
    r2 = monte_carlo_yield(2000, dist, 3, trials=10, seed=7)
    assert r1 == r2
    r3 = monte_carlo_yield(2000, dist, 3, trials=10, seed=8)
    assert r3.counts != r1.counts


def test_monte_carlo_yield_jobs_do_not_change_results():
    dist = FillDistribution.from_pair(0.1, 0.15)
    serial = monte_carlo_yield(500, dist, 2, trials=8, seed=3, jobs=1)
    parallel = monte_carlo_yield(500, dist, 2, trials=8, seed=3, jobs=2)
    assert serial.counts == parallel.counts
    assert serial.mean == parallel.mean


def test_monte_carlo_counts_equal_the_raw_rule():
    # each trial seed gives one fill, and the protocol's count on it must
    # be the number of homes the raw rule finds on the same counts; the
    # five-class fill draws counts 3 and 4, which depopulation folds to 2
    L = 10**5
    for dist, n in [(FillDistribution(0.05, 0.1, 0.45, 0.1, 0.3), 4),
                    (FillDistribution.from_pair(0.1, 0.1), 5)]:
        report = monte_carlo_yield(L, dist, n, trials=5, seed=2)
        raw = [oracle_computers(sample_occupations(L, dist, np.random.default_rng(s)), n).size
               for s in trial_seeds(2, 5)]
        assert report.counts == raw
        assert min(raw) > 0


def test_monte_carlo_agrees_with_formula():
    dist = FillDistribution.from_pair(0.1, 0.1)
    report = monte_carlo_yield(20_000, dist, 4, trials=40, seed=21)
    assert abs(report.z) < 4.0
    assert report.prediction == pytest.approx(expected_yield(20_000, 0.1, 0.1, 4))


def test_monte_carlo_validation():
    dist = FillDistribution.from_pair(0.1, 0.1)
    with pytest.raises(ValueError):
        monte_carlo_yield(100, dist, 2, trials=0, seed=0)


@pytest.mark.parametrize("jobs", [0, -4])
def test_monte_carlo_yield_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        monte_carlo_yield(100, FillDistribution(0.1, 0.1, 0.8), 2, trials=2, seed=0, jobs=jobs)


def test_yield_report_serialization():
    dist = FillDistribution.from_pair(0.2, 0.2)
    report = monte_carlo_yield(300, dist, 2, trials=5, seed=2)
    obj = report.to_json_obj()
    assert obj["trials"] == 5
    assert obj["counts"] == list(report.counts)
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "trial_seed,count"
    assert len(lines) == 1 + 5 + 1
    assert lines[-1].startswith("summary,mean=")


def test_monte_carlo_yield_needs_two_trials():
    with pytest.raises(ValueError, match="at least two trials"):
        monte_carlo_yield(100, FillDistribution(0.1, 0.1, 0.8), 2, trials=1, seed=0)


def test_monte_carlo_yield_caps_jobs(monkeypatch):
    sizes = []

    class RecordingPool:
        """Records the pool size it is asked for and runs trials in-process."""

        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(stats, "Pool", RecordingPool)
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 4)
    dist = FillDistribution(0.1, 0.1, 0.8)
    serial = monte_carlo_yield(200, dist, 2, trials=10, seed=5)
    assert sizes == []
    assert monte_carlo_yield(200, dist, 2, trials=3, seed=5, jobs=8).trials == 3
    assert monte_carlo_yield(200, dist, 2, trials=10, seed=5, jobs=8) == serial
    assert monte_carlo_yield(200, dist, 2, trials=10, seed=5, jobs=3) == serial
    assert sizes == [3, 4, 3]


def test_trial_seeds_deterministic_and_distinct():
    s1 = trial_seeds(9, 100)
    assert s1 == trial_seeds(9, 100)
    assert len(set(s1)) == 100
    assert trial_seeds(10, 100) != s1
    # a prefix of a longer run matches: workers can be added freely
    assert trial_seeds(9, 10) == s1[:10]


def test_repair_experiment_report():
    dist = FillDistribution(0.05, 0.1, 0.45, 0.1, 0.3)
    report = repair_experiment(20_000, dist, n=8, seed=3)
    assert report.eps == pytest.approx(1 / 8)
    assert report.p0_after == 0.0  # surplus donors fix every defect
    assert abs(report.p1_after - 1 / 8) < 0.01
    assert report.repair.atoms_lost == report.repair.defects_fixed
    assert report.prediction_after == pytest.approx(
        expected_yield(20_000, 0.0, 1 / 8, 8)
    )
    sigma = math.sqrt(report.prediction_after)
    assert abs(report.yield_after - report.prediction_after) < 5 * sigma
    obj = report.to_json_obj()
    assert obj["repair"] == {
        "defects_fixed": report.repair.defects_fixed,
        "atoms_lost": report.repair.atoms_lost,
        "rounds": report.repair.rounds,
        "residual_empty": 0,
        "residual_single": 0,
    }


def test_repair_experiment_shows_a_numpy_eps_as_a_plain_float():
    dist = FillDistribution(0.05, 0.1, 0.45, 0.1, 0.3)
    with pytest.raises(ValueError, match=r"got 1\.5$"):
        repair_experiment(100, dist, n=4, eps=np.float64(1.5))


def test_repair_experiment_deterministic():
    dist = FillDistribution(0.05, 0.1, 0.45, 0.1, 0.3)
    a = repair_experiment(5000, dist, n=4, seed=12)
    b = repair_experiment(5000, dist, n=4, seed=12)
    assert a == b


def _warned(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, [(w.category, str(w.message)) for w in caught]


REPAIR_FILL = (0.05, 0.1, 0.45, 0.1, 0.3)  # repair's default, and the benchmark's


@pytest.mark.parametrize(
    "L, fill, n, eps",
    [(100_000, REPAIR_FILL, 4, None),
     (100_000, REPAIR_FILL, 8, None),
     (20_000, (0.1, 0.1, 0.8), 5, None),  # no donor at all: every defect stays
     (20_000, (0.1, 0.2, 0.6, 0.0, 0.1), 3, None),  # donors run out
     (5_000, REPAIR_FILL, 4, 0.0),
     (5_000, REPAIR_FILL, 4, 1.0),
     (1, REPAIR_FILL, 1, None),  # n >= L: no ring holds a computer
     (2, REPAIR_FILL, 3, None),
     (7, REPAIR_FILL, 7, None),
     (7, (0.3, 0.3, 0.2, 0.0, 0.2), 9, None),
     (3_000, (0.0, 0.0, 0.0, 0.0, 1.0), 3, None)],  # all donors: nothing to repair
)
def test_repair_experiment_equals_the_composed_public_steps(L, fill, n, eps):
    # the in-place pipeline on one int8 ring against sample_occupations ->
    # count_computers_oracle -> repair_occupations -> sample_defect_creation
    # -> count_computers_oracle, each on its own int64 array
    dist = FillDistribution(*fill)
    warned = []
    for seed in range(4):
        got, got_warns = _warned(repair_experiment, L, dist, n, eps=eps, seed=seed)
        want, want_warns = _warned(repair_experiment_composed, L, dist, n, eps=eps, seed=seed)
        for field in dataclasses.fields(want):
            assert getattr(got, field.name) == getattr(want, field.name), field.name
        assert repr(got) == repr(want)  # and every field of the same type
        assert got_warns == want_warns
        warned += got_warns
    if dist.p3 + dist.p4 < dist.p0 + dist.p1 and L > 7:  # fewer donors than defects
        assert warned and all(c is RuntimeWarning for c, _ in warned)


@pytest.mark.parametrize("L, n", [(5, 5), (1, 1), (3, 7), (2, 3)])
def test_no_computer_is_predicted_when_the_window_wraps_onto_the_home(L, n):
    # with n >= L a home's n left neighbours include the home itself, so
    # no ring holds a computer, and the protocol, the formula and the
    # repair experiment say so
    assert expected_yield(L, 0.1, 0.1, n) == 0.0
    if L > 1:
        assert expected_yield(L, 0.1, 0.1, L - 1) == L * 0.1 * 0.8 ** (L - 1)
    else:  # below n = L = 1 there is no computer, only a refusal
        with pytest.raises(ValueError, match="^computers need at least one qubit site$"):
            expected_yield(L, 0.1, 0.1, L - 1)
    dist = FillDistribution(0.1, 0.1, 0.4, 0.1, 0.3)
    report = monte_carlo_yield(L, dist, n, trials=3, seed=1)
    assert report.counts == [0, 0, 0]
    assert (report.prediction, report.z) == (0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # too few donors on a tiny ring
        report = repair_experiment(L, dist, n, seed=1)
    assert (report.yield_after, report.prediction_after) == (0, 0.0)
