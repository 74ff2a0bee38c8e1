import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latticeqc import (
    BasisConfig,
    MixedState,
    OccupationOverflowError,
    PureState,
    SiteOccupancy,
    classical,
    cli,
)
from latticeqc.lattice import (
    M_MAX,
    PRUNE_TOL,
    _HYPOT_ALL,
    _branch_signature,
    _live,
    _merge_branches,
    check_sites,
    read_sites,
)

from helpers import (
    fidelity,
    merge_branches_pairwise,
    pure_state_by_dict,
    sole_config,
    translate,
)


def test_config_basics():
    c = BasisConfig.from_counts([(2, 0, 0), (1, 0, 1)])
    assert c.L == 2
    assert c.sites[1] == SiteOccupancy(1, 0, 1)
    assert c == BasisConfig.from_counts(np.array(c.sites))


def test_config_validation():
    with pytest.raises(ValueError):
        BasisConfig(())
    with pytest.raises(ValueError):
        BasisConfig.from_counts([(-1, 0, 0)])
    with pytest.raises(ValueError):
        BasisConfig.from_counts(np.zeros((2, 2), dtype=int))


def test_classical_respects_cutoff():
    classical([(6, 0, 0)])  # at the boundary is allowed
    with pytest.raises(OccupationOverflowError):
        classical([(7, 0, 0)])


def test_classical_names_the_negative_site():
    # a negative count is named before a count above the cutoff, as BasisConfig does
    for sites in ([[1, -1, 0]], [[7, 0, 0], [1, -1, 0]], [(2, 0, 0), (1, -1, 0)]):
        with pytest.raises(ValueError) as exc:
            classical(sites)
        assert str(exc.value) == "negative occupation in SiteOccupancy(a=1, b=-1, p=0)"
    with pytest.raises(ValueError, match="at least one site"):
        classical([])
    with pytest.raises(TypeError):
        classical([1, 0, 0])  # one site is [[1, 0, 0]], not a bare triple


@pytest.mark.parametrize("big", [10**30, 2**64, 2**63, -10**30])
def test_counts_past_int64_are_named_not_overflowed(big):
    # numpy reads such Python ints as float or object; the negative site is
    # still named first, and a count past int64 is refused in our own words
    negative = "negative occupation in SiteOccupancy(a={}, b={}, p=0)"
    with pytest.raises(ValueError) as exc:
        classical([[2, 0, 0], [big, 0, 0], [1, -1, 0]])
    assert str(exc.value) == (negative.format(big, 0) if big < 0 else negative.format(1, -1))
    with pytest.raises(ValueError) as exc:
        classical([[big, 0, 0], [1, 0, 0]])
    assert str(exc.value) == (negative.format(big, 0) if big < 0
                              else f"count {big} is too large for int64")
    if big > 0:  # a BasisConfig holds Python ints and knows no cutoff
        assert BasisConfig.from_counts([[big, 0, 0]]).sites == ((big, 0, 0),)


def test_classical_of_sites_equals_classical_of_config():
    sites = [[2, 0, 1], [0, 3, 0], [6, 6, 6]]
    got = classical(sites).branches[0][1]
    want = classical(BasisConfig.from_counts(sites)).branches[0][1]
    assert np.array_equal(got.codes, want.codes) and got.codes.dtype == want.codes.dtype


def assert_matches_dict_constructor(terms):
    """PureState(terms) holds the codes and amplitudes of the dict-sorting
    constructor kept in tests/helpers.py, or raises as it does."""
    try:
        want = pure_state_by_dict(terms)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            PureState(terms)
        assert str(got.value) == str(exc)
        return
    st = PureState(terms)
    assert st.codes.dtype == want[0].dtype
    assert np.array_equal(st.codes, want[0])
    assert repr(st.amps.tolist()) == repr(want[1].tolist())


def test_pure_state_norm_gate():
    c1 = BasisConfig.from_counts([(1, 0, 0)])
    c2 = BasisConfig.from_counts([(0, 0, 1)])
    with pytest.raises(ValueError):
        PureState({c1: 0.7, c2: 0.7})
    # norm drift inside the tolerance window passes
    PureState({c1: math.sqrt(0.5) * (1 + 4e-11), c2: math.sqrt(0.5)})
    for terms in ({c1: 0.7, c2: 0.7},
                  {c1: math.sqrt(0.5) * (1 + 4e-11), c2: math.sqrt(0.5)},
                  {c2: math.sqrt(0.5) * (1 - 4e-10), c1: math.sqrt(0.5)}):
        assert_matches_dict_constructor(terms)


def test_pure_state_prunes_tiny_terms():
    c1 = BasisConfig.from_counts([(1, 0, 0)])
    c2 = BasisConfig.from_counts([(0, 0, 1)])
    junk = BasisConfig.from_counts([(2, 0, 0)])
    s = PureState({c1: math.sqrt(0.5), c2: math.sqrt(0.5), junk: 1e-15})
    assert len(s.terms) == 2
    assert junk not in dict(s.terms)
    over = BasisConfig.from_counts([(7, 0, 0)])  # above the cutoff
    longer = BasisConfig.from_counts([(1, 0, 0), (0, 0, 0)])  # another L
    cases = [
        {c1: math.sqrt(0.5), c2: math.sqrt(0.5), junk: 1e-15},
        {c1: 1.0, over: 1e-16},  # a pruned term is never encoded
        {over: 1e-16, c1: 1.0},
        {c1: 1.0, longer: 1e-15j},  # nor compared for lattice size
        {c1: 1.0, over: 1e-15, longer: 1e-15},
        {c1: 1e-15, c2: 1e-16},  # no support left after pruning
        {},
        {c1: 1.0, junk: PRUNE_TOL},  # kept at the tolerance
    ]
    for terms in cases:
        assert_matches_dict_constructor(terms)
    assert PureState({c1: 1.0, over: 1e-16}).terms == {c1: 1.0}


@given(st.integers(0, 2**32), st.sampled_from([2, 7, _HYPOT_ALL - 1, _HYPOT_ALL, 3000]))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_prop_live_parts_are_hypot_at_prune_tol(seed, n):
    # the squared modulus decides away from PRUNE_TOL and hypot near it, on
    # arrays below and past _HYPOT_ALL: moduli within 40 ulps of PRUNE_TOL at
    # any angle and on the axes, signed zeros, subnormals and large moduli
    rng = np.random.default_rng(seed)
    r = PRUNE_TOL * (1 + rng.integers(-40, 41, n) * 2.0 ** -52)
    r *= np.where(rng.random(n) < 0.3, 10.0 ** rng.uniform(-310, 14, n), 1.0)
    theta = rng.uniform(-math.pi, math.pi, n)
    re, im = r * np.cos(theta), r * np.sin(theta)
    axis = rng.random(n) < 0.2
    re[axis], im[axis] = r[axis] * rng.choice([-1.0, 1.0], axis.sum()), rng.choice([-0.0, 0.0])
    re[:2], im[:2] = [PRUNE_TOL, -0.0], [0.0, np.nextafter(PRUNE_TOL, 0.0)]
    kept = (re.copy(), im.copy())
    live = _live(re, im)
    assert live.dtype == bool and np.array_equal(live, np.hypot(re, im) >= PRUNE_TOL)
    assert np.array_equal(re, kept[0]) and np.array_equal(im, kept[1])


def test_pure_state_canonical_order():
    a = BasisConfig.from_counts([(0, 0, 1)])
    b = BasisConfig.from_counts([(1, 0, 0)])
    s1 = PureState({a: math.sqrt(0.5), b: math.sqrt(0.5)})
    s2 = PureState({b: math.sqrt(0.5), a: math.sqrt(0.5)})
    assert s1.terms == s2.terms
    assert list(s1.terms) == sorted([a, b])
    rng = np.random.default_rng(5)
    for _ in range(20):
        configs = [BasisConfig.from_counts(rng.integers(0, 3, size=(3, 3))) for _ in range(6)]
        amps = rng.normal(size=6) + 1j * rng.normal(size=6)
        amps /= np.linalg.norm(amps)
        terms = dict(zip(configs, amps))
        shuffled = [configs[i] for i in rng.permutation(len(configs))]
        assert_matches_dict_constructor({c: terms[c] for c in shuffled})
    # -0.0 parts survive, in either order of insertion
    signed = {a: complex(-0.0, math.sqrt(0.5)), b: complex(math.sqrt(0.5), -0.0)}
    assert_matches_dict_constructor(signed)
    assert_matches_dict_constructor(dict(reversed(signed.items())))
    assert_matches_dict_constructor({a: -0.0 - 1j, b: 0.0})


def test_pure_state_mixed_length_rejected():
    c1 = BasisConfig.from_counts([(1, 0, 0)])
    c2 = BasisConfig.from_counts([(1, 0, 0), (0, 0, 0)])
    with pytest.raises(ValueError):
        PureState({c1: math.sqrt(0.5), c2: math.sqrt(0.5)})
    assert_matches_dict_constructor({c1: math.sqrt(0.5), c2: math.sqrt(0.5)})
    assert_matches_dict_constructor({c2: math.sqrt(0.5), c1: math.sqrt(0.5)})
    over = BasisConfig.from_counts([(7, 0, 0), (0, 0, 1)])
    for terms in ({over: 1.0}, {over: math.sqrt(0.5), c2: math.sqrt(0.5)}):
        with pytest.raises(OccupationOverflowError):
            PureState(terms)
        assert_matches_dict_constructor(terms)


def test_mixed_state_weight_gate_and_merge():
    s = classical([(1, 0, 0)]).branches[0][1]
    with pytest.raises(ValueError):
        MixedState([(0.6, s), (0.6, s)])
    m = MixedState([(0.5, s), (0.5, s)])
    assert len(m.branches) == 1
    assert m.branches[0][0] == pytest.approx(1.0)
    assert m.is_classical()
    assert sole_config(m) == BasisConfig.from_counts([(1, 0, 0)])
    c1 = BasisConfig.from_counts([(1, 0, 0)])
    c2 = BasisConfig.from_counts([(0, 0, 1)])
    sup = PureState({c1: math.sqrt(0.5), c2: math.sqrt(0.5)})
    assert not MixedState([(0.5, s), (0.5, sup)]).is_classical()


def test_mixed_state_branch_order_is_canonical():
    s1 = classical([(2, 0, 0)]).branches[0][1]
    s2 = classical([(0, 0, 1)]).branches[0][1]
    m1 = MixedState([(0.25, s1), (0.75, s2)])
    m2 = MixedState([(0.75, s2), (0.25, s1)])
    assert [w for w, _ in m1.branches] == [w for w, _ in m2.branches]


def test_sole_config_requires_single_classical_branch():
    c1 = BasisConfig.from_counts([(1, 0, 0)])
    c2 = BasisConfig.from_counts([(0, 0, 1)])
    sup = MixedState([(1.0, PureState({c1: math.sqrt(0.5), c2: math.sqrt(0.5)}))])
    with pytest.raises(ValueError):
        sole_config(sup)


def test_fidelity_pure_overlap():
    c1 = BasisConfig.from_counts([(1, 0, 0)])
    c2 = BasisConfig.from_counts([(0, 0, 1)])
    x = MixedState([(1.0, PureState({c1: 1.0}))])
    y = MixedState([(1.0, PureState({c1: math.sqrt(0.5), c2: math.sqrt(0.5)}))])
    assert fidelity(x, x) == pytest.approx(1.0)
    assert fidelity(x, y) == pytest.approx(0.5)
    # global phase is invisible
    z = MixedState([(1.0, PureState({c1: 1j}))])
    assert fidelity(x, z) == pytest.approx(1.0)


def test_fidelity_dimension_mismatch():
    x = classical([(1, 0, 0)])
    y = classical([(1, 0, 0), (0, 0, 0)])
    with pytest.raises(ValueError):
        fidelity(x, y)


def test_fidelity_paired_vs_strict():
    s1 = classical([(2, 0, 0)]).branches[0][1]
    s2 = classical([(0, 0, 1)]).branches[0][1]
    m = MixedState([(0.5, s1), (0.5, s2)])
    assert fidelity(m, m, mode="paired") == pytest.approx(1.0)
    assert fidelity(m, m, mode="strict") == pytest.approx(1.0)
    other = MixedState([(0.25, s1), (0.75, s2)])
    with pytest.raises(ValueError):
        fidelity(m, other, mode="paired")  # weights differ


def test_json_round_trip_is_exact():
    c1 = BasisConfig.from_counts([(1, 0, 1), (0, 0, 0)])
    c2 = BasisConfig.from_counts([(0, 1, 0), (1, 0, 0)])
    amp = math.sqrt(1 / 3) + 1j * math.sqrt(2 / 3)
    s = PureState({c1: amp.real, c2: 1j * amp.imag})
    m = MixedState([(1.0, s)])
    blob = cli._dumps(m.to_json_obj())
    back = MixedState.from_json_obj(json.loads(blob))
    assert back.branches[0][0] == m.branches[0][0]
    assert back.branches[0][1].terms == m.branches[0][1].terms  # bit-exact


def test_state_json_rejects_malformed_input():
    good = {"config": [[1, 0, 1]], "re": 1.0, "im": 0.0}
    malformed = [
        [],                                                    # not an object
        {"state": []},                                         # no branches
        {"branches": [{"weight": 1}]},                         # no terms
        {"branches": [{"terms": [good]}]},                     # no weight
        {"branches": [{"weight": True, "terms": [good]}]},     # weight not a number
        {"branches": [{"weight": 1.0, "terms": [dict(good, re="1")]}]},
        {"branches": [{"weight": 1.0, "terms": [dict(good, config=[[1.5, 0, 1]])]}]},
        {"branches": [{"weight": 1.0, "terms": [dict(good, config=[[True, 0, 1]])]}]},
        {"branches": [{"weight": 1.0, "terms": [dict(good, config=[[1, 0]])]}]},
        {"branches": [{"weight": 1.0, "terms": [dict(good, config=[1, 0, 1])]}]},
        {"branches": [{"weight": 1.0, "terms": [good, good]}]},  # config twice
    ]
    for obj in malformed:
        with pytest.raises(ValueError):
            MixedState.from_json_obj(obj)
    st = MixedState.from_json_obj({"branches": [{"weight": 1, "terms": [good]}]})
    assert sole_config(st) == BasisConfig.from_counts([(1, 0, 1)])


def _one_branch(*terms):
    return {"branches": [{"weight": 1.0, "terms": list(terms)}]}


_GOOD_TERM = {"config": [[1, 0, 1]], "re": 1.0, "im": 0.0}
_PRUNED = {"re": 1e-15, "im": 0.0}  # below PRUNE_TOL


def test_state_json_checks_pruned_terms():
    # a pruned term never reaches the state, but it is checked as every term is
    for terms in ([_GOOD_TERM, dict(_PRUNED, config=[[1, -1, 0]])],
                  [dict(_PRUNED, config=[[1, -1, 0]]), _GOOD_TERM]):
        with pytest.raises(ValueError) as exc:
            MixedState.from_json_obj(_one_branch(*terms))
        assert str(exc.value) == "negative occupation in SiteOccupancy(a=1, b=-1, p=0)"
    for terms in ([_GOOD_TERM, dict(_GOOD_TERM, **_PRUNED)],
                  [dict(_GOOD_TERM, **_PRUNED), _GOOD_TERM]):
        with pytest.raises(ValueError) as exc:
            MixedState.from_json_obj(_one_branch(*terms))
        assert str(exc.value) == "a branch lists one configuration twice"


def test_state_json_accepts_pruned_terms_as_pure_state_does():
    want = MixedState.from_json_obj(_one_branch(_GOOD_TERM)).branches[0][1]
    good = BasisConfig.from_counts([(1, 0, 1)])
    for config in ([[M_MAX + 1, 0, 0]], [[1, 0, 0], [0, 0, 0]]):  # above the cutoff; another L
        pure = PureState({good: 1.0, BasisConfig.from_counts(config): 1e-15})
        for terms in ([_GOOD_TERM, dict(_PRUNED, config=config)],
                      [dict(_PRUNED, config=config), _GOOD_TERM]):
            got = MixedState.from_json_obj(_one_branch(*terms)).branches[0][1]
            for state in (got, pure):
                assert np.array_equal(state.codes, want.codes)
                assert repr(state.amps.tolist()) == repr(want.amps.tolist())


@st.composite
def mixtures(draw):
    """Mixed states of up to five branches picked from a pool of up to
    three pure states with up to four terms each.  A pool state picked
    twice is merged, and pool states over one set of configurations
    share a signature but not their amplitudes."""
    L = draw(st.integers(1, 2))
    config = st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=L, max_size=L)
    amp = st.sampled_from([1.0, -1.0, 1j, 0.5 - 0.25j]) | st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        configs = draw(st.lists(config.map(BasisConfig.from_counts), min_size=1, max_size=4,
                                unique=True))
        amps = np.array([draw(amp) for _ in configs])
        norm = np.linalg.norm(amps)
        assume(norm > 1e-6)
        pool.append(PureState(dict(zip(configs, amps / norm))))
    picks = draw(st.lists(st.tuples(st.floats(0.01, 1.0), st.sampled_from(pool)),
                          min_size=1, max_size=5))
    total = sum(w for w, _ in picks)
    return MixedState([(w / total, pure) for w, pure in picks])


@given(mixtures())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_prop_state_json_round_trip_is_exact(m):
    back = MixedState.from_json_obj(json.loads(cli._dumps(m.to_json_obj())))
    assert len(back.branches) == len(m.branches)
    for (w, got), (w0, want) in zip(back.branches, m.branches):
        assert repr(w) == repr(w0)
        assert got.codes.dtype == want.codes.dtype and np.array_equal(got.codes, want.codes)
        assert repr(got.amps.tolist()) == repr(want.amps.tolist())


def test_mixed_state_keeps_its_branch_order_when_rebuilt():
    # p and q share a signature, so weight orders them: p's 0.2 sorts before
    # q's 0.3, and the merged 0.7 after it, where a rebuilt state puts it
    c1, c2 = BasisConfig.from_counts([(1, 0, 0)]), BasisConfig.from_counts([(0, 0, 1)])
    p = PureState({c1: math.sqrt(0.5), c2: math.sqrt(0.5)})
    q = PureState({c1: math.sqrt(0.5), c2: -math.sqrt(0.5)})
    m = MixedState([(0.3, q), (0.2, p), (0.5, p)])
    assert list(m.branches) == [(0.3, q), (0.7, p)]
    assert list(MixedState(m.branches).branches) == [(0.3, q), (0.7, p)]


def test_state_translate_moves_every_level():
    st = classical([(1, 0, 1), (0, 2, 0), (0, 0, 0)])
    out = translate(st, 1)
    assert sole_config(out) == BasisConfig.from_counts(
        [(0, 0, 0), (1, 0, 1), (0, 2, 0)]
    )
    assert sole_config(translate(st, 0)) == sole_config(st)


_MERGE_CONFIGS = [BasisConfig.from_counts([(a, 0, 0), (b, 0, 1)]) for a in (0, 1) for b in (0, 1)]


@st.composite
def branch_lists(draw):
    """Branches over four configs, with repeated signatures and amplitudes
    that differ by less or more than BRANCH_MERGE_TOL."""
    branches = []
    for _ in range(draw(st.integers(1, 12))):
        support = sorted(draw(st.sets(st.integers(0, 3), min_size=1)))
        phase = draw(st.sampled_from([1.0, 1j, -1.0]))
        nudge = draw(st.sampled_from([0.0, 3e-13, 3e-11]))
        amp = phase / math.sqrt(len(support))
        terms = {_MERGE_CONFIGS[i]: amp + (nudge if i == support[0] else 0.0) for i in support}
        branches.append((draw(st.floats(0.01, 1.0)), PureState(terms)))
    if draw(st.booleans()):
        branches.sort(key=lambda ws: (_branch_signature(ws[1]), ws[0]))
    return branches


@given(branch_lists())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_prop_merge_branches_matches_pairwise_loop(branches):
    got = _merge_branches(branches)
    want = merge_branches_pairwise(branches)
    assert len(got) == len(want)
    for (w, state), (w_ref, state_ref) in zip(got, want):
        assert w == w_ref
        assert state is state_ref


@st.composite
def lattice_texts(draw):
    """Lattice files as json writes them, one- and multi-digit counts, with
    random separators, indent, line ends and surrounding whitespace, and
    at most one byte deleted, inserted or replaced."""
    count = st.integers(0, 9)
    if draw(st.booleans()):
        count |= st.integers(-12, 10**20)
    sites = draw(st.lists(st.lists(count, min_size=3, max_size=3), max_size=5))
    if draw(st.booleans()):
        sites = [[a, 0, 0] for a, _, _ in sites]
    comma = draw(st.sampled_from([",", ", ", " ,", ",\t", ",\n"]))
    text = json.dumps(sites, indent=draw(st.sampled_from([None, 0, 1, 2, "\t"])),
                      separators=(comma, ": "))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    space = st.text(" \t\n\r", max_size=3)
    data = (draw(space) + text + draw(space)).encode()
    # edit where the byte reader looks: it drops whitespace before its checks
    k = draw(st.sampled_from([k for k in range(len(data)) if data[k] not in b" \t\n\r"]
                             + [len(data)]))
    byte = draw(st.sampled_from(b"[],0123456789 -.e\x0b")).to_bytes(1, "big")
    edit = draw(st.sampled_from(["none", "delete", "insert", "replace"]))
    return {"none": data, "delete": data[:k] + data[k + 1:], "insert": data[:k] + byte + data[k:],
            "replace": data[:k] + byte + data[k + 1:]}[edit]


@pytest.fixture(scope="module")
def lattice_path(tmp_path_factory):
    return tmp_path_factory.mktemp("lattice") / "lat.json"


def _outcome(read, path, a_only):
    try:
        return read(path, a_only)
    except Exception as exc:  # any error: its type and message are compared
        return type(exc), str(exc)


def _read_sites_by_json(path, a_only):
    with open(path) as fh:
        sites = check_sites(json.load(fh), a_only)
    rows = [s[0] for s in sites] if a_only else sites
    big = [x for x in np.array(rows, dtype=object).flat if not -2**63 <= x < 2**63]
    if big:
        raise ValueError(f"count {max(big, key=abs)} is too large for int64")
    return np.array(rows, dtype=np.int64)


@given(lattice_texts(), st.booleans())
@example(b"[[1 2,0,0]]", False)
@example(b"[[01,0,0]]", False)
@example(b"[[-0,0,0]]", False)
@example(b"[]", False)
@example(b"[[1,0,0],]", False)
@example(b"[[1,0,0]]x", False)
@example("\ufeff[[1,0,0]]".encode(), False)
@example(b"[[1,0,0.0]]", False)
@example(b"[[true,0,0]]", False)
@example(b"[[7,0,0]]", True)
@example(b"[[10,0,0]]", True)
@example(b"[[1,0,1]]", True)
@example(b"[[-,0,0]]", False)  # punctuation in place, a count that is no digit
@example(b"[[1,0,0]][2,0,0],", False)  # rows in place, "]" and "," swapped
@settings(max_examples=500, deadline=None, derandomize=True)
def test_prop_read_sites_matches_json_route(lattice_path, data, a_only):
    # the byte reader must give the json route's array, or raise its error
    lattice_path.write_bytes(data)
    got = _outcome(read_sites, lattice_path, a_only)
    want = _outcome(_read_sites_by_json, lattice_path, a_only)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.flags.c_contiguous
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
