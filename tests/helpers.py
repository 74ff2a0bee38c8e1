"""Shared test utilities: dense one-site spaces, random states and the
straightforward loops that the optimized routines are checked against."""
import cmath
import math
import warnings

import numpy as np

from latticeqc import (
    M_MAX,
    BasisConfig,
    MixedState,
    PureState,
    RepairExperimentReport,
    RepairReport,
    Script,
    SiteOccupancy,
    StrayAtomsError,
    classical,
    count_computers_oracle,
    execute,
    expected_yield,
    repair_occupations,
    repair_round_script,
    sample_defect_creation,
    sample_occupations,
)
from latticeqc.lattice import (
    BRANCH_MERGE_TOL,
    NORM_TOL,
    PRUNE_TOL,
    _SITE_TABLE,
    _branch_signature,
    _close,
    _encode,
    _lexsorted,
)
from latticeqc.primitives import _compile, _run
from latticeqc.protocols import _HOME, _QUBIT


def dense_site_configs():
    """All one-site configurations with a+b <= M_MAX and p <= M_MAX.

    On this space every non-channel primitive closes, so unitarity can be
    checked as an honest matrix identity.
    """
    out = []
    for a in range(M_MAX + 1):
        for b in range(M_MAX + 1 - a):
            for p in range(M_MAX + 1):
                out.append(BasisConfig((SiteOccupancy(a, b, p),)))
    return out


def run_op(state, op, rng=None):
    return execute(state, Script([op]), rng)[0]


def op_matrix(op, configs):
    """Matrix of one op in the given basis."""
    index = {row.tobytes(): i for i, row in enumerate(_encode([c.sites for c in configs]))}
    M = np.zeros((len(configs), len(configs)), dtype=complex)
    for j, c in enumerate(configs):
        out = run_op(classical(c), op)
        ((w, st),) = out.branches
        for code, amp in zip(st.codes, st.amps):
            M[index[code.tobytes()], j] = amp
    return M


# -- state helpers the package itself never needs ------------------------------


def amplitude(st, config):
    """The amplitude of one configuration in a pure state, 0 off its support."""
    return st.terms.get(config, 0.0 + 0.0j)


def inner(x, y):
    """<x|y> of two pure states, summed over the smaller support."""
    if len(x.amps) > len(y.amps):
        return inner(y, x).conjugate()
    return sum(a.conjugate() * y.terms.get(c, 0.0) for c, a in x.terms.items())


def sole_config(state):
    """The configuration of a one-branch, one-term state."""
    if len(state.branches) != 1 or not state.branches[0][1].is_classical():
        raise ValueError("state is not a single classical configuration")
    return next(iter(state.branches[0][1].terms))


def translate(state, d):
    """A mixed state with every site moved d sites to the right."""
    return MixedState([
        (w, PureState._from_codes(*_lexsorted(np.roll(st.codes, d, axis=1), st.amps)))
        for w, st in state.branches
    ])


def fidelity(x, y, mode="paired"):
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
            total += wx * abs(inner(sx, sy)) ** 2
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


def pure_state_by_dict(terms):
    """Reference for ``PureState(terms)``: (codes, amps) as the dict-sorting
    constructor made them.  It walks the configurations in sorted order,
    prunes below PRUNE_TOL, then checks support, lattice size, cutoff and
    norm, in that order."""
    cleaned = {}
    for config in sorted(terms):
        amp = complex(terms[config])
        if abs(amp) >= PRUNE_TOL:
            cleaned[config] = amp
    if not cleaned:
        raise ValueError("state has no support")
    if len({config.L for config in cleaned}) > 1:
        raise ValueError("terms live on different lattice sizes")
    codes = _encode([config.sites for config in cleaned])
    amps = np.array(list(cleaned.values()), dtype=complex)
    nsq = sum(abs(a) ** 2 for a in amps.tolist())
    if abs(nsq - 1.0) > NORM_TOL:
        raise ValueError(f"state norm^2 = {nsq!r} drifted from 1")
    return codes, amps


def random_config(rng, L, max_count=2):
    return BasisConfig.from_counts(rng.integers(0, max_count + 1, size=(L, 3)))


def random_state(rng, L, nterms=4, max_count=2):
    configs = set()
    while len(configs) < nterms:
        configs.add(random_config(rng, L, max_count))
    amps = rng.normal(size=nterms) + 1j * rng.normal(size=nterms)
    amps /= np.linalg.norm(amps)
    terms = dict(zip(sorted(configs), amps))
    return MixedState([(1.0, PureState(terms))])


# -- np.roll references for the engine's in-place cyclic scans -----------------


def run_by_rolls(codes, script):
    """primitives._run on site codes of shape (..., L), with each shift
    step's pointer digit moved by one np.roll copy."""
    for step in _compile(script):
        v = np.take(step[-1], codes)
        codes = v if step[0] == "table" else (v >> 3) + np.roll(v & 7, step[1], axis=-1)
    return codes


def homes_by_rolls(a, n):
    """oracle_homes by one np.roll per window offset: a_k == 1 and the n
    sites to its left (cyclically, along the last axis) hold two or more."""
    a = np.asarray(a)
    homes = a == 1
    for j in range(1, n + 1):
        homes = homes & np.roll(a >= 2, j, axis=-1)
    return homes


def homes_of_codes_by_rolls(codes, n):
    """protocols._homes by np.roll: the homes of formatted site codes of one
    ring, or the StrayAtomsError of the occupied sites outside them."""
    homes = codes == _HOME
    for j in range(1, n + 1):
        homes = homes & np.roll(codes == _QUBIT, j)
    cover = homes.copy()
    for j in range(1, n + 1):
        cover = cover | np.roll(homes, -j)
    strays = np.flatnonzero((codes != 0) & ~cover)
    if strays.size:
        raise StrayAtomsError(strays.tolist())
    return np.flatnonzero(homes)


def expected_formatted(a, n):
    """Full (..., L, 3) occupation pattern the oracle predicts after
    depopulating and formatting the a-counts."""
    a = np.asarray(a)
    homes = homes_by_rolls(a, n)
    window = np.zeros_like(homes)
    for j in range(1, n + 1):
        window = window | np.roll(homes, -j, axis=-1)
    occ = np.zeros(a.shape + (3,), dtype=np.int64)
    occ[..., 0] = homes | window
    occ[..., 2] = homes
    return occ


def repair_occupations_dense(a):
    """Reference for :func:`latticeqc.repair_occupations`: every round
    masks the whole lattice, so a round costs O(L) however few defects
    are left."""
    a = np.array(a, dtype=np.int64, copy=True)
    L = a.size
    fixed = 0
    executed = 0
    for defect_val in (0, 1):
        for x in range(1, L):
            if not (a == defect_val).any() or not (a == 4).any():
                break
            executed += 1
            mask = (a == defect_val) & (np.roll(a, x) == 4)
            hit = np.nonzero(mask)[0]
            if hit.size:
                a[hit] += 1
                a[(hit - x) % L] = 2
                fixed += hit.size
    report = RepairReport(
        defects_fixed=fixed,
        atoms_lost=fixed,
        rounds=executed,
        residual_empty=int((a == 0).sum()),
        residual_single=int((a == 1).sum()),
    )
    if report.residual_empty or report.residual_single:
        warnings.warn("insufficient donors", RuntimeWarning)
    return a, report


def repair_by_script(a):
    """The repair protocol itself on a-level counts: repair_round_script
    at x = 1, 2, ... per phase, run through the compiled engine, with the
    sweep's stop rule above.  Returns the (L, 3) site rows and the rounds
    run."""
    a = np.asarray(a)
    codes = _encode(np.stack([a, 0 * a, 0 * a], axis=-1))
    donor, empty, single = _encode([(4, 0, 0), (0, 0, 0), (1, 0, 0)]).tolist()
    rounds = 0
    for phase, defect in (("fill_empty", empty), ("fill_single", single)):
        for x in range(1, a.size):
            if not (codes == defect).any() or not (codes == donor).any():
                break
            codes = _run(codes, repair_round_script(x, phase))
            rounds += 1
    return _SITE_TABLE[codes], rounds


def repair_experiment_composed(L, dist, n, eps=None, seed=0):
    """Reference for :func:`latticeqc.repair_experiment`: the public steps
    composed, each returning its own int64 array, on one generator."""
    if eps is None:
        eps = 1.0 / n
    rng = np.random.default_rng(seed)
    a = sample_occupations(L, dist, rng)
    yield_before = count_computers_oracle(a, n)
    repaired, report = repair_occupations(a)
    final = sample_defect_creation(repaired, eps, rng)
    return RepairExperimentReport(
        L=L,
        n=n,
        eps=eps,
        seed=seed,
        p0_before=float((a == 0).mean()),
        p1_before=float((a == 1).mean()),
        p0_after=float((final == 0).mean()),
        p1_after=float((final == 1).mean()),
        donors_before=int((a == 4).sum()),
        yield_before=yield_before,
        yield_after=count_computers_oracle(final, n),
        prediction_after=expected_yield(L, 0.0, eps, n),
        repair=report,
    )


def merge_branches_pairwise(branches):
    """Reference for ``lattice._merge_branches``: compares each branch
    with every merged branch, O(B^2) in the branch count."""
    merged = []
    for w, st in branches:
        sig = _branch_signature(st)
        for i, (w0, st0) in enumerate(merged):
            if _branch_signature(st0) != sig:
                continue
            if all(abs(st.terms[c] - st0.terms[c]) <= BRANCH_MERGE_TOL for c in st.terms):
                merged[i] = (w0 + w, st0)
                break
        else:
            merged.append((w, st))
    return merged


# -- the sparse engine on {BasisConfig: complex} dicts ------------------------
#
# Reference for the site-code engine in ``latticeqc.primitives``: each op
# kind as a Python loop over the terms of a dict, with the rounding that
# the engine reproduces bit for bit.


def left_sum(xs):
    """Sum floats left to right, as the engine does; from Python 3.12 on,
    sum() compensates and can differ in the last bit."""
    total = 0.0
    for x in xs:
        total += x
    return total


def swap_terms(terms, op):
    """Exchange the two one-site states of op.pair on every site."""
    s1, s2 = map(SiteOccupancy._make, op.pair())
    if s1 == s2:
        return dict(terms)
    swap = {s1: s2, s2: s1}
    out = {}
    for config, amp in terms.items():
        new = BasisConfig(tuple(swap.get(s, s) for s in config.sites))
        out[new] = out.get(new, 0.0) + amp
    return out


def rotate_terms(terms, op):
    """Apply op.images on each site in turn, pruning after every site."""
    rows = {config.sites: amp for config, amp in terms.items()}
    images = {}
    for k in range(len(next(iter(rows)))):
        out = {}
        for sites, amp in rows.items():
            site = sites[k]
            if site not in images:
                images[site] = [(SiteOccupancy._make(s), u) for s, u in op.images(site)]
            for new, u in images[site]:
                key = sites if new == site else sites[:k] + (new,) + sites[k + 1:]
                out[key] = out.get(key, 0.0) + amp * u
        rows = {key: a for key, a in out.items() if abs(a) >= PRUNE_TOL}
    return {BasisConfig(sites): amp for sites, amp in rows.items()}


def shift_terms(terms, op):
    out = {}
    for config, amp in terms.items():
        L = config.L
        sites = config.sites
        new = BasisConfig(
            tuple(
                SiteOccupancy(sites[k].a, sites[k].b, sites[(k - op.x) % L].p)
                for k in range(L)
            )
        )
        out[new] = out.get(new, 0.0) + amp
    return out


def phase_terms(terms, op):
    out = {}
    for config, amp in terms.items():
        weight = sum(s.a * s.p for s in config.sites)
        out[config] = amp * cmath.exp(1j * op.phi * weight)
    return out


def empty_level(state, level_idx):
    """Trace out one level: branch on its occupation pattern, then zero it."""
    new_branches = []
    for w, st in state.branches:
        groups = {}
        for config, amp in st.terms.items():
            pattern = tuple(s[level_idx] for s in config.sites)
            zeroed = BasisConfig(
                tuple(
                    SiteOccupancy(*(0 if i == level_idx else s[i] for i in range(3)))
                    for s in config.sites
                )
            )
            grp = groups.setdefault(pattern, {})
            grp[zeroed] = grp.get(zeroed, 0.0) + amp
        for pattern in sorted(groups):
            terms = groups[pattern]
            weight = left_sum(abs(a) ** 2 for a in terms.values())
            if weight <= 1e-30:
                continue
            scale = 1.0 / math.sqrt(weight)
            new_branches.append(
                (w * weight,
                 PureState({c: a * scale for c, a in terms.items()}))
            )
    return MixedState(new_branches)


def count_p_terms(state, rng=None):
    """Sample the total pointer count and collapse, as COUNTP does."""
    dist = {}
    for w, st in state.branches:
        for config, amp in st.terms.items():
            c = sum(s.p for s in config.sites)
            dist[c] = dist.get(c, 0.0) + w * abs(amp) ** 2
    outcomes = sorted(dist)
    if len(outcomes) == 1:
        return float(outcomes[0]), state
    r = rng.random()
    acc = 0.0
    outcome = outcomes[-1]
    for c in outcomes:
        acc += dist[c]
        if r < acc:
            outcome = c
            break
    prob = dist[outcome]
    new_branches = []
    for w, st in state.branches:
        kept = {c: a for c, a in st.terms.items() if sum(s.p for s in c.sites) == outcome}
        if not kept:
            continue
        bw = left_sum(abs(a) ** 2 for a in kept.values())
        scale = 1.0 / math.sqrt(bw)
        new_branches.append(
            (w * bw / prob,
             PureState({c: a * scale for c, a in kept.items()}))
        )
    return float(outcome), MixedState(new_branches)


_TERM_KERNELS = {
    "swap": swap_terms, "rotate": rotate_terms, "shift": shift_terms, "phase": phase_terms
}


def step_terms(state, op, rng=None):
    """One op through the dict engine: (state, COUNTP outcome or None)."""
    if op.kind == "count":
        value, state = count_p_terms(state, rng)
        return state, value
    if op.kind == "empty":
        return empty_level(state, op.level), None
    kernel = _TERM_KERNELS[op.kind]
    branches = [(w, PureState(kernel(st.terms, op))) for w, st in state.branches]
    return MixedState(branches), None
