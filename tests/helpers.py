"""Shared test utilities: dense one-site spaces, random states and the
straightforward loops that the optimized routines are checked against."""
import warnings

import numpy as np

from latticeqc import (
    BasisConfig,
    MixedState,
    PureState,
    RepairReport,
    SiteOccupancy,
    classical,
)
from latticeqc.lattice import BRANCH_MERGE_TOL, _branch_signature


def dense_site_configs(m_max=6):
    """All one-site configurations with a+b <= m_max and p <= m_max.

    On this space every non-channel primitive closes, so unitarity can be
    checked as an honest matrix identity.
    """
    out = []
    for a in range(m_max + 1):
        for b in range(m_max + 1 - a):
            for p in range(m_max + 1):
                out.append(BasisConfig((SiteOccupancy(a, b, p),)))
    return out


def op_matrix(op_fn, configs):
    """Matrix of a state-to-state map in the given basis."""
    index = {c: i for i, c in enumerate(configs)}
    M = np.zeros((len(configs), len(configs)), dtype=complex)
    for j, c in enumerate(configs):
        out = op_fn(classical(c))
        ((w, st),) = out.branches
        for cfg, amp in st:
            M[index[cfg], j] = amp
    return M


def random_config(rng, L, max_count=2):
    return BasisConfig.from_array(rng.integers(0, max_count + 1, size=(L, 3)))


def random_state(rng, L, nterms=4, max_count=2):
    configs = set()
    while len(configs) < nterms:
        configs.add(random_config(rng, L, max_count))
    amps = rng.normal(size=nterms) + 1j * rng.normal(size=nterms)
    amps /= np.linalg.norm(amps)
    terms = dict(zip(sorted(configs), amps))
    return MixedState([(1.0, PureState(terms))])


def repair_occupations_dense(a, schedule="exhaustive", rng=None, rounds=None):
    """Reference for :func:`latticeqc.repair_occupations`: every round
    masks the whole lattice, so a round costs O(L) however few defects
    are left.  Draws the random schedule exactly as the engine does."""
    a = np.array(a, dtype=np.int64, copy=True)
    L = a.size
    if schedule == "exhaustive":
        schedules = [range(1, L), range(1, L)]
    elif L > 1:
        schedules = [rng.integers(1, L, size=rounds) for _ in range(2)]
    else:
        schedules = [(), ()]
    fixed = 0
    executed = 0
    for defect_val, xs in zip((0, 1), schedules):
        for x in xs:
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
