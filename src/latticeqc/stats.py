"""Yield statistics for randomly filled lattices.

The straightforward counting argument: a site ends up as a home iff it
starts with exactly one atom and the n sites left of it hold two or more,
so the expected computer count is L*p1*(1-p0-p1)^n (everything at or
above two atoms folds into the two-atom class during depopulation).
Monte Carlo trials validate that against the simulated protocol, and the
repair pipeline against the (L/n)*(1-1/n)^n law for repaired lattices.
"""
from __future__ import annotations

import io
import math
import os
from dataclasses import asdict, dataclass
from multiprocessing import Pool

import numpy as np

from .protocols import (
    RepairReport,
    _format_codes,
    _homes,
    _ring,
    oracle_homes,
    repair_occupations,
    sample_defect_creation,
)


@dataclass(frozen=True)
class FillDistribution:
    """iid per-site atom-count distribution over 0..4 atoms."""

    p0: float
    p1: float
    p2: float
    p3: float = 0.0
    p4: float = 0.0

    def __post_init__(self):
        probs = self.probs
        if not np.isfinite(probs).all():
            raise ValueError(f"probabilities must be finite numbers, got {probs.tolist()}")
        if probs.min() < 0.0 or probs.max() > 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {float(probs.sum())!r}, expected 1")

    @property
    def probs(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2, self.p3, self.p4])

    @classmethod
    def from_pair(cls, p0: float, p1: float) -> "FillDistribution":
        """Fold all remaining probability into the two-atom class."""
        return cls(p0, p1, 1.0 - p0 - p1)


def sample_occupations(
    L: int, dist: FillDistribution, rng: np.random.Generator
) -> np.ndarray:
    """L iid counts drawn as ``rng.choice(5, size=L, p=dist.probs)`` draws
    them, from the same uniforms: the count of a site is the number of
    cumulative probabilities (the last excepted) at or below its uniform."""
    cdf = dist.probs.cumsum(dtype=float)
    cdf /= cdf[-1]
    u = rng.random(L)
    out = np.zeros(L, dtype=np.int64)
    for c in cdf[:-1]:
        out += u >= c
    return out


def expected_yield(L: int, p0: float, p1: float, n: int) -> float:
    """Expected computer count on an iid lattice (exact by linearity); 0
    for n >= L, where a home's window wraps onto the home itself."""
    return L * p1 * (1.0 - p0 - p1) ** n if n < L else 0.0


def repaired_yield(L: int, n: int) -> float:
    """Expected count after repair and controlled defect creation at 1/n:
    every site holds two atoms but for a defect (one atom) at rate 1/n."""
    return expected_yield(L, 0.0, 1.0 / n, n)


def count_computers_oracle(a: np.ndarray, n: int) -> int:
    """Computer count predicted combinatorially from the raw a-counts of
    one ring, checked as :func:`count_computers_protocol` checks them."""
    return int(oracle_homes(_ring(a), n).sum())


def count_computers_protocol(a: np.ndarray, n: int) -> int:
    """Computer count from actually running depopulate + format on the raw
    a-counts of one ring; a ring the oracle refuses is refused alike."""
    return _homes(_format_codes(a, n), n).size


@dataclass(frozen=True)
class YieldReport:
    L: int
    n: int
    trials: int
    seed: int
    mode: str
    counts: list[int]
    mean: float
    stderr: float
    prediction: float
    z: float

    to_json_obj = asdict

    def to_csv(self) -> str:
        """One row per trial, then a summary row."""
        buf = io.StringIO()
        buf.write("trial_seed,count\n")
        for s, c in zip(trial_seeds(self.seed, self.trials), self.counts):
            buf.write(f"{s},{c}\n")
        buf.write(
            f"summary,mean={self.mean!r} stderr={self.stderr!r} "
            f"prediction={self.prediction!r} z={self.z!r}\n"
        )
        return buf.getvalue()


def trial_seeds(seed: int, trials: int) -> list[int]:
    """Per-trial integer seeds, derived once from the master seed.

    Trial i always runs on default_rng(trial_seeds(seed, trials)[i]), so
    results do not depend on worker scheduling.
    """
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)]


def _yield_trial(args) -> int:
    trial_seed, L, dist, n, count = args
    return count(sample_occupations(L, dist, np.random.default_rng(trial_seed)), n)


def monte_carlo_yield(
    L: int,
    dist: FillDistribution,
    n: int,
    trials: int,
    seed: int,
    mode: str = "oracle",
    jobs: int = 1,
) -> YieldReport:
    """Sample iid lattices and compare the computer count to the formula.

    The prediction folds everything at two or more atoms into the
    two-atom class, so only p0 and p1 enter.  z is the distance of the
    empirical mean from the prediction in standard errors.  ``jobs`` is
    capped at the trial count and the CPU count.
    """
    if L < 1:
        raise ValueError("lattice needs at least one site")
    if n < 1:
        raise ValueError("computers need at least one qubit site")
    if trials < 2:
        raise ValueError("need at least two trials for a standard error")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    count = {"oracle": count_computers_oracle, "full_protocol": count_computers_protocol}.get(mode)
    if count is None:
        raise ValueError(f"unknown mode {mode!r}")
    args = [(s, L, dist, n, count) for s in trial_seeds(seed, trials)]
    jobs = min(jobs, trials, os.cpu_count() or 1)
    if jobs > 1:
        with Pool(jobs) as pool:
            counts = pool.map(_yield_trial, args)
    else:
        counts = [_yield_trial(a) for a in args]
    counts_arr = np.array(counts, dtype=float)
    mean = float(counts_arr.mean())
    stderr = float(counts_arr.std(ddof=1) / math.sqrt(trials))
    prediction = expected_yield(L, dist.p0, dist.p1, n)
    if stderr > 0.0:
        z = (mean - prediction) / stderr
    else:
        z = 0.0 if mean == prediction else math.copysign(math.inf, mean - prediction)
    return YieldReport(
        L=L,
        n=n,
        trials=trials,
        seed=seed,
        mode=mode,
        counts=[int(c) for c in counts],
        mean=mean,
        stderr=stderr,
        prediction=prediction,
        z=float(z),
    )


@dataclass(frozen=True)
class RepairExperimentReport:
    L: int
    n: int
    eps: float
    seed: int
    p0_before: float
    p1_before: float
    p0_after: float
    p1_after: float
    donors_before: int
    yield_before: int
    yield_after: int
    prediction_after: float
    repair: RepairReport

    to_json_obj = asdict


def repair_experiment(
    L: int,
    dist: FillDistribution,
    n: int,
    eps: float | None = None,
    seed: int = 0,
) -> RepairExperimentReport:
    """Sample, repair exhaustively, re-create defects at rate eps (default
    1/n), and report defect fractions and computer yields before/after.

    After a full repair every site holds 2..4 atoms, so the post-creation
    lattice is exactly iid with p0 = 0, p1 = eps and the yield prediction
    L*eps*(1-eps)^n holds with no approximation.
    """
    if L < 1:
        raise ValueError("lattice needs at least one site")
    if n < 1:
        raise ValueError("computers need at least one qubit site")
    if eps is None:
        eps = 1.0 / n
    elif not 0.0 <= eps <= 1.0:
        raise ValueError(f"defect rate eps must lie in [0, 1], got {float(eps)!r}")
    rng = np.random.default_rng(seed)
    a = sample_occupations(L, dist, rng)
    p0_before = float((a == 0).mean())
    p1_before = float((a == 1).mean())
    yield_before = count_computers_oracle(a, n)
    donors_before = int((a == 4).sum())
    repaired, report = repair_occupations(a)
    a_final = sample_defect_creation(repaired, eps, rng)
    return RepairExperimentReport(
        L=L,
        n=n,
        eps=eps,
        seed=seed,
        p0_before=p0_before,
        p1_before=p1_before,
        p0_after=float((a_final == 0).mean()),
        p1_after=float((a_final == 1).mean()),
        donors_before=donors_before,
        yield_before=yield_before,
        yield_after=count_computers_oracle(a_final, n),
        prediction_after=expected_yield(L, 0.0, eps, n),
        repair=report,
    )
