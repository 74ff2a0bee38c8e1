"""The four benchmark workloads.

A workload builds its run inputs from the benchmark seed (``__init__``),
derives each unit's inputs from (seed, unit index) (``inputs``), makes one
timed call into latticeqc per unit (``call``), checks that call's output
(``check``, raising :class:`CheckFailed`) and checks the whole run at the
end (``finish``).  The program receives only the generated inputs.  The
reference values are computed here, independently of latticeqc, with one
exception: ``ensemble_circuit`` compares the four-computer amplitudes with
latticeqc's own one-computer run, which is a self-consistency check; only
the norm and the support of the one-computer state are checked
independently.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os

import numpy as np

from latticeqc import cli, gates, lattice, stats

Z_LIMIT = 3.0      # run means must lie within this many standard errors
AMP_TOL = 1e-10    # product-state check on the ensemble amplitudes


class CheckFailed(Exception):
    """An output of the program is wrong."""


def unit_key(seed: int, i: int) -> list[int]:
    """Entropy of unit i's inputs.  Unit 0 is the untimed warm-up of the
    set-up.  It takes the same inputs on every seed, so that setup_s
    measures the set-up and not the seed's draw."""
    return [seed, i] if i else [0, 0]


def unit_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng(unit_key(seed, i))


def home_count(a: np.ndarray, n: int) -> int:
    """Computers formatting leaves on raw a-counts: a site holding exactly
    one atom whose n left neighbours (cyclically) each hold two or more."""
    homes = a == 1
    for j in range(1, n + 1):
        homes &= np.roll(a >= 2, j)
    return int(homes.sum())


def home_moments(L: int, p0: float, p1: float, n: int) -> tuple[float, float]:
    """Exact mean and variance of :func:`home_count` on an iid lattice.

    A site is a home with probability q = p1 (1-p0-p1)^n.  Two homes closer
    than n+1 sites exclude each other and farther ones are independent, so
    Var = L q (1 - q) - 2 n L q^2.
    """
    q = p1 * (1.0 - p0 - p1) ** n
    return L * q, L * q * (1.0 - (2 * n + 1) * q)


def z_check(label: str, residuals: list[float], variances: list[float]):
    """The summed residuals must lie within Z_LIMIT standard errors."""
    if not residuals:
        return
    z = sum(residuals) / math.sqrt(sum(variances))
    if abs(z) > Z_LIMIT:
        raise CheckFailed(f"{label}: run mean is {z:+.2f} standard errors off")


class Workload:
    """Defaults for workloads without run-level checks or files."""

    def finish(self):
        pass

    def close(self):
        pass


class YieldProtocol(Workload):
    name = "yield_protocol"
    params = {"L": 100_000, "n": 5, "p0": 0.1, "p1": 0.1}
    fingerprint_units = 4

    def __init__(self, seed: int, workdir: str):
        p = self.params
        self.seed = seed
        self.probs = [p["p0"], p["p1"], 1.0 - p["p0"] - p["p1"]]
        self.mean, self.var = home_moments(p["L"], p["p0"], p["p1"], p["n"])
        self.residuals: list[float] = []

    def inputs(self, i: int):
        return unit_rng(self.seed, i).choice(3, size=self.params["L"], p=self.probs)

    def call(self, a):
        return stats.count_computers_protocol(a, self.params["n"])

    def check(self, a, count):
        expected = home_count(a, self.params["n"])
        if count != expected:
            raise CheckFailed(f"protocol counted {count}, oracle {expected}")
        self.residuals.append(count - self.mean)

    def finish(self):
        z_check("yield", self.residuals, [self.var] * len(self.residuals))


class RepairYield(Workload):
    name = "repair_yield"
    params = {"L": 100_000, "fill": (0.05, 0.1, 0.45, 0.1, 0.3), "n": (4, 8)}
    fingerprint_units = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dist = stats.FillDistribution(*self.params["fill"])
        self.residuals: list[float] = []
        self.variances: list[float] = []

    def inputs(self, i: int):
        n = self.params["n"][i % 2]
        trial_seed = int(np.random.SeedSequence(unit_key(self.seed, i)).generate_state(1)[0])
        return n, trial_seed

    def call(self, x):
        n, trial_seed = x
        return stats.repair_experiment(self.params["L"], self.dist, n, seed=trial_seed)

    def check(self, x, report):
        n, _ = x
        rep = report.repair
        if rep.residual_empty or rep.residual_single:
            raise CheckFailed(
                f"{rep.residual_empty} empty and {rep.residual_single} single sites remain"
            )
        if rep.atoms_lost != rep.defects_fixed:
            raise CheckFailed(f"lost {rep.atoms_lost} atoms for {rep.defects_fixed} defects")
        # After a full repair the lattice is iid with p0 = 0 and p1 = 1/n.
        mean, var = home_moments(self.params["L"], 0.0, 1.0 / n, n)
        self.residuals.append(report.yield_after - mean)
        self.variances.append(var)

    def finish(self):
        z_check("repaired yield", self.residuals, self.variances)


def _formatted_sites(n: int, computers: int) -> list[list[int]]:
    """``computers`` formatted n-qubit computers, each followed by one empty
    site: qubits (all |down>), home, gap."""
    block = [[1, 0, 0]] * n + [[1, 0, 1], [0, 0, 0]]
    return block * computers


def check_one_computer(terms: dict):
    """The one-computer state of the ensemble circuit on L = 4: unit norm,
    and every term keeps qubit 2 in |down>, the home and the gap intact,
    with qubit 1 in |down> or |up>."""
    norm = sum(abs(amp) ** 2 for amp in terms.values())
    if abs(norm - 1.0) > AMP_TOL:
        raise CheckFailed(f"one-computer norm is {norm}")
    for config in terms:
        q2, q1, home, gap = config.sites
        if (q2, home, gap) != (gates.DOWN_SITE, gates.HOME_SITE, gates.EMPTY_SITE) or \
                q1 not in (gates.DOWN_SITE, gates.UP_SITE):
            raise CheckFailed(f"one-computer term outside the logical states: {config.sites}")


class EnsembleCircuit(Workload):
    name = "ensemble_circuit"
    params = {"L": 16, "n": 2, "computers": 4}
    fingerprint_units = 4

    def __init__(self, seed: int, workdir: str):
        n, k = self.params["n"], self.params["computers"]
        self.seed = seed
        self.start = lattice.classical(lattice.BasisConfig.from_counts(_formatted_sites(n, k)))
        self.single = lattice.classical(lattice.BasisConfig.from_counts(_formatted_sites(n, 1)))

    def macros(self, phi: float):
        return [gates.HadamardLike(1), gates.ControlPhasePi(1, 2),
                gates.PhaseGate(1, phi), gates.HadamardLike(1)]

    def inputs(self, i: int):
        rng = unit_rng(self.seed, i)
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        return phi, int(rng.integers(2**63))

    def call(self, x):
        phi, measure_seed = x
        n = self.params["n"]
        state = gates.run_circuit(self.start, self.macros(phi), n=n)
        down, up, _ = gates.measure_qubit(
            state, gates.MeasureQubit(1, rest=2, count_up_too=True),
            rng=np.random.default_rng(measure_seed), n=n,
        )
        return state, down, up

    def check(self, x, out):
        phi, _ = x
        state, down, up = out
        if down + up != self.params["computers"]:
            raise CheckFailed(f"measured {down} down + {up} up computers")
        ref = gates.run_circuit(self.single, self.macros(phi), n=self.params["n"])
        if len(ref.branches) != 1 or len(state.branches) != 1:
            raise CheckFailed("circuit left a mixed state")
        one = ref.branches[0][1].terms
        check_one_computer(one)
        terms = state.branches[0][1].terms
        # Every product of one-computer terms, compared with the four-computer
        # amplitude; a product below PRUNE_TOL may be missing from the state.
        matched = 0
        for parts in itertools.product(one.items(), repeat=self.params["computers"]):
            config = lattice.BasisConfig(sum((c.sites for c, _ in parts), ()))
            prod = math.prod(amp for _, amp in parts)
            amp = terms.get(config, 0.0)
            matched += config in terms
            if abs(amp - prod) > AMP_TOL:
                raise CheckFailed(f"amplitude {amp} differs from product {prod}")
        if matched != len(terms):
            raise CheckFailed(f"{len(terms) - matched} terms are not products")


class FormatReport(Workload):
    name = "format_report"
    params = {"L": 100_000, "n": 3, "p0": 0.1, "p1": 0.1}
    fingerprint_units = 2

    def __init__(self, seed: int, workdir: str):
        p = self.params
        probs = [p["p0"], p["p1"], 1.0 - p["p0"] - p["p1"]]
        a = np.random.default_rng([seed, 0]).choice(3, size=p["L"], p=probs)
        self.expected_computers = home_count(a, p["n"])
        tag = f"{os.getpid()}"
        self.lattice_path = os.path.join(workdir, f"format-lattice-{tag}.json")
        self.out_path = os.path.join(workdir, f"format-report-{tag}.json")
        with open(self.lattice_path, "w") as fh:
            json.dump([[int(x), 0, 0] for x in a], fh)
        self.argv = ["format", "--lattice", self.lattice_path, "--n", str(p["n"]),
                     "--check-oracle", "--out", self.out_path]
        self.reference: bytes | None = None

    def inputs(self, i: int):
        return None

    def call(self, x):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(self.argv)

    def check(self, x, code):
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        if self.reference is None:
            report = json.loads(data)
            if report.get("oracle_match") is not True:
                raise CheckFailed("oracle_match is not true")
            if len(report["computers"]) != self.expected_computers:
                raise CheckFailed(
                    f"{len(report['computers'])} computers, oracle {self.expected_computers}"
                )
            self.reference = data
        elif data != self.reference:
            raise CheckFailed("report bytes differ from the first run on the same input")

    def close(self):
        for path in (self.lattice_path, self.out_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


WORKLOADS = {w.name: w for w in (YieldProtocol, RepairYield, EnsembleCircuit, FormatReport)}
