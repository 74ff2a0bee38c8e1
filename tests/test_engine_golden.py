"""Bit-exact regression of the sparse engine against a recorded dump.

``tests/data/engine_golden.json`` holds the ``repr`` of every branch
weight and amplitude for two cases:

* the four-computer H/CZ/phase/H circuit plus
  ``MeasureQubit(1, rest=2, count_up_too=True)``, with phi and the
  measurement seed of units 1-29 of seeds 1-3 drawn as perfbench's
  ``EnsembleCircuit.inputs`` draws them;
* 30 random mixed states on L <= 4 sites, each through every single op
  of the sparse engine and through all of them as one script.

The dump was written by ``PYTHONPATH=src python tests/test_engine_golden.py``
on the commit before the sparse engine moved to site codes; rerunning it
overwrites the file with the current engine's output.
"""
import json
import math
import os
import sys

import numpy as np

from latticeqc import (
    ABRotation,
    BasisConfig,
    Collide,
    ControlPhasePi,
    CountP,
    DefectSplit,
    EmptyB,
    EmptyP,
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
    execute,
    measure_qubit,
    run_circuit,
)
from latticeqc.primitives import _step

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "engine_golden.json")


def dump(state):
    """Branch weights and terms, every float as its repr."""
    return [
        [repr(w), [["".join(f"{a}{b}{p}." for a, b, p in c.sites), repr(amp)]
                   for c, amp in st.terms.items()]]
        for w, st in state.branches
    ]


def ensemble_cases():
    n, computers = 2, 4
    block = [[1, 0, 0]] * n + [[1, 0, 1], [0, 0, 0]]
    start = classical(BasisConfig.from_counts(block * computers))
    out = []
    for seed in (1, 2, 3):
        for unit in range(1, 30):
            rng = np.random.default_rng([seed, unit])
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            measure_seed = int(rng.integers(2**63))
            macros = [HadamardLike(1), ControlPhasePi(1, 2), PhaseGate(1, phi),
                      HadamardLike(1)]
            state = run_circuit(start, macros, n=n)
            down, up, post = measure_qubit(
                state, MeasureQubit(1, rest=2, count_up_too=True),
                rng=np.random.default_rng(measure_seed), n=n,
            )
            out.append({"seed": seed, "unit": unit, "state": dump(state),
                        "down": down, "up": up, "post": dump(post)})
    return out


def _random_branch(rng, L, nterms, max_count=2):
    configs = set()
    while len(configs) < nterms:
        configs.add(BasisConfig.from_counts(rng.integers(0, max_count + 1, size=(L, 3))))
    if nterms == 1 and rng.random() < 0.5:
        amps = np.ones(1, dtype=complex)
    else:
        amps = rng.normal(size=nterms) + 1j * rng.normal(size=nterms)
        amps /= np.linalg.norm(amps)
    return PureState(dict(zip(sorted(configs), amps)))


def _ops(rng):
    m, n = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    return [
        PairTransfer(m, n, int(rng.integers(-m, n + 1))),
        WSwap(),
        ABRotation(float(rng.uniform(-math.pi, math.pi))),
        Collide(float(rng.uniform(-math.pi, math.pi))),
        Shift(int(rng.integers(-3, 4))),
        EmptyB(),
        EmptyP(),
        DefectSplit(float(rng.uniform(0.0, 1.0))),
        CountP(),
    ]


def random_op_cases():
    rng = np.random.default_rng(20261018)
    out = []
    for case in range(30):
        L = 1 + case % 4
        nbranch = 1 + (case % 3 == 2)
        weights = (1.0,) if nbranch == 1 else (0.25, 0.75)
        state = MixedState(
            [(w, _random_branch(rng, L, int(rng.integers(1, 5)))) for w in weights]
        )
        ops = _ops(rng)
        singles = []
        for op in ops:
            after, value = _step(state, op, np.random.default_rng(case))
            singles.append({"op": Script([op]).to_text().strip(), "count": value,
                            "state": dump(after)})
        chain_ops = ops[:2] + ops[3:] + ops[2:3]  # V last keeps the dump small
        chain, counts = execute(state, Script(chain_ops), np.random.default_rng(case))
        out.append({"input": dump(state), "singles": singles,
                    "chain": {"counts": counts, "state": dump(chain)}})
    return out


def current():
    return {"ensemble": ensemble_cases(), "random_ops": random_op_cases()}


def test_engine_matches_recorded_bits():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(current()))
    for key in ("ensemble", "random_ops"):
        assert len(got[key]) == len(want[key])
        for i, (g, w) in enumerate(zip(got[key], want[key])):
            assert g == w, f"{key} case {i} differs from the recorded bits"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(current(), fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
