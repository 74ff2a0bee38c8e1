"""Byte identity of the README's CLI reports against recorded files.

``tests/data/cli/`` holds the ``--out`` file of each command in
``COMMANDS``, plus the script and lattice inputs of the two ``run``
cases.  ``PYTHONPATH=src python tests/test_cli_golden.py`` rewrites the
recorded reports from the current code.
"""
import os
import sys

import pytest

from latticeqc.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data", "cli")

# report file -> argv; "{data}" names the directory of the inputs
COMMANDS = {
    "format.json": ["format", "--L", "64", "--n", "3", "--seed", "7",
                    "--check-oracle"],
    "gates_phase.json": ["gates", "--gate", "phase", "--q", "2", "--phi", "0.785",
                         "--n", "3"],
    "gates_h.json": ["gates", "--gate", "h", "--q", "1", "--n", "3"],
    "gates_h_L7.json": ["gates", "--gate", "h", "--q", "2", "--n", "2", "--L", "7"],
    "gates_cz.json": ["gates", "--gate", "cz", "--q1", "1", "--q2", "3", "--n", "3"],
    "stats.json": ["stats", "--L", "20000", "--n", "5", "--trials", "4", "--seed", "1"],
    "stats_default.json": ["stats", "--L", "100000", "--n", "5", "--p0", "0.1", "--p1", "0.1",
                           "--trials", "100", "--seed", "1"],
    "repair.json": ["repair", "--L", "3000", "--n", "4", "--seed", "2"],
    "run_quantum.json": ["run", "{data}/q.txt", "{data}/lat.json", "--seed", "3"],
    "run_classical.json": ["run", "{data}/c.txt", "{data}/lat.json"],
}


def run(name, out):
    argv = [arg.replace("{data}", DATA) for arg in COMMANDS[name]]
    return main(argv + ["--out", out])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_report_matches_recorded_bytes(name, tmp_path, capsys):
    out = tmp_path / name
    assert run(name, str(out)) == 0
    with open(os.path.join(DATA, name), "rb") as fh:
        assert out.read_bytes() == fh.read()


if __name__ == "__main__":
    for name in sorted(COMMANDS):
        assert run(name, os.path.join(DATA, name)) == 0, name
    print(f"wrote {len(COMMANDS)} reports to {DATA}", file=sys.stderr)
