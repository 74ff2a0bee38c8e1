import json
import math
import warnings

import pytest

from latticeqc import BasisConfig, MixedState, PureState, cli, primitives, protocols, stats
from latticeqc.cli import main


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- format ------------------------------------------------------------------


def test_format_with_oracle_check(tmp_path, capsys):
    out = tmp_path / "fmt.json"
    rc = main(
        ["format", "--L", "64", "--n", "2", "--seed", "5", "--check-oracle",
         "--out", str(out)]
    )
    assert rc == 0
    report = read_json(out)
    assert report["oracle_match"] is True
    assert report["L"] == 64
    assert len(report["final"]) == 64
    for comp in report["computers"]:
        assert len(comp["qubit_sites"]) == 2


def test_format_output_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["format", "--L", "48", "--n", "3", "--seed", "9", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_format_from_lattice_file(tmp_path, capsys):
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps([[2, 0, 0], [1, 0, 0]]))
    out = tmp_path / "fmt.json"
    rc = main(["format", "--n", "1", "--lattice", str(lat), "--out", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["seed"] is None
    assert report["final"] == [[1, 0, 0], [1, 0, 1]]
    assert report["computers"] == [{"home": 1, "n": 1, "qubit_sites": [0]}]


@pytest.mark.parametrize(
    "sites, n, computers",
    [
        ([[2, 0, 0], [1, 0, 0], [0, 0, 0], [2, 0, 0]], 2,
         [{"home": 1, "n": 2, "qubit_sites": [3, 0]}]),
        ([[0, 0, 0], [2, 0, 0], [2, 0, 0], [2, 0, 0], [1, 0, 0], [0, 0, 0]], 3,
         [{"home": 4, "n": 3, "qubit_sites": [1, 2, 3]}]),
    ],
    ids=["wrapped", "inner"],
)
def test_format_writes_each_register(tmp_path, capsys, sites, n, computers):
    # qubit_sites runs home-n .. home-1 (mod L)
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps(sites))
    out = tmp_path / "fmt.json"
    rc = main(["format", "--n", str(n), "--lattice", str(lat), "--check-oracle",
               "--out", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["computers"] == computers
    assert report["oracle_match"] is True


@pytest.mark.parametrize(
    "skew", [lambda homes: homes[:-1], lambda homes: homes + 1], ids=["short", "shifted"]
)
def test_format_reports_oracle_mismatch(tmp_path, capsys, monkeypatch, skew):
    # with two or more computers, an elementwise == on the home arrays
    # raises instead of reporting the mismatch
    real = cli.oracle_computers

    def skewed(a, n):
        homes = real(a, n)
        assert homes.size >= 2
        return skew(homes)

    monkeypatch.setattr(cli, "oracle_computers", skewed)
    out = tmp_path / "fmt.json"
    rc = main(["format", "--L", "64", "--n", "2", "--seed", "1", "--check-oracle",
               "--out", str(out)])
    assert rc == 1
    assert read_json(out)["oracle_match"] is False


def test_format_rejects_empty_lattice(tmp_path, capsys):
    lat = tmp_path / "lat.json"
    lat.write_text("[]")
    assert main(["format", "--n", "1", "--lattice", str(lat)]) == 2
    assert main(["format", "--n", "1", "--L", "0"]) == 2
    assert main(["format", "--n", "1", "--L", "-3"]) == 2
    assert capsys.readouterr().err.count("lattice needs at least one site") == 3


@pytest.mark.parametrize(
    "sites", [[[1, 1, 0]], [[2, 0, 3]], [[2, 0, 0], [1, 0]], [[1.0, 0, 0]], [2],
              [[2, 0, 0], [True, 0, 0]]]
)
def test_format_rejects_sites_outside_level_a(tmp_path, capsys, sites):
    # format reads level a only; b, p or a malformed site must not be dropped
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps(sites))
    out = tmp_path / "fmt.json"
    assert main(["format", "--n", "1", "--lattice", str(lat), "--out", str(out)]) == 2
    assert "format takes sites [a, 0, 0]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [("[[1 2, 0, 0]]", "Expecting ',' delimiter: line 1 column 5 (char 4)"),
     ("[[01, 0, 0]]", "Expecting ',' delimiter: line 1 column 4 (char 3)"),
     ('{"a": 1}', "a lattice is a list of sites, got dict")],
    ids=["split-count", "leading-zero", "object"],
)
def test_format_rejects_malformed_json(tmp_path, capsys, text, message):
    # dropping the whitespace of "1 2" leaves "12", but json refuses both
    lat = tmp_path / "lat.json"
    lat.write_text(text)
    out = tmp_path / "fmt.json"
    assert main(["format", "--n", "1", "--lattice", str(lat), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_format_report_ignores_lattice_whitespace(tmp_path, capsys):
    sites = [[a, 0, 0] for a in [2, 2, 1, 0, 2, 2, 2, 1, 1, 2, 0, 2, 2, 1]]
    texts = [json.dumps(sites, separators=(",", ":")), json.dumps(sites),
             json.dumps(sites, indent=2).replace("\n", "\r\n")]
    reports = []
    for k, text in enumerate(texts):
        lat, out = tmp_path / f"lat{k}.json", tmp_path / f"fmt{k}.json"
        lat.write_bytes(text.encode())
        assert main(["format", "--n", "2", "--lattice", str(lat), "--check-oracle",
                     "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert len(json.loads(reports[0])["computers"]) == 3


def _format_lattice(tmp_path, name, sites):
    """Exit code and report path of ``format --n 1 --check-oracle`` on sites."""
    lat, out = tmp_path / f"{name}.json", tmp_path / f"{name}-fmt.json"
    lat.write_text(json.dumps(sites))
    argv = ["format", "--n", "1", "--lattice", str(lat), "--check-oracle", "--out", str(out)]
    return main(argv), out


def test_format_runs_count_above_cutoff(tmp_path):
    # depopulation ends a 7 at two atoms, so format counts it as the oracle does
    code, out = _format_lattice(tmp_path, "lat", [[7, 0, 0], [1, 0, 0], [2, 0, 0]])
    assert code == 0
    report = read_json(out)
    assert report["computers"] == [{"home": 1, "n": 1, "qubit_sites": [0]}]
    assert report["oracle_match"] is True
    assert report["initial"] == [[7, 0, 0], [1, 0, 0], [2, 0, 0]]
    assert report["final"] == [[1, 0, 0], [1, 0, 1], [0, 0, 0]]


@pytest.mark.parametrize("count", [127, 128, 255, 256, 300, 70000, 2**40, -1, -129])
def test_format_rejects_count_outside_cutoff(tmp_path, capsys, count):
    # a negative count is refused; a count above the cutoff formats as a 6,
    # which no narrow integer type may wrap back into 0..6 on the way
    code, out = _format_lattice(tmp_path, "lat", [[count, 0, 0], [1, 0, 0], [2, 0, 0]])
    if count < 0:
        assert code == 2
        assert capsys.readouterr().err == "error: negative occupation\n"
        assert not out.exists()
        return
    assert code == 0
    _, six = _format_lattice(tmp_path, "six", [[6, 0, 0], [1, 0, 0], [2, 0, 0]])
    report, want = read_json(out), read_json(six)
    assert report.pop("initial")[0] == [count, 0, 0]
    del want["initial"]
    assert report == want
    assert report["oracle_match"] is True and len(report["computers"]) == 1


@pytest.mark.parametrize("count", [10**30, 2**64, 2**63])
def test_format_refuses_count_past_int64_in_its_own_words(tmp_path, capsys, count):
    code, out = _format_lattice(tmp_path, "lat", [[count, 0, 0], [1, 0, 0], [2, 0, 0]])
    assert code == 2
    assert capsys.readouterr().err == f"error: count {count} is too large for int64\n"
    assert not out.exists()


# -- gates -------------------------------------------------------------------


def test_gates_phase(tmp_path, capsys):
    out = tmp_path / "g.json"
    rc = main(
        ["gates", "--gate", "phase", "--q", "2", "--phi", str(math.pi / 7),
         "--n", "3", "--out", str(out)]
    )
    assert rc == 0
    report = read_json(out)
    assert report["checks"] == {"matches_diag": True}
    assert report["leakage"] == 0.0
    assert report["matrix"][1][1] == {"re": 1.0, "im": 0.0}


def test_gates_hadamard(tmp_path, capsys):
    out = tmp_path / "g.json"
    rc = main(["gates", "--gate", "h", "--q", "1", "--n", "2", "--out", str(out)])
    assert rc == 0
    checks = read_json(out)["checks"]
    assert checks == {"unbiased": True, "hadamard_up_to_phases": True}


def test_gates_cz(tmp_path, capsys):
    out = tmp_path / "g.json"
    rc = main(
        ["gates", "--gate", "cz", "--q1", "1", "--q2", "3", "--n", "3",
         "--L", "12", "--out", str(out)]
    )
    assert rc == 0
    checks = read_json(out)["checks"]
    assert checks == {"diagonal": True, "one_minus": True, "entangling": True}


def test_gates_rejects_flags_of_other_gates(capsys):
    assert main(["gates", "--gate", "h", "--q", "1", "--phi", "2", "--q1", "5"]) == 2
    assert "macro 'h' has no field 'phi'" in capsys.readouterr().err
    assert main(["gates", "--gate", "phase", "--q", "1", "--phi", "0.5", "--q2", "3"]) == 2
    assert "macro 'phase' has no field 'q2'" in capsys.readouterr().err
    assert main(["gates", "--gate", "cz", "--q1", "1", "--q2", "2", "--q", "3"]) == 2
    assert "macro 'cz' has no field 'q'" in capsys.readouterr().err


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
def test_gates_rejects_non_finite_phi(tmp_path, capsys, phi):
    out = tmp_path / "g.json"
    assert main(["gates", "--gate", "phase", "--q", "1", f"--phi={phi}", "--n", "2",
                 "--out", str(out)]) == 2
    assert "phase angle must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_reports_refuse_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        cli._write_json(str(tmp_path / "r.json"), {"z": math.inf})
    assert not (tmp_path / "r.json").exists()


def test_gates_missing_flags(capsys):
    assert main(["gates", "--gate", "phase", "--q", "1"]) == 2
    assert main(["gates", "--gate", "cz", "--q1", "1"]) == 2


# -- stats -------------------------------------------------------------------


def test_stats_report_and_csv(tmp_path, capsys):
    out = tmp_path / "s.json"
    csv = tmp_path / "s.csv"
    rc = main(
        ["stats", "--L", "2000", "--n", "3", "--trials", "10", "--seed", "7",
         "--out", str(out), "--csv", str(csv)]
    )
    assert rc == 0
    report = read_json(out)
    assert report["trials"] == 10
    assert abs(report["z"]) <= 3.0
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 12  # header, 10 trials, summary


def test_stats_unwritable_csv_leaves_no_report(tmp_path, capsys):
    out = tmp_path / "s.json"
    rc = main(["stats", "--L", "200", "--n", "2", "--trials", "3",
               "--out", str(out), "--csv", str(tmp_path / "missing" / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_stats_unwritable_out_leaves_no_csv(tmp_path, capsys):
    csv = tmp_path / "s.csv"
    rc = main(["stats", "--L", "200", "--n", "2", "--trials", "3",
               "--csv", str(csv), "--out", str(tmp_path / "missing" / "s.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not csv.exists()


def test_stats_csv_that_fails_mid_write_leaves_neither_file(tmp_path, capsys, monkeypatch):
    # a lone surrogate has no UTF-8 bytes, so the CSV opens and then fails
    # to write, as on a full disk
    monkeypatch.setattr(stats.YieldReport, "to_csv", lambda self: "trial_seed,count\n\ud800")
    out, csv = tmp_path / "s.json", tmp_path / "s.csv"
    rc = main(["stats", "--L", "200", "--n", "2", "--trials", "3",
               "--csv", str(csv), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not csv.exists() and not out.exists()


def test_stats_has_no_mode_option(capsys):
    # stats always counts by running the protocol
    with pytest.raises(SystemExit) as err:
        main(["stats", "--n", "5", "--mode", "oracle"])
    assert err.value.code == 2
    assert "unrecognized arguments: --mode oracle" in capsys.readouterr().err


def test_stats_jobs_do_not_change_output(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["stats", "--L", "500", "--n", "2", "--trials", "6", "--seed", "3"]
    assert main(base + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stats_z_gate_fails_loudly(tmp_path, capsys):
    # two trials on a tiny lattice both count zero computers, so the
    # zero-variance mean sits infinitely many standard errors off
    out = tmp_path / "s.json"
    rc = main(
        ["stats", "--L", "10", "--n", "5", "--trials", "2", "--seed", "1",
         "--out", str(out)]
    )
    assert rc == 1
    report = read_json(out)
    assert report["counts"] == [0, 0]
    assert report["z"] is None  # -inf has no strict-JSON spelling
    assert "Infinity" not in out.read_text()


def test_stats_passes_when_the_window_wraps_onto_the_home(tmp_path, capsys):
    # with n >= L no ring holds a computer: every trial counts 0, as predicted
    out = tmp_path / "s.json"
    rc = main(["stats", "--L", "5", "--n", "5", "--trials", "3", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["counts"] == [0, 0, 0]
    assert (report["prediction"], report["z"]) == (0.0, 0.0)


def test_stats_rejects_a_single_trial(tmp_path, capsys):
    # one trial has no standard error, so its z-score could only fail
    out = tmp_path / "s.json"
    rc = main(["stats", "--L", "100", "--n", "2", "--trials", "1", "--out", str(out)])
    assert rc == 2
    assert "at least two trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [(["--L", "0", "--n", "5"], "at least one site"),
     (["--L", "-3", "--n", "5"], "at least one site"),
     (["--L", "100", "--n", "0"], "at least one qubit site")],
)
def test_stats_rejects_bad_lattice_arguments(tmp_path, capsys, flags, message):
    out = tmp_path / "s.json"
    rc = main(["stats", *flags, "--trials", "2", "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [(["--jobs", "0"], "jobs must be at least 1"),
     (["--jobs", "-4"], "jobs must be at least 1"),
     (["--p0", "nan"], "probabilities must be finite"),
     (["--p2", "0.85"], "probabilities sum to 1.05, expected 1")],
)
def test_stats_rejects_inputs_it_used_to_drop(tmp_path, capsys, flags, message):
    out = tmp_path / "s.json"
    rc = main(["stats", "--L", "100", "--n", "2", "--trials", "2", *flags, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# -- repair ------------------------------------------------------------------


def test_repair_happy_path(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["repair", "--L", "3000", "--n", "4", "--seed", "2", "--out", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["p0_after"] == 0.0
    assert report["repair"]["atoms_lost"] == report["repair"]["defects_fixed"]


@pytest.mark.parametrize(
    "flags, code",
    [(["--L", "3000", "--seed", "2"], 0),
     (["--L", "100", "--p0", "0.3", "--p1", "0.3", "--p3", "0.0", "--p4", "0.05",
       "--seed", "1"], 1)],
)
def test_repair_report_carries_what_sets_the_exit_code(tmp_path, capsys, flags, code):
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["repair", "--n", "4", *flags, "--out", str(out)])
    assert rc == code
    rep = read_json(out)["repair"]
    residual = rep["residual_empty"] + rep["residual_single"]
    assert rc == (1 if residual else 0)


@pytest.mark.parametrize(
    "flags, message",
    [(["--n", "0"], "at least one qubit site"),
     (["--L", "0"], "at least one site"),
     (["--L", "-5"], "at least one site"),
     (["--eps", "1.5"], "eps must lie in [0, 1]"),
     (["--eps", "-0.1"], "eps must lie in [0, 1]"),
     (["--p2", "0.85", "--p4", "0"], "probabilities sum to 1.1, expected 1")],
)
def test_repair_rejects_bad_arguments(tmp_path, capsys, flags, message):
    out = tmp_path / "r.json"
    argv = ["repair", "--L", "100", "--n", "4", *flags, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_repair_donor_starvation(tmp_path, capsys):
    with pytest.warns(RuntimeWarning, match="insufficient donors"):
        rc = main(
            ["repair", "--L", "100", "--n", "4", "--p0", "0.3", "--p1", "0.3",
             "--p3", "0.0", "--p4", "0.05", "--seed", "1",
             "--out", str(tmp_path / "r.json")]
        )
    assert rc == 1


# -- run ---------------------------------------------------------------------


def test_run_empty_script_round_trips_state(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("# nothing to do\n")
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps([[1, 0, 1], [0, 0, 0]]))
    out = tmp_path / "out.json"
    rc = main(["run", str(script), str(lat), "--out", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["counts"] == []
    assert report["config"] == [[1, 0, 1], [0, 0, 0]]


def test_run_script_with_count(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("S 1\nCOUNTP\nEP\n")
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps([[1, 0, 1], [2, 0, 1], [0, 0, 0]]))
    out = tmp_path / "out.json"
    rc = main(["run", str(script), str(lat), "--out", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["counts"] == [2.0]
    assert report["config"] == [[1, 0, 0], [2, 0, 0], [0, 0, 0]]


def test_run_accepts_state_json(tmp_path, capsys):
    c1 = BasisConfig.from_counts([(1, 0, 1)])
    c2 = BasisConfig.from_counts([(1, 0, 0)])
    state = MixedState([(1.0, PureState({c1: math.sqrt(0.5), c2: math.sqrt(0.5)}))])
    lat = tmp_path / "state.json"
    lat.write_text(cli._dumps(state.to_json_obj()))
    script = tmp_path / "s.txt"
    script.write_text("COUNTP\n")
    # sampling a superposed count without a seed is refused
    assert main(["run", str(script), str(lat)]) == 2
    out = tmp_path / "out.json"
    rc = main(["run", str(script), str(lat), "--seed", "4", "--out", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["counts"] in ([0.0], [1.0])


def test_run_deterministic_with_seed(tmp_path, capsys):
    c1 = BasisConfig.from_counts([(1, 0, 1)])
    c2 = BasisConfig.from_counts([(1, 0, 0)])
    state = MixedState([(1.0, PureState({c1: math.sqrt(0.5), c2: math.sqrt(0.5)}))])
    lat = tmp_path / "state.json"
    lat.write_text(cli._dumps(state.to_json_obj()))
    script = tmp_path / "s.txt"
    script.write_text("COUNTP\n")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", str(script), str(lat), "--seed", "4", "--out", str(a)]) == 0
    assert main(["run", str(script), str(lat), "--seed", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_error_paths(tmp_path, capsys):
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps([[1, 0, 0]]))
    bad = tmp_path / "bad.txt"
    bad.write_text("U 1 oops\n")
    assert main(["run", str(bad), str(lat)]) == 2  # parse error
    assert main(["run", str(tmp_path / "missing.txt"), str(lat)]) == 2
    good = tmp_path / "good.txt"
    good.write_text("S 1\n")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", str(good), str(broken)]) == 2
    capsys.readouterr()
    infinite = tmp_path / "inf.txt"
    infinite.write_text("W\nV inf\n")
    assert main(["run", str(infinite), str(lat)]) == 2
    assert "line 2: 'V inf': rotation angle must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lattice, message",
    [([1, 2, 3], "lattice site 0 is 1;"),
     ({"branches": [{"weight": 1}]}, "malformed state"),
     ([[1.5, 0, 0], [1, 0, 1]], "lattice site 0 is [1.5, 0, 0];"),
     ([[True, 0, 1]], "lattice site 0 is [true, 0, 1];"),
     ([[10**30, 0, 0]], "too large"),
     ([[2, 0, 0], [1, -1, 0]], "error: negative occupation in SiteOccupancy(a=1, b=-1, p=0)\n"),
     ("[[1 2, 0, 0]]", "error: Expecting ',' delimiter: line 1 column 5 (char 4)\n"),
     ("[[01, 0, 0]]", "error: Expecting ',' delimiter: line 1 column 4 (char 3)\n"),
     ({"branches": []}, "error: mixture has no branches\n"),
     ({"branches": [{"weight": 0.5, "terms": [{"config": [[1, 0, 0]], "re": 1.0, "im": 0.0}]},
                    {"weight": 0.5, "terms": [{"config": [[1, 0, 0], [1, 0, 0]], "re": 1.0,
                                               "im": 0.0}]}]},
      "error: branches disagree on lattice size\n"),
     ({"branches": [{"weight": 1.0, "terms": [{"config": 5, "re": 1.0, "im": 0.0}]}]},
      "error: a lattice is a list of sites, got int\n")],
    ids=["bare-list", "branch-without-terms", "float-count", "bool-count", "huge-count",
         "negative-count", "split-count", "leading-zero", "no-branches", "mixed-sizes",
         "config-not-a-list"],
)
def test_run_rejects_malformed_lattices(tmp_path, capsys, lattice, message):
    script = tmp_path / "w.txt"
    script.write_text("W\n")
    lat = tmp_path / "lat.json"
    lat.write_text(lattice if isinstance(lattice, str) else json.dumps(lattice))
    out = tmp_path / "out.json"
    assert main(["run", str(script), str(lat), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not out.exists()


def test_run_refuses_negative_occupations_in_scripts(tmp_path, capsys):
    script = tmp_path / "u.txt"
    script.write_text("U -1 0 1\n")
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps([[1, 0, 0]]))
    out = tmp_path / "out.json"
    assert main(["run", str(script), str(lat), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 1: 'U -1 0 1': occupations must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "bad, message",
    [({"re": math.nan}, "branch 0 term 1 re is NaN"),
     ({"weight": math.nan}, "branch 1 weight is NaN"),
     ({"weight": -1e-11}, "branch 1 weight is -1e-11")],
    ids=["term-re", "branch-weight", "negative-weight"],
)
def test_run_rejects_non_finite_numbers_in_state_files(tmp_path, capsys, bad, message):
    # NaN passes neither PureState's pruning nor MixedState's weight test,
    # and MixedState drops a negative weight: unrefused, each would drop
    # its term or branch from this valid state and exit 0
    state = {"branches": [
        {"weight": 1.0, "terms": [{"config": [[1, 0, 0]], "re": 1.0, "im": 0.0},
                                  {"config": [[1, 0, 1]], "re": 0.0, "im": 0.0}]},
        {"weight": 0.0, "terms": [{"config": [[1, 0, 1]], "re": 1.0, "im": 0.0}]},
    ]}
    lat = tmp_path / "state.json"
    lat.write_text(json.dumps(state))
    script = tmp_path / "w.txt"
    script.write_text("W\n")
    out = tmp_path / "out.json"
    assert main(["run", str(script), str(lat)]) == 0
    where = state["branches"][0]["terms"][1] if "re" in bad else state["branches"][1]
    where.update(bad)
    lat.write_text(json.dumps(state))  # json writes the NaN token, json.load reads it
    assert main(["run", str(script), str(lat), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "where, message",
    [("state", "error: state has no field 'extra'\n"),
     ("branch", "error: branch 0 has no field 'junk'\n"),
     ("term", "error: branch 0 term 1 has no field 'junk'\n")],
    ids=["top-level", "branch", "term"],
)
def test_run_refuses_unknown_keys_in_state_files(tmp_path, capsys, where, message):
    # each key would be dropped without a word
    state = {"branches": [{"weight": 1.0, "terms": [
        {"config": [[1, 0, 0]], "re": 1.0, "im": 0.0},
        {"config": [[1, 0, 1]], "re": 0.0, "im": 0.0}]}]}
    {"state": state, "branch": state["branches"][0],
     "term": state["branches"][0]["terms"][1]}[where].update(
        {"extra": 5} if where == "state" else {"junk": 1})
    lat = tmp_path / "state.json"
    lat.write_text(json.dumps(state))
    script = tmp_path / "w.txt"
    script.write_text("W\n")
    out = tmp_path / "out.json"
    assert main(["run", str(script), str(lat), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [([[10**30, 0, 0], [1, -1, 0]], "negative occupation in SiteOccupancy(a=1, b=-1, p=0)"),
     ([[10**30, 0, 0], [1, 0, 0]], f"count {10**30} is too large for int64")],
    ids=["negative-site", "past-int64"],
)
def test_run_names_state_files_with_counts_past_int64(tmp_path, capsys, config, message):
    # numpy's "Python int too large to convert to C long" named neither
    lat = tmp_path / "state.json"
    lat.write_text(json.dumps({"branches": [{"weight": 1.0, "terms": [
        {"config": config, "re": 1.0, "im": 0.0}]}]}))
    script = tmp_path / "empty.txt"
    script.write_text("")
    out = tmp_path / "out.json"
    assert main(["run", str(script), str(lat), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_refuses_a_runaway_rotation(tmp_path, capsys, monkeypatch):
    # V doubles the rows at each occupied site; past the cell bound it is an
    # input error with one line, and no report is written
    monkeypatch.setattr(primitives, "ROTATION_CELLS", 1000)
    script = tmp_path / "v.txt"
    script.write_text("V 0.3\n")
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps([[1, 0, 0]] * 20))
    out = tmp_path / "out.json"
    assert main(["run", str(script), str(lat), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: V 0.3 would expand the state to 64 rows of 20 sites, past 1000 site cells\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text",
    [("format", "[" * 100000 + "]" * 100000),
     ("run", "[" * 100000 + "]" * 100000),
     ("run", '{"a":' * 100000 + "1" + "}" * 100000)],
    ids=["format-list", "run-list", "run-object"],
)
def test_deeply_nested_json_exits_two(tmp_path, capsys, command, text):
    # json gives up with a RecursionError, which is input error, not a failed property
    lat = tmp_path / "deep.json"
    lat.write_text(text)
    script = tmp_path / "w.txt"
    script.write_text("W\n")
    out = tmp_path / "out.json"
    argv = {"run": ["run", str(script), str(lat)],
            "format": ["format", "--n", "1", "--lattice", str(lat)]}[command]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: maximum recursion depth exceeded") and err.count("\n") == 1
    assert not out.exists()


def test_allocation_failure_exits_two(tmp_path, capsys, monkeypatch):
    # numpy refuses an array larger than memory (format --L 10**11 asks for
    # 745 GiB) with a MemoryError: input error with one line, no report
    def refuse(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, "sample_occupations", refuse)
    out = tmp_path / "out.json"
    assert main(["format", "--L", "100000000000", "--n", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 745. GiB for an array\n"
    assert not out.exists()


def test_property_failure_exits_one(tmp_path, capsys, monkeypatch):
    # a stray atom after formatting is a failed property, not input error
    def stray(codes, n):
        raise protocols.StrayAtomsError([3])

    monkeypatch.setattr(cli, "_homes", stray)
    out = tmp_path / "out.json"
    assert main(["format", "--L", "20", "--n", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "property failure: stray atoms at sites (3,)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "format"])
def test_unreadable_file_exits_two(tmp_path, capsys, command):
    # a directory where a file belongs raises IsADirectoryError, an OSError
    script = tmp_path / "w.txt"
    script.write_text("W\n")
    argv = {"run": ["run", str(script), str(tmp_path)],
            "format": ["format", "--n", "1", "--lattice", str(tmp_path)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [["format", "--n", "1"], ["stats", "--n", "1"],
                                  ["repair", "--n", "1"], ["run", "s.txt", "lattice.json"]])
def test_negative_seed_is_a_usage_error_that_names_its_flag(capsys, argv):
    # numpy seeds with non-negative ints only; the parser refuses -1 first
    with pytest.raises(SystemExit) as err:
        main(argv + ["--seed", "-1"])
    assert err.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --seed: must be a non-negative integer, got -1\n")
    with pytest.raises(SystemExit):
        main(argv + ["--seed", "x"])
    assert capsys.readouterr().err.endswith("error: argument --seed: invalid int value: 'x'\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
