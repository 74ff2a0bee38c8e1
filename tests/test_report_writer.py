"""The report writer ``cli._dumps`` against the stdlib encoding it replaces,
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``."""
import json
import math
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticeqc import cli


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def outcome(encode, obj):
    """The text, or the type of the error, that encoding obj gives."""
    try:
        return encode(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)


ints = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
floats = st.floats(allow_nan=False, allow_infinity=False)
text = st.text(st.characters(), max_size=6)  # non-ASCII and control characters
scalars = st.one_of(ints, floats, floats.map(np.float64), text, st.booleans(), st.none())


def _as(rows, kind):
    return kind(kind(r) for r in rows)


@st.composite
def int_rows(draw):
    """Lists of rows: of one width (empty rows too), ragged, or with a
    bool among the ints; as lists or as tuples."""
    width = draw(st.integers(0, 4))
    element = draw(st.sampled_from([ints, st.one_of(ints, st.booleans())]))
    row = draw(st.sampled_from([
        st.lists(element, min_size=width, max_size=width),
        st.lists(element, max_size=4),
    ]))
    rows = draw(st.lists(row, max_size=6))
    return _as(rows, draw(st.sampled_from([list, tuple])))


keys = st.one_of(text, st.integers(-5, 5), floats, st.booleans())
values = st.recursive(
    st.one_of(scalars, int_rows(), st.lists(ints, max_size=5)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(text, inner, max_size=4),
        st.dictionaries(keys, inner, max_size=3),  # mixed str/number keys raise
        st.dictionaries(st.none(), inner, max_size=1),
    ),
    max_leaves=24,
)


@given(values)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_writer_matches_stdlib_encoding(obj):
    assert outcome(cli._dumps, obj) == outcome(stdlib, obj)


@dataclass
class Inner:
    counts: tuple
    label: str


@dataclass
class Report:
    sites: tuple
    inner: Inner
    table: dict
    z: float


reports = st.builds(
    Report,
    sites=st.lists(st.tuples(ints, ints, ints), max_size=5).map(tuple),
    inner=st.builds(Inner, counts=st.lists(ints, max_size=5).map(tuple), label=text),
    table=st.dictionaries(text, st.lists(floats, max_size=3).map(tuple), max_size=3),
    z=floats,
)


@given(reports)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_writer_matches_stdlib_on_asdict_output(report):
    obj = asdict(report)
    assert cli._dumps(obj) == stdlib(obj)


@given(values, st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_writer_refuses_non_finite_floats(obj, bad):
    assume(isinstance(outcome(stdlib, obj), str))
    for holder in ([obj, bad], {"a": obj, "b": bad}, {bad: obj}, (bad,), bad):
        with pytest.raises(ValueError):
            cli._dumps(holder)


def test_format_report_bytes_equal_stdlib_encoding(tmp_path, capsys, monkeypatch):
    seen = []
    write = cli._write_json

    def record(path, obj):
        seen.append(obj)
        write(path, obj)

    monkeypatch.setattr(cli, "_write_json", record)
    out = tmp_path / "fmt.json"
    argv = ["format", "--L", "20000", "--n", "3", "--seed", "7", "--check-oracle",
            "--out", str(out)]
    assert cli.main(argv) == 0
    (report,) = seen
    assert out.read_bytes() == (stdlib(report) + "\n").encode()
