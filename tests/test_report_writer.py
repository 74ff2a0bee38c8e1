"""The report writer ``cli._dumps`` against the stdlib encoding it replaces,
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``."""
import json
import math
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latticeqc import MixedState, Script, classical, cli, execute


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def plain(obj):
    """obj with every int array replaced by its ``tolist()``, which is
    what the writer renders in its place; other arrays stay, and the
    stdlib refuses them."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "iu":
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(plain, obj))
    if isinstance(obj, dict):
        return {key: plain(item) for key, item in obj.items()}
    return obj


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


# ints at the edges of int64 and beyond it: rows that hold one cannot be
# coded as int64 and are rendered item by item
wide = st.sampled_from([2**62, 2**63 - 1, 2**63, 2**64, 2**70, -2**63, -2**63 - 1, -2**70])


@st.composite
def int_rows(draw):
    """Lists of rows: of one width (empty rows too), ragged, with a bool
    among the ints, or with ints beyond int64; as lists or as tuples."""
    width = draw(st.integers(0, 4))
    element = draw(st.sampled_from([ints, st.one_of(ints, st.booleans()), st.one_of(ints, wide)]))
    row = draw(st.sampled_from([
        st.lists(element, min_size=width, max_size=width),
        st.lists(element, max_size=4),
    ]))
    rows = draw(st.lists(row, max_size=6))
    return _as(rows, draw(st.sampled_from([list, tuple])))


keys = st.one_of(text, st.integers(-5, 5), floats, st.booleans(), st.tuples(st.integers()))
values = st.recursive(
    st.one_of(scalars, int_rows(), st.lists(ints, max_size=5)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(text, inner, max_size=4),
        st.dictionaries(keys, inner, max_size=3),  # mixed or tuple keys raise
        st.dictionaries(st.none(), inner, max_size=1),
    ),
    max_leaves=24,
)


@given(values)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_writer_matches_stdlib_encoding(obj):
    assert outcome(cli._dumps, obj) == outcome(stdlib, obj)


def _near_code_overflow(dtype) -> list:
    # rows of width w get int64 codes while (max - min + 1) ** w < 2**63
    info = np.iinfo(dtype)
    edges = [0, 1, -1, info.min, info.max, info.min + 1, info.max - 1,
             2**20, 2**21 - 1, 2**21, -2**20, 3037000499, 3037000500, -3037000499, 2**62]
    return [x for x in edges if info.min <= x <= info.max]


int_dtypes = st.sampled_from([np.int8, np.uint16, np.int64])


def _int_array(draw, dtype, shape) -> np.ndarray:
    # values from small to the edges of the dtype, where row codes overflow int64
    info = np.iinfo(dtype)
    elements = st.one_of(st.integers(max(info.min, -3), 3), st.integers(info.min, info.max),
                         st.sampled_from(_near_code_overflow(dtype)))
    return draw(hnp.arrays(dtype, shape, elements=elements))


@st.composite
def int_arrays(draw):
    """numpy int arrays of 0 to 3 dimensions, empty along any axis, with
    values from small to the edges of their dtype, where the row codes
    of a 2-D array overflow int64."""
    shape = draw(st.one_of(
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    ))
    return _int_array(draw, draw(int_dtypes), shape)


@st.composite
def int_array_rows(draw):
    """Lists of 1-D arrays: int arrays of one dtype and one length (0 too),
    which the writer stacks into one 2-D array, or lists it renders array
    by array: of mixed dtypes, of mixed lengths, or with a bool or float
    array among the int ones."""
    mix = draw(st.sampled_from(["none", "dtype", "length", "kind"]))
    dtype, length = draw(int_dtypes), draw(st.integers(0, 4))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if mix == "dtype":
            dtype = draw(int_dtypes)
        elif mix == "length":
            length = draw(st.integers(0, 4))
        rows.append(_int_array(draw, dtype, (length,)))
    if mix == "kind":
        other = draw(st.sampled_from([np.zeros(length, dtype=bool), np.ones(length)]))
        rows.insert(draw(st.integers(0, len(rows))), other)
    return rows


@given(int_arrays())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_writer_renders_int_arrays_as_their_lists(arr):
    assert cli._dumps(arr) == stdlib(arr.tolist())
    holder = {"x": arr, "y": [arr, (arr, 1)], "z": [{"{a}": arr, "b": 0}, {"{a}": arr, "b": 1}],
              "w": [arr, arr]}
    assert cli._dumps(holder) == stdlib(plain(holder))


@pytest.mark.parametrize("shape", [(0, 3), (0, 0), (4, 0), (1, 0), (0,), ()])
def test_writer_renders_empty_int_arrays(shape):
    arr = np.zeros(shape, dtype=np.int64)
    assert cli._dumps(arr) == stdlib(arr.tolist())
    assert cli._dumps({"x": arr, "y": [arr]}) == stdlib({"x": arr.tolist(), "y": [arr.tolist()]})


@pytest.mark.parametrize("arr", [
    np.zeros((2, 3)), np.zeros((2, 3), dtype=bool), np.array([[1, "a"]], dtype=object),
    np.array([1, 2], dtype=object), np.array(1.5), np.zeros(3, dtype=bool), np.zeros((0, 3)),
])
def test_writer_refuses_arrays_that_are_not_int(arr):
    for holder in (arr, {"x": arr}, [arr, 1], [{"a": arr}, {"a": arr}]):
        assert outcome(stdlib, holder) is TypeError
        with pytest.raises(TypeError):
            cli._dumps(holder)


array_values = st.recursive(
    st.one_of(scalars, int_rows(), int_arrays(), int_array_rows(),
              st.sampled_from([np.zeros(2), np.ones((1, 2), dtype=bool)])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(text, inner, max_size=4),
        # lists of dicts with one key set, keys that hold format braces too
        st.lists(st.one_of(text, st.sampled_from(["{}", "{0}", "}{"])), max_size=3,
                 unique=True).flatmap(lambda keys: st.lists(
                     st.fixed_dictionaries({key: inner for key in keys}),
                     min_size=1, max_size=4)),
    ),
    max_leaves=16,
)


@given(array_values)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_writer_matches_stdlib_on_arrays_and_records(obj):
    assert outcome(cli._dumps, obj) == outcome(stdlib, plain(obj))


def test_records_raise_the_first_error_the_stdlib_meets():
    # rendered column by column, column "a" would meet the set first
    for obj in ([{"a": 1, "b": math.nan}, {"a": {1}, "b": 1}],
                [{"a": 1, "b": {1}}, {"a": math.nan, "b": 1}]):
        assert outcome(cli._dumps, obj) == outcome(stdlib, obj)
    assert outcome(stdlib, [{"a": 1, "b": math.nan}, {"a": {1}, "b": 1}]) is ValueError


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


# W swaps |1,0,1> and |0,1,1>, S shifts the pointer level and U 2 1 1 swaps
# |2,0,1> and |3,0,0>: one classical term on 10^4 sites [a < 3, b < 2, p < 2]
CLASSICAL_RUN = ("W\nS 3\nU 2 1 1\nS -3\nW\n",
                 np.random.default_rng(7).integers(0, [3, 2, 2], size=(10**4, 3)).tolist())
# V rotates every occupied site and EP traces out the pointer level: 54 terms
MULTI_TERM_RUN = ("V 0.3\nC 1.1\nS 1\nSPLIT 0.3\nEP\n",
                  [[2, 0, 1], [1, 0, 0], [1, 1, 0], [0, 0, 1], [2, 0, 0]])


@pytest.mark.parametrize("case", [3, 5, CLASSICAL_RUN, MULTI_TERM_RUN],
                         ids=["format-n3", "format-n5", "run-classical", "run-multi-term"])
def test_format_report_bytes_equal_stdlib_encoding(tmp_path, capsys, monkeypatch, case):
    seen = []
    write = cli._write_json

    def record(path, obj):
        seen.append(obj)
        write(path, obj)

    monkeypatch.setattr(cli, "_write_json", record)
    out = tmp_path / "report.json"
    if isinstance(case, int):
        # at n = 5 a qubit_sites row has no int64 code (20000 ** 5 >= 2 ** 63),
        # so the writer renders those rows one by one
        argv = ["format", "--L", "20000", "--n", str(case), "--seed", "7", "--check-oracle"]
    else:
        script, lat = tmp_path / "script.txt", tmp_path / "lat.json"
        script.write_text(case[0])
        lat.write_text(json.dumps(case[1]))
        argv = ["run", str(script), str(lat)]
    assert cli.main(argv + ["--out", str(out)]) == 0
    (report,) = seen
    data = out.read_bytes()
    assert data == (stdlib(plain(report)) + "\n").encode()
    assert data.decode() == stdlib(json.loads(data)) + "\n"
    if argv[0] == "format":
        assert isinstance(report["initial"], np.ndarray)  # the writer's array branch is exercised
        return
    assert isinstance(report["state"]["branches"][0]["terms"][0]["config"], np.ndarray)
    final, _ = execute(classical(case[1]), Script.parse(case[0]))
    back = MixedState.from_json_obj(json.loads(data)["state"])
    assert [repr(w) for w, _ in back.branches] == [repr(w) for w, _ in final.branches]
    for (_, got), (_, want) in zip(back.branches, final.branches):
        assert np.array_equal(got.codes, want.codes)
        assert repr(got.amps.tolist()) == repr(want.amps.tolist())


def _count_unique(monkeypatch) -> list:
    """The sizes of the arrays that np.unique sorts from now on."""
    calls, unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda ar, *a, **k: calls.append(len(ar)) or unique(ar, *a, **k))
    return calls


def _format_report(*argv):
    report, status, _ = cli.cmd_format(cli.build_parser().parse_args(["format", *argv]))
    assert status == 0
    return report


def test_format_site_rows_come_from_a_table_not_a_sort(monkeypatch):
    # initial and final hold 27 and 343 possible rows; qubit_sites fill
    # their records' slots without being coded at all
    report = _format_report("--L", "20000", "--n", "3", "--seed", "7", "--check-oracle")
    sorts = _count_unique(monkeypatch)
    assert cli._dumps(report) == stdlib(plain(report))
    assert sorts == []


def test_initial_count_of_a_million_matches_stdlib_through_the_sort(tmp_path, monkeypatch):
    # (10^6 + 1) ** 3 row codes fit int64 but not a table: initial is sorted
    a = np.random.default_rng(3).choice(3, size=2000, p=[0.1, 0.1, 0.8])
    a[17] = 10**6
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps([[int(x), 0, 0] for x in a]))
    report = _format_report("--lattice", str(lattice), "--n", "2", "--check-oracle")
    sorts = _count_unique(monkeypatch)
    assert cli._dumps(report) == stdlib(plain(report))
    assert sorts == [a.size]


def _spanning(least: int, radix: int, shape, dtype=np.int64) -> np.ndarray:
    # rows whose entries run over [least, least + radix), both ends present
    rng = np.random.default_rng(radix)
    rows = least + rng.integers(0, radix, size=shape, dtype=np.int64).astype(object)
    rows.flat[0], rows.flat[-1] = least, least + radix - 1
    return np.array(rows.tolist(), dtype=dtype)


@pytest.mark.parametrize("rows, sorts", [
    (_spanning(0, 64, (50, 2)), 0),  # 64 ** 2 codes: the table bound
    (_spanning(0, 65, (50, 2)), 1),  # 65 ** 2, one row past it
    (_spanning(7, cli._TABLE, (50, 1)), 0),
    (_spanning(7, cli._TABLE + 1, (50, 1)), 1),
    (_spanning(0, 5000, (5000, 1)), 0),  # more rows than the least bound
    (_spanning(0, 5001, (5000, 1)), 1),
    (_spanning(-5, 9, (300, 3)), 0),  # a negative least entry
    (_spanning(-2**40, 2**20, (300, 3), np.int64), 1),
    (_spanning(2**64 - 7, 7, (300, 3), np.uint64), 0),  # near 2**64, where int64 wraps
    (_spanning(2**64 - 2**20, 2**20, (300, 3), np.uint64), 1),
    (_spanning(-128, 256, (300, 1), np.int8), 0),  # digits past the dtype's range
    (_spanning(0, 3, (300, 1), np.uint8), 0),
    (np.zeros((300, 0), dtype=np.int64), 0),
], ids=lambda x: str(x.dtype) + str(x.shape) if isinstance(x, np.ndarray) else None)
def test_rows_at_the_table_edges_match_stdlib(monkeypatch, rows, sorts):
    calls = _count_unique(monkeypatch)
    for obj in (rows, list(rows), {"x": rows, "y": [{"z": row, "w": 1} for row in rows]}):
        assert cli._dumps(obj) == stdlib(plain(obj))
    # once for the array, the list and x each; records fill their slots
    assert len(calls) == 3 * sorts


def test_lists_longer_than_a_join_block_match_stdlib():
    count = 2 * cli._BLOCK + 1
    rows = _spanning(0, 3, (count, 3))
    for obj in (list(range(count)), rows, list(rows), list(map(tuple, rows.tolist())),
                [{"b": k} for k in range(count)]):
        out: list[str] = []
        cli._put(obj, "\n", out)
        assert "".join(out) == stdlib(plain(obj))
        assert len(out) == 7 and max(map(len, out)) < 64 * cli._BLOCK  # three blocks
    nested = {"a": [rows.tolist(), list(range(count))]}
    assert cli._dumps(nested) == stdlib(plain(nested))


def test_run_report_of_a_long_one_term_state_comes_in_blocks_of_rows():
    # each term's (L, 3) config reaches the block join, as the config does
    L = 3 * cli._BLOCK + 5
    occ = np.random.default_rng(3).integers(0, 3, size=(L, 3))
    final, counts = execute(classical(occ.tolist()), Script.parse("W\nS 3\nU 2 1 1\nS -3\n"))
    report = {"counts": counts, "state": final.to_json_obj(), "config": occ}
    out: list[str] = []
    cli._put(report, "\n", out)
    text = "".join(out)
    assert text == stdlib(plain(report))
    # the config under state has the longest rows; one block of them is the bound
    nested = [stdlib({"state": {"branches": [{"terms": [{"config": occ[:k].tolist()}]}]}})
              for k in (1, 2)]
    row = len(nested[1]) - len(nested[0])  # a row and its comma
    assert max(map(len, out)) <= cli._BLOCK * row
    for obj in ([occ, occ], [{"a": occ}, {"b": occ}]):  # no record path: key sets differ
        out = []
        cli._put(obj, "\n", out)
        assert "".join(out) == stdlib(plain(obj))
        assert max(map(len, out)) < len("".join(out)) // 4  # no piece holds a whole config


def test_records_of_mixed_columns_match_stdlib():
    empty = np.zeros(0, dtype=np.int16)
    records = [
        {"{a}": k, "b": empty, "c": {"d": [k, -k], "}{": np.arange(k, dtype=np.uint8)},
         "e": np.array([k, 2**40], dtype=np.int64), "f": "x{}" * k, "g": True}
        for k in range(5)
    ]
    for obj in (records, [records, records[:2]], {"r": records},
                [{"b": empty, "{}": empty}] * 3):  # no column fills a slot
        assert cli._dumps(obj) == stdlib(plain(obj))
