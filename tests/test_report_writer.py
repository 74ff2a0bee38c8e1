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
        # homes and qubit_sites run from one to five digits: the writer pads
        # their slots and drops the padding
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


def _pieces(obj) -> list:
    """The pieces of text the writer renders obj in."""
    out: list[str] = []
    cli._put(obj, "\n", out)
    return out


def _block_of(items, nl: str) -> int:
    """The length of _BLOCK items as long as the longest of items, each on
    a line that starts with nl, with their commas: one block of rows."""
    longest = max(len(stdlib(plain(item)).replace("\n", nl)) for item in items)
    return cli._BLOCK * (longest + len("," + nl))


def _format_report(*argv):
    report, status, _ = cli.cmd_format(cli.build_parser().parse_args(["format", *argv]))
    assert status == 0
    return report


def test_format_site_rows_come_from_a_table_not_a_sort():
    # initial and final hold one-digit counts, rendered with no division;
    # the computers' home and qubit_sites texts differ in width, so their
    # slots are padded and the padding dropped
    report = _format_report("--L", "20000", "--n", "3", "--seed", "7", "--check-oracle")
    assert cli._dumps(report) == stdlib(plain(report))
    rows = [*report["initial"], *report["final"], *report["computers"]]
    assert max(map(len, _pieces(report))) <= _block_of(rows, "\n    ")


def test_initial_count_of_a_million_matches_stdlib_through_the_sort(tmp_path):
    # one count of 10^6 widens every slot of initial to seven bytes, most
    # of them padding
    a = np.random.default_rng(3).choice(3, size=2000, p=[0.1, 0.1, 0.8])
    a[17] = 10**6
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps([[int(x), 0, 0] for x in a]))
    report = _format_report("--lattice", str(lattice), "--n", "2", "--check-oracle")
    assert cli._dumps(report) == stdlib(plain(report))
    rows = [*report["initial"], *report["final"], *report["computers"]]
    assert max(map(len, _pieces(report))) <= _block_of(rows, "\n    ")


def _spanning(least: int, radix: int, shape, dtype=np.int64) -> np.ndarray:
    # rows whose entries run over [least, least + radix), both ends present
    rng = np.random.default_rng(radix)
    rows = least + rng.integers(0, radix, size=shape, dtype=np.int64).astype(object)
    rows.flat[0], rows.flat[-1] = least, least + radix - 1
    return np.array(rows.tolist(), dtype=dtype)


@pytest.mark.parametrize("rows, past", [
    (_spanning(0, 64, (50, 2)), 0),  # 64 ** 2 codes: the table bound
    (_spanning(0, 65, (50, 2)), 1),  # 65 ** 2, one row past it
    (_spanning(7, 4096, (50, 1)), 0),
    (_spanning(7, 4097, (50, 1)), 1),
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
def test_rows_at_the_table_edges_match_stdlib(rows, past):
    # past: the rows' (max - min + 1) ** width exceeds max(row count, 4096),
    # the edge of a table of row codes; the cases lie on both sides of it
    span = int(rows.max()) - int(rows.min()) + 1 if rows.size else 1
    assert (span ** rows.shape[1] > max(len(rows), 4096)) == past
    records = [{"z": row, "w": 1} for row in rows]
    for obj in (rows, list(rows), {"x": rows, "y": [{"z": row, "w": 1} for row in rows]}):
        assert cli._dumps(obj) == stdlib(plain(obj))
        # no piece holds more than a block of the longest items, the records
        assert max(map(len, _pieces(obj))) <= _block_of(records, "\n    ")


def test_lists_longer_than_a_join_block_match_stdlib():
    count = 2 * cli._BLOCK + 1
    rows = _spanning(0, 3, (count, 3))
    for obj in (list(range(count)), rows, list(rows), list(map(tuple, rows.tolist())),
                [{"b": k} for k in range(count)]):
        out: list[str] = []
        cli._put(obj, "\n", out)
        assert "".join(out) == stdlib(plain(obj))
        assert max(map(len, out)) <= _block_of(plain(obj), "\n  ")
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


_INT64, _UINT64 = np.iinfo(np.int64), np.iinfo(np.uint64)


@pytest.mark.parametrize("x, y, dtype", [
    (9, 10, np.int64), (99, 100, np.int64), (-9, -10, np.int64), (0, -1, np.int64),
    (-5, 10, np.int64),  # the least and the greatest text alike long, a 0 between
    (_INT64.min, _INT64.max, np.int64), (_UINT64.max, 0, np.uint64), (-128, 127, np.int8),
    (255, 0, np.uint8),
], ids=lambda v: np.dtype(v).name if isinstance(v, type) else str(v))
def test_digit_width_edges_match_stdlib(x, y, dtype):
    # texts of two lengths side by side, and each length alone; a record's
    # int column and row column take their widths each on its own
    for rows in ([[x, y], [y, x]], [[x, x]], [[y, y]], [[x], [y]], [[x, 0, y]]):
        arr = np.array(rows, dtype=dtype)
        records = [{"n": int(row[0]), "row": row, "s": 7} for row in arr]
        for obj in (arr, list(arr), {"t": arr, "r": records}):
            assert cli._dumps(obj) == stdlib(plain(obj))


def test_a_width_first_met_in_a_later_block_matches_stdlib():
    # the first block holds one-digit texts only; wider ones come later
    rows = np.ones((2 * cli._BLOCK + 3, 3), dtype=np.int64)
    rows[cli._BLOCK + 5, 2], rows[-1, 1] = -7, 10**12
    for obj in (rows, [{"a": row, "b": int(row[1])} for row in rows]):
        assert cli._dumps(obj) == stdlib(plain(obj))


def test_records_of_int64_and_uint64_columns_match_stdlib():
    records = [{"i": np.array([-k, 2**62, _INT64.min + k], dtype=np.int64),
                "u": np.array([_UINT64.max - k], dtype=np.uint64), "k": 10**k}
               for k in range(12)]
    assert cli._dumps(records) == stdlib(plain(records))


def test_record_text_columns_match_stdlib():
    texts = ["{}", "\x00", "é", "日本", "\U0001f600", 'a"b\\', "", "{0}"]
    numbers = [0.1, 1.0, 1e-300, -2.5e100, 1 / 3, 12345.678, 5e-324, -0.0]
    records = [{"s": s, "f": f, "b": k % 2 == 0, "z": None, "m": [None, True, 1.5, "x"][k % 4],
                "k": k} for k, (s, f) in enumerate(zip(texts, numbers))]
    for obj in (records, [{"z": None}] * 3, [{"b": True}, {"b": False}]):
        assert cli._dumps(obj) == stdlib(plain(obj))


def test_width_zero_rows_match_stdlib():
    empty = np.zeros((5, 0), dtype=np.int64)
    records = [{"e": row, "k": k, "r": np.arange(k, k + 2)} for k, row in enumerate(empty)]
    for obj in (empty, list(empty), records, {"a": empty, "b": records}):
        assert cli._dumps(obj) == stdlib(plain(obj))
