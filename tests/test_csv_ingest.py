"""CSV-parity front-end (M6): dialect detection, layout heuristic,
transposer, sanitize-row, group-merge, and the distributed ingest --
ported from the reference's unit scenarios (SURVEY 5.1, FIXTURES F4)
with the reference transposer imported as an oracle. The reference
imports happen in fixtures, so only the parity tests need the
reference: without it they error (never skip) and the rest of the file
still runs."""

import sys

import pytest

from engine.csv_ingest import (
    group_records,
    ingest_csv,
    parse_csv_text,
    records_to_arrow,
    sanitize_row,
)
from engine.infer import Dialect, detect_dialect, is_vertical_layout
from engine.transpose import transpose_vertical

sys.path.insert(0, "/root/reference/backend")


@pytest.fixture(scope="module")
def reference_transpose():
    from app.services.transposer import parse_vertical_csv

    return parse_vertical_csv


# --- dialect detection (reference test_dialect_detector.py) ---------------

def test_standard_comma():
    d = detect_dialect("id,name,date\n1,Alice,2023-01-01\n2,Bob,2023-01-02\n3,Charlie,2023-01-03")
    assert (d.delimiter, d.quotechar) == (",", '"')


def test_semicolon_european_decimals():
    d = detect_dialect("Measure;Value;Date\nTemp;37,5;2023-10-01\nPress;1013,2;2023-10-01")
    assert d.delimiter == ";"


def test_single_column_alpha_constant():
    d = detect_dialect("1001\n1002\n1003\n1004")
    rows = list(d.reader("1001\n1002\n1003\n1004"))
    assert all(len(r) == 1 for r in rows)


def test_messy_quotes():
    content = 'id,description,total\n1,"Item A, with comma",500\n2,"Item B; with semicolon",600\n3,"Item C",700'
    d = detect_dialect(content)
    assert (d.delimiter, d.quotechar) == (",", '"')
    rows = list(d.reader(content))
    assert rows[1] == ["1", "Item A, with comma", "500"]


def test_pipe_delimiter():
    assert detect_dialect("name|age|email\nalice|30|a@b.com\nbob|25|b@c.com").delimiter == "|"


def test_single_line_header():
    assert detect_dialect("col1,col2,col3").delimiter == ","


def test_garbage_fallback():
    assert detect_dialect("!!!@@@###$$$%%%^^^&&&***(((").delimiter == ","


# --- layout heuristic (reference test_csv_vertical.py) --------------------

VERTICAL = "Key,Value\nName,Alice\nAge,30\nKey,Value\nName,Bob\nAge,25\nKey,Value\nName,Carol\nAge,41"
HORIZONTAL_4W = "a,b,c,d\n1,2,3,4\n5,6,7,8"
HORIZONTAL_3W = "x,y,z\n1,2,3\n4,5,6\n7,8,9"


def test_layout_vertical_positive():
    assert is_vertical_layout(VERTICAL, Dialect(",", '"')) is True


@pytest.mark.parametrize("content", [HORIZONTAL_4W, HORIZONTAL_3W])
def test_layout_horizontal_negative(content):
    assert is_vertical_layout(content, Dialect(",", '"')) is False


def test_layout_empty():
    assert is_vertical_layout("", Dialect(",", '"')) is False


# --- transposer vs reference oracle (test_transposer.py scenarios) --------

TRANSPOSE_CASES = [
    # multi-record with Key,Value repeater
    "Key,Value\nName,Alice\nAge,30\nCity,Lisbon\nKey,Value\nName,Bob\nAge,25\nCity,Porto",
    # single record, no repeater
    "Name,Alice\nAge,30\nCity,Lisbon",
    # malformed: blank line, empty key, missing value, whitespace value
    "Name,Alice\n\n,ignored\nAge\nCity,  \nName,Bob",
    # injection value
    "Name,=1+1\nAge,30",
    # empty input
    "",
]


@pytest.mark.parametrize("content", TRANSPOSE_CASES, ids=range(len(TRANSPOSE_CASES)))
def test_transpose_matches_reference(content, reference_transpose):
    import csv as _csv

    class _D(_csv.excel):
        pass

    got_records, got_fields = transpose_vertical(content, Dialect(",", '"'))
    exp_records, exp_fields = reference_transpose(content, _D)
    assert got_fields == exp_fields
    assert [dict(r) for r in got_records] == [dict(r) for r in exp_records]


# --- sanitize_row / group_records (test_csv_handler_grouping.py) ----------

def test_sanitize_row_drops_ragged_and_empty():
    assert sanitize_row({"a": " x ", None: "extra", "": "no", "b": None}) == {"a": "x", "b": ""}
    assert sanitize_row({"": "x"}) is None
    assert sanitize_row({" f ": "=v"}) == {"f": "'=v"}


def test_group_records_reference_semantics():
    records = [
        {"id": "1", "name": "Alice", "mail": ""},
        {"id": "", "name": "NoId"},
        {"id": "1", "name": "", "mail": "a@b.com"},
        {"id": "2", "name": "Bob"},
        {"id": "1", "name": "Alicia"},
    ]
    out = group_records(records, "id")
    assert out == [
        {"id": "1", "name": "Alicia", "mail": "a@b.com"},  # non-empty wins, empty ignored
        {"id": "", "name": "NoId"},  # falsy id passes through in place
        {"id": "2", "name": "Bob"},
    ]


def test_group_records_noop_without_id():
    records = [{"a": "1"}, {"a": "2"}]
    assert group_records(records, None) == records
    assert group_records(records, "   ") == records
    # id field itself never overwritten
    out = group_records([{"id": "x", "v": "1"}, {"id": "x", "v": "2"}], " id ")
    assert out == [{"id": "x", "v": "2"}]


# --- end-to-end parse (integration test_messy_upload.py scenario) ---------

def test_messy_semicolon_end_to_end():
    content = (
        "id;location;event_date;amount\n"
        '1;Lisbon;2023-10-01;100,5\n'
        '2;"Paris; TX";2023-10-02;200\n'
        "3;Porto;2023-10-03;300,75"
    )
    records, fields = parse_csv_text(content)
    assert fields == ["id", "location", "event_date", "amount"]
    assert len(records) == 3
    assert records[1]["location"] == "Paris; TX"


def test_vertical_end_to_end_with_injection():
    records, fields = parse_csv_text("Key,Value\nName,=1+1\nAge,30\nKey,Value\nName,Bob\nAge,25")
    assert fields == ["Key", "Name", "Age"]
    assert records[0]["Name"] == "'=1+1"


def test_empty_content():
    assert parse_csv_text("") == ([], [])


# --- distributed ingest ----------------------------------------------------

def test_ingest_csv_schema_evolution(tmp_path, ray_session):
    f1 = tmp_path / "a.csv"
    f1.write_text("id,name\n1,Alice\n2,Bob\n")
    f2 = tmp_path / "b.csv"
    f2.write_text("id,name,city\n3,Carol,Lisbon\n")
    f3 = tmp_path / "bad.csv"
    f3.write_bytes(b"id,name\n1,\xff\xfe broken\n")
    ds, fields, errors = ingest_csv([str(f1), str(f2), str(f3)])
    assert fields == ["id", "name", "city"]
    # errors are (path, message) pairs so paths with ':' survive intact
    assert len(errors) == 1 and errors[0][0].endswith("bad.csv")
    df = ds.to_pandas().sort_values("id").reset_index(drop=True)
    assert len(df) == 3
    # missing keys surface as nulls after evolution
    assert df.loc[0, "city"] is None or df.loc[0, "city"] != df.loc[0, "city"]
    assert df.loc[2, "city"] == "Lisbon"


def test_records_to_arrow_missing_keys_empty():
    t = records_to_arrow([{"a": "1"}, {"a": "2", "b": "x"}], ["a", "b"])
    assert t.column("b").to_pylist() == ["", "x"]


def test_csv_error_mid_iteration_keeps_fields_drops_records():
    # a field exceeding csv.field_size_limit raises csv.Error during row
    # iteration (reference test_edge_cases.py:39-56: error caught,
    # partial records dropped, header fields preserved)
    import csv as _csv

    huge = "x" * (_csv.field_size_limit() + 10)
    content = f"col1,col2\nval1,val2\n{huge},v\n"
    records, fields = parse_csv_text(content)
    assert fields == ["col1", "col2"]
    # rows parsed BEFORE the error are kept (reference csv_handler.py:
    # 132-146: records accumulates inside try, except falls through to
    # return); the bad row and everything after it are dropped
    assert records == [{"col1": "val1", "col2": "val2"}]


def test_vertical_csv_error_returns_empty():
    import csv as _csv

    huge = "x" * (_csv.field_size_limit() + 10)
    # vertical-shaped so the transposer path is taken; csv.Error -> ([], [])
    content = "Key,Value\nName,a\nKey,Value\nName,b\nKey,Value\nName,c\nKey," + huge
    from engine.infer import Dialect, is_vertical_layout

    assert is_vertical_layout(content, Dialect(",", '"'))
    records, fields = transpose_vertical(content, Dialect(",", '"'))
    assert (records, fields) == ([], [])


# --- dialect-detection parity vs the reference detector (oracle import)

from hypothesis import given, settings, strategies as st


@pytest.fixture(scope="module")
def reference_detector():
    from app.services.dialect_detector import DialectDetector

    return DialectDetector


_cell = st.sampled_from(["1", "3.5", "1,5", "alice", "a b", "2023-01-01", "n/a", "x@y.com", "", "qu\"ote", "it's"])


@settings(max_examples=80, deadline=None)
@given(
    delim=st.sampled_from([",", ";", "\t", "|"]),
    rows=st.lists(st.lists(_cell, min_size=1, max_size=5), min_size=1, max_size=8),
)
def test_dialect_detection_matches_reference(reference_detector, delim, rows):
    width = max(len(r) for r in rows)
    content = "\n".join(delim.join((r + [""] * width)[:width]) for r in rows)
    got = detect_dialect(content)
    exp = reference_detector().detect(content)
    assert (got.delimiter, got.quotechar) == (exp.delimiter, exp.quotechar)


# --- FULL parser parity: engine parse_csv_text vs reference _parse_csv_sync

@pytest.fixture(scope="module")
def reference_parse():
    """Import the reference's full parser with fastapi stubbed."""
    import sys as _sys
    import types as _types

    if "fastapi.concurrency" not in _sys.modules:
        fa = _types.ModuleType("fastapi")
        fc = _types.ModuleType("fastapi.concurrency")

        async def run_in_threadpool(fn, *a, **k):
            return fn(*a, **k)

        fc.run_in_threadpool = run_in_threadpool
        _sys.modules["fastapi"] = fa
        _sys.modules["fastapi.concurrency"] = fc
    from app.services.csv_handler import _parse_csv_sync

    return _parse_csv_sync


_pcell = st.sampled_from(
    ["1", "=SUM(A1)", " x ", "a b", "1,5", "", "n/a", "x@y.com", "+c", "-2", "Key", "Value", "Name"]
)


@settings(max_examples=60, deadline=None)
@given(
    delim=st.sampled_from([",", ";"]),
    header=st.lists(st.sampled_from(["id", "name", "Key", "Value", " c ", "d"]), min_size=1, max_size=4, unique=True),
    rows=st.lists(st.lists(_pcell, min_size=1, max_size=5), min_size=0, max_size=10),
    id_field=st.sampled_from([None, "id", "Key", "  ", "missing"]),
)
def test_full_parser_parity_vs_reference(reference_parse, delim, header, rows, id_field):
    ref = reference_parse
    content = "\n".join(
        [delim.join(header)] + [delim.join(r) for r in rows]
    )
    got_records, got_fields = parse_csv_text(content, id_field)
    exp_records, exp_fields = ref(content, id_field)
    assert got_fields == exp_fields
    assert [dict(r) for r in got_records] == [dict(r) for r in exp_records]


def test_validate_csv_paths_content_sniff(tmp_path):
    # reference validators.py:20-28 parity: binary payloads with a .csv
    # name are rejected at admission
    from engine.csv_ingest import validate_csv_paths

    good = tmp_path / "ok.csv"
    good.write_text("a;b\n1;2\n")
    zipped = tmp_path / "fake.csv"
    zipped.write_bytes(b"PK\x03\x04" + b"\x00" * 100)
    nul = tmp_path / "nul.csv"
    nul.write_bytes(b"a;b\n1;\x00\n")
    accepted, rejected = validate_csv_paths([str(good), str(zipped), str(nul)])
    assert accepted == [str(good)]
    reasons = dict(rejected)
    assert "magic" in reasons[str(zipped)]
    assert "NUL" in reasons[str(nul)]
