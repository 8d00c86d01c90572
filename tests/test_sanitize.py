"""Byte-identical conformance of the vectorized sanitizer vs the
reference function (``/root/reference/backend/app/utils/sanitize.py``),
which is imported directly as the oracle (read-only; allowed for oracle
use per SURVEY 5.2). The import happens in a fixture, so only the
parity tests need the reference: without it they error (never skip)
and the rest of the file still runs."""

import sys

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from engine.sanitize import PY_STR_WHITESPACE, sanitize_array, sanitize_cell

sys.path.insert(0, "/root/reference/backend")


@pytest.fixture(scope="module")
def reference_sanitize():
    from app.utils.sanitize import sanitize_cell_value

    return sanitize_cell_value


# FIXTURES.md F2 corpus (reference tests/unit/test_sanitize.py:18-63,
# test_edge_cases.py:59-89) plus non-ASCII whitespace probes.
F2_CASES = [
    "=CMD", "+SUM", "-SYSTEM", "@IMPORT", "=", "+", "===DANGER",
    "=SUM(1+1)", "+cmd|' /C calc'!'A1'", " =CMD", "\t+SUM", "text=value",
    "1+1", "normal", "123", "", "alice@example.com", " val ", "   ",
    " =X", "　+Y", "\x1c-Z", "\x85@W", "\xa0-Q", None,
]


def test_whitespace_set_is_exactly_python_strip():
    expect = {chr(c) for c in range(0x110000) if chr(c).isspace()}
    assert set(PY_STR_WHITESPACE) == expect


@pytest.mark.parametrize("case", F2_CASES, ids=repr)
def test_scalar_matches_reference(case, reference_sanitize):
    assert sanitize_cell(case) == reference_sanitize(case if case is not None else "")


def test_vectorized_matches_reference_f2(reference_sanitize):
    got = sanitize_array(pa.array(F2_CASES, type=pa.string())).to_pylist()
    exp = [reference_sanitize(c if c is not None else "") for c in F2_CASES]
    assert got == exp


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(max_size=40), max_size=50))
def test_vectorized_matches_reference_fuzz(reference_sanitize, cells):
    got = sanitize_array(pa.array(cells, type=pa.string())).to_pylist()
    exp = [reference_sanitize(c) for c in cells]
    assert got == exp
