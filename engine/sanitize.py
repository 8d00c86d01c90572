"""Vectorized cell sanitizer -- the engine's per-row invariant.

Re-expresses the reference's formula-injection guard
(``backend/app/utils/sanitize.py:6-30``: strip whitespace; if the result
starts with ``=``, ``+``, ``-`` or ``@`` prefix it with ``'``; falsy ->
``""``) as a zero-copy Arrow kernel chain usable inside
``Dataset.map_batches(batch_format="pyarrow")``.

The contract (BASELINE.json ``input_hint``) is *byte-identical output per
url* versus the reference Python function, so the trim must use CPython's
``str.strip`` whitespace set -- which is wider than both ASCII whitespace
and the Unicode-WSpace set pyarrow's ``utf8_trim_whitespace`` uses (CPython
additionally strips ``\\x1c..\\x1f`` and ``\\x85``). We therefore pass the
exact 29-codepoint set explicitly to ``pyarrow.compute.utf8_trim``
(verified exhaustively over all codepoints in tests/test_sanitize.py).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

#: exactly the codepoints CPython's ``str.strip()`` removes, i.e.
#: ``{c for c in range(0x110000) if chr(c).isspace()}`` (29 codepoints).
PY_STR_WHITESPACE = (
    "\u0009\u000a\u000b\u000c\u000d\u001c\u001d\u001e\u001f\u0020"
    "\u0085\u00a0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
    "\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)

#: leading characters that trigger the formula-injection guard
#: (reference ``sanitize.py:27``).
FORBIDDEN_PREFIXES = ("=", "+", "-", "@")


def sanitize_cell(value) -> str:
    """Scalar reference semantics (used by tests and the CSV front-end).

    Byte-identical re-statement of ``sanitize_cell_value``
    (``/root/reference/backend/app/utils/sanitize.py:6-30``).
    """
    if not value:
        return ""
    clean = value.strip()
    if clean.startswith(FORBIDDEN_PREFIXES):
        return f"'{clean}"
    return clean


def sanitize_array(arr: pa.Array) -> pa.Array:
    """Vectorized sanitizer over a string Array/ChunkedArray.

    null -> "" (reference: ``if not value: return ""``), then trim with
    the exact CPython whitespace set, then conditionally prepend ``'``.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_null(arr.type):  # an all-NULL column typed null
        arr = arr.cast(pa.string())
    filled = pc.fill_null(arr, "")
    trimmed = pc.utf8_trim(filled, characters=PY_STR_WHITESPACE)
    # starts_with any of the four forbidden prefixes
    mask = pc.starts_with(trimmed, pattern="=")
    for p in FORBIDDEN_PREFIXES[1:]:
        mask = pc.or_(mask, pc.starts_with(trimmed, pattern=p))
    # scalar broadcasts: no O(n) Python list of "'" strings per batch
    # (separator typed like the text too: a large_string column has no
    # kernel for a plain-string separator)
    prefixed = pc.binary_join_element_wise(
        pa.scalar("'", type=trimmed.type), trimmed, pa.scalar("", type=trimmed.type)
    )
    return pc.if_else(mask, prefixed, trimmed)


def sanitize_batch(batch: pa.Table, columns=("text",)) -> pa.Table:
    """map_batches body: sanitize the named string columns in place."""
    for col in columns:
        if col in batch.column_names:
            idx = batch.schema.get_field_index(col)
            batch = batch.set_column(idx, col, sanitize_array(batch.column(col)))
    return batch


def sanitize_stage(ds, columns=("text",), batch_size: int | None = None):
    """Attach the sanitize transform to a Dataset (zero-copy Arrow)."""
    return ds.map_batches(
        lambda t: sanitize_batch(t, columns=columns),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
