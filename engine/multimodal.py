"""HTML extraction over the pages ``html`` binary column.

:func:`html_to_text_batch` is a regex tag strip plus entity decode, the
engine's version of the reference's decode step
(``file_service.py:36-39``). Invalid-UTF8 rows are quarantined into a
``decode_error`` dead-letter column instead of aborting the job
(SURVEY M6).

Batch-size guidance: binary payloads dominate block size -- callers
should pass small ``batch_size`` (e.g. 64-256 rows) and rely on
``DataContext.target_max_block_size`` so a batch x concurrency fits the
worker heap.
"""

from __future__ import annotations

import html as _htmllib
import re

import pyarrow as pa


_TAG_RE = re.compile(rb"<[^>]+>")
_WS_RE = re.compile(r"\s+")


def html_to_text_batch(batch: pa.Table, html_col: str = "html", out_col: str = "extracted_text") -> pa.Table:
    """Strip tags + decode entities; undecodable rows -> null text and a
    ``decode_error`` message (dead-letter column, SURVEY M6)."""
    payloads = batch.column(html_col).to_pylist()
    texts, errors = [], []
    for raw in payloads:
        if raw is None:
            texts.append(None)
            errors.append("null payload")
            continue
        try:
            stripped = _TAG_RE.sub(b" ", raw)
            text = stripped.decode("utf-8")
        except UnicodeDecodeError as e:
            texts.append(None)
            errors.append(str(e))
            continue
        texts.append(_WS_RE.sub(" ", _htmllib.unescape(text)).strip())
        errors.append(None)
    batch = batch.append_column(out_col, pa.array(texts, type=pa.string()))
    return batch.append_column("decode_error", pa.array(errors, type=pa.string()))


def decode_html(ds, html_col: str = "html", batch_size: int = 256):
    """Stateless tag-strip stage (small batches: binary payloads)."""
    return ds.map_batches(
        html_to_text_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        fn_kwargs={"html_col": html_col},
    )
