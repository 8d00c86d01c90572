"""Canonical web-page table (BASELINE.json ``input_hint``) and its
deterministic derivation from the driver-generated ``documents`` table.

Schema: ``(url:string, warc_ts:timestamp[us], html:binary, text:string,
lang:string)``.

Because the sandbox forbids external data, the pages table is *derived*
from ``{sf_dir}/documents.parquet`` by a transformation that is expressible
both as a vectorized Arrow ``map_batches`` body (:func:`derive_pages_batch`)
and as ANSI SQL (:data:`PAGES_CTE`), so DuckDB can act as the oracle for
every maintenance pipeline:

- ``url``      : ``'https://example.com/p/' || (doc_id % URL_MOD)``; NULL when
  ``doc_id % 97 == 0`` (exercises the reference's null-id passthrough,
  ``csv_handler.py:81-84``). The modulus creates duplicate urls (~4x at
  the 500-row sf0.01 documents table) for MERGE.
- ``warc_ts``  : ``2026-01-01T00:00:00 + doc_id seconds`` -- strictly
  distinct per row, so last-writer-wins is unambiguous (FIXTURES.md F1).
- ``text``     : the document text, emptied when ``doc_id % 13 == 0``
  (exercises non-empty-wins coalesce, ``csv_handler.py:91-95``).
- ``lang``     : passthrough (heavily skewed -- salting target).
- ``html``     : ``b'<html><body>' + text + b'</body></html>'``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

URL_MOD = 128
NULL_MOD = 97
EMPTY_MOD = 13
TS_BASE_US = np.datetime64("2026-01-01T00:00:00", "us").astype("int64")

#: DuckDB CTE producing the identical pages table from the pre-registered
#: ``documents`` view. Prepend to every oracle query that reads pages.
PAGES_CTE = f"""
WITH pages AS (
  SELECT
    CASE WHEN doc_id % {NULL_MOD} = 0 THEN NULL
         ELSE 'https://example.com/p/' || CAST(doc_id % {URL_MOD} AS VARCHAR)
    END AS url,
    TIMESTAMP '2026-01-01 00:00:00' + to_microseconds(doc_id * 1000000) AS warc_ts,
    CASE WHEN doc_id % {EMPTY_MOD} = 0 THEN '' ELSE text END AS text,
    lang
  FROM documents
)
"""


def derive_pages_batch(
    batch: pa.Table, with_html: bool = True, url_mod: int = URL_MOD
) -> pa.Table:
    """Vectorized documents -> pages derivation (map_batches body).

    ``url_mod`` sizes the url space (bench uses a larger modulus so
    duplication stays ~4x at expanded row counts).
    """
    doc_id = batch.column("doc_id").to_numpy(zero_copy_only=False)
    text = batch.column("text")
    lang = batch.column("lang")

    mod = (doc_id % url_mod).astype(np.int64)
    url = pc.binary_join_element_wise(
        pa.array(np.full(len(doc_id), "https://example.com/p/"), type=pa.string()),
        pc.cast(pa.array(mod), pa.string()),
        "",
    )
    url = pc.if_else(pa.array(doc_id % NULL_MOD == 0), pa.scalar(None, pa.string()), url)

    ts = pa.array(TS_BASE_US + doc_id * 1_000_000, type=pa.timestamp("us"))

    empty_mask = pa.array(doc_id % EMPTY_MOD == 0)
    text_out = pc.if_else(empty_mask, pa.scalar("", pa.string()), text)

    cols = {"url": url, "warc_ts": ts, "text": text_out, "lang": lang}
    if with_html:
        html = pc.binary_join_element_wise(
            pa.array(np.full(len(doc_id), "<html><body>"), type=pa.string()),
            pc.fill_null(text_out, ""),
            pa.array(np.full(len(doc_id), "</body></html>"), type=pa.string()),
            "",
        )
        cols["html"] = pc.cast(html, pa.binary())
    names = ["url", "warc_ts", "html", "text", "lang"] if with_html else [
        "url", "warc_ts", "text", "lang"
    ]
    return pa.table({n: cols[n] for n in names})


def read_pages(sf_dir: str, with_html: bool = True) -> "ray.data.Dataset":
    """documents.parquet -> pages Dataset (lazy, streaming)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    return ds.map_batches(
        derive_pages_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"with_html": with_html},
    )
