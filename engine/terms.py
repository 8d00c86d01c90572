"""Per-language term-frequency analysis (top terms, TF-IDF).

The corpus-analysis member of the aggregate family: tokenize every
document (same token notion as ``engine.textstats`` -- runs of
non-Python-whitespace over the lowercased text), drop stopwords, count
``(lang, term)`` pairs and per-term document frequency, and keep the
top-k terms per language.

Dataflow: ONE vectorized pass per batch computes BOTH term frequency
and document frequency (lower -> regex split -> flatten -> stopword
``is_in`` filter -> dictionary-encode -> two ``np.unique`` counting
passes over int64 composites; df dedupes (row, term) pairs first --
each doc is one row, so within-batch distinct IS global distinct).
The partials are materialized (a sort exchange consumes a lazy
upstream twice, ARCHITECTURE §2) and one Ray groupby folds them (the
exchange moves O(distinct (lang, term) per batch) tiny rows, never
tokens); :func:`engine.aggregates.grouped_topk` finishes. Zero
per-row Python anywhere.

NULL langs form one group (``null_safe_key`` composite, CLAUDE.md
invariant); NULL text counts as '' like every engine text kernel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from engine.aggregates import grouped_topk, null_safe_key
from engine.redact import RE2_WS
from engine.textstats import STOPWORDS


def _term_partials_fn(text_col: str, lang_col: str):
    """Per-batch kernel: one tokenization pass -> (lang, __isnull,
    term, tf, df) partial rows. tf counts tokens; df counts distinct
    docs containing the term (per lang -- sum over langs gives the
    global df because each doc has exactly one lang value)."""
    stop = pa.array(STOPWORDS, type=pa.string())

    def partial(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(t.column(text_col), "")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        toks = pc.split_pattern_regex(pc.utf8_lower(txt), pattern=f"[{RE2_WS}]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        # split() emits '' at run boundaries; drop those and stopwords
        keep = pc.and_(
            pc.not_equal(flat, ""), pc.invert(pc.is_in(flat, value_set=stop))
        )
        reps = np.diff(toks.offsets.to_numpy(zero_copy_only=False))
        rows = np.repeat(np.arange(len(t), dtype=np.int64), reps)
        kept = keep.to_numpy(zero_copy_only=False)
        flat = flat.filter(keep)
        rows = rows[kept]
        codes = pc.dictionary_encode(flat)
        if isinstance(codes, pa.ChunkedArray):
            codes = codes.combine_chunks()
        vocab = codes.dictionary
        ci = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        filled, isnull = null_safe_key(t.column(lang_col))
        lcodes = pc.dictionary_encode(filled)
        if isinstance(lcodes, pa.ChunkedArray):
            lcodes = lcodes.combine_chunks()
        ldict = lcodes.dictionary
        li = lcodes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nl = isnull.to_numpy(zero_copy_only=False)
        lk = li * 2 + nl  # per-row (lang, isnull) composite code
        V = np.int64(max(len(vocab), 1))
        # tf: token occurrences per (lang, term)
        keys_tf, tf = np.unique(lk[rows] * V + ci, return_counts=True)
        # df: distinct (doc, term) pairs per (lang, term); the key SET
        # equals keys_tf (a (lang, term) has >=1 token iff >=1 pair and
        # lang is constant per row), so the sorted uniques align 1:1
        pair = np.unique(rows * V + ci)
        _, dfc = np.unique(lk[pair // V] * V + (pair % V), return_counts=True)
        lidx, tidx = keys_tf // V, keys_tf % V
        return pa.table(
            {
                lang_col: pc.take(ldict, pa.array((lidx // 2).astype(np.int64))),
                "__isnull": pa.array((lidx % 2).astype(np.int64)),
                "term": pc.take(vocab, pa.array(tidx.astype(np.int64))),
                "tf": pa.array(tf.astype(np.int64)),
                "df": pa.array(dfc.astype(np.int64)),
            }
        )

    return partial


def _partials(ds, text_col: str, lang_col: str):
    """Materialized per-batch (lang, __isnull, term, tf, df) partials:
    pinned so the downstream sort exchanges' sample passes never re-run
    the tokenization (measured 24.4 s -> one 13 s pass at 6 M rows /
    8 CPUs, BENCH/new_ops_6m_r4.json)."""
    return ds.map_batches(
        _term_partials_fn(text_col, lang_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()


def _restore_lang(t: pa.Table, lang_col: str) -> pa.Table:
    lang = pc.if_else(
        pc.equal(t.column("__isnull"), 1),
        pa.scalar(None, type=t.schema.field(lang_col).type),
        t.column(lang_col),
    )
    return t.set_column(t.schema.get_field_index(lang_col), lang_col, lang)


def term_counts(ds, text_col: str = "text", lang_col: str = "lang"):
    """Dataset of exact ``(lang, term, n)`` counts, stopwords excluded.
    NULL lang is a real NULL in the output (one group)."""
    agg = _partials(ds, text_col, lang_col).groupby(
        [lang_col, "__isnull", "term"]
    ).sum("tf")

    def finish(t: pa.Table) -> pa.Table:
        t = _restore_lang(t, lang_col)
        return pa.table(
            {
                lang_col: t.column(lang_col),
                "term": t.column("term"),
                "n": t.column("sum(tf)").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def top_terms_per_lang(ds, k: int = 5, text_col: str = "text", lang_col: str = "lang"):
    """Top-k terms per language by exact count (ties broken by term
    ascending -- deterministic). Returns a Dataset (lang, term, n)."""
    counts = term_counts(ds, text_col=text_col, lang_col=lang_col)
    return grouped_topk(counts, lang_col, "n", k, tie_cols=("term",))


def tfidf_top_terms(
    ds, k: int = 5, text_col: str = "text", lang_col: str = "lang"
):
    """Top-k terms per language ranked by exact integer tf (so the
    SELECTION is float-free and deterministic), annotated with document
    frequency and ``tfidf = round(tf * ln(1 + N/df), 2)`` where N is
    the total doc count. ONE tokenization pass feeds both tf and df
    (shared materialized partials); the df lookup ships only the
    SELECTED k x langs terms to the driver. Returns a pandas frame
    (lang, term, tf, df, tfidf)."""
    import pandas as pd

    n_docs = ds.count()
    parts = _partials(ds, text_col, lang_col)
    agg = parts.groupby([lang_col, "__isnull", "term"]).sum("tf")

    def finish(t: pa.Table) -> pa.Table:
        t = _restore_lang(t, lang_col)
        return pa.table(
            {
                lang_col: t.column(lang_col),
                "term": t.column("term"),
                "tf": t.column("sum(tf)").cast(pa.int64()),
            }
        )

    counts = agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    top = grouped_topk(counts, lang_col, "tf", k, tie_cols=("term",)).to_pandas()
    if top.empty:
        return pd.DataFrame(columns=[lang_col, "term", "tf", "df", "tfidf"])
    sel = pa.array(sorted(set(top["term"])), type=pa.string())
    dfs = (
        parts.map_batches(
            lambda t: t.select(["term", "df"]).filter(
                pc.is_in(t.column("term"), value_set=sel)
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("term")
        .sum("df")
        .to_pandas()
        .rename(columns={"sum(df)": "df"})
    )
    out = top.merge(dfs, on="term", how="left")
    out["tfidf"] = (
        out["tf"] * np.log(1.0 + n_docs / out["df"].to_numpy())
    ).round(2)
    return out[[lang_col, "term", "tf", "df", "tfidf"]]
