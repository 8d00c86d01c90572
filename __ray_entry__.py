"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship maintenance pipeline on sf0.001.
``queries()`` exposes one callable per implemented operator/pipeline
from SURVEY.md section 2 (plus the training-data operators); each takes
``sf_dir`` and returns a Dataset / DataFrame / Arrow table.
``oracle_sql()`` gives the DuckDB-equivalent SQL for every
SQL-expressible query (identical column names). Non-SQL-expressible
pipelines (LSH dedup, langid, fingerprints, CSV inference, the
end-to-end maintenance flagship) are rows-only checks.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init`` / ``ray.shutdown``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections.abc import Callable
from typing import Any

import numpy as np


def _tmp_root(tag: str) -> str:
    return tempfile.mkdtemp(prefix=f"graft-{tag}-")


def _schema_stable(ds_or_df, **dtypes):
    """Finalize a query whose result can be legitimately EMPTY: Ray
    drops empty blocks, so an empty Dataset ``to_pandas()``s to ZERO
    columns and the driver reads that as a schema mismatch against the
    oracle (which always carries its columns). Converts to pandas (the
    driver does anyway) and restores the declared columns when empty.
    Results here are small by construction (pair lists, id filters at
    driver sf); the scale path is the engine function, not queries()."""
    import pandas as pd

    df = ds_or_df if isinstance(ds_or_df, pd.DataFrame) else ds_or_df.to_pandas()
    if df.empty and list(df.columns) != list(dtypes):
        df = pd.DataFrame({c: pd.Series(dtype=t) for c, t in dtypes.items()})
    return df[list(dtypes)]


def _sql_round2(v):
    """2dp rounding with DuckDB ``ROUND(DOUBLE, 2)`` semantics
    (half-away-from-zero on the scaled value) for non-negative inputs.
    numpy's half-even ``np.round`` diverges on exact .xx5 ratios (2/80
    rounds 0.02 vs DuckDB 0.03 -- caught by the rep_stats oracle);
    ``floor(v*100 + 0.5)/100`` matched DuckDB on a 406-value probe
    sweep including every i/400."""
    import numpy as np

    return np.floor(np.asarray(v, dtype=np.float64) * 100.0 + 0.5) / 100.0


# ---------------------------------------------------------------------------
# flagship
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Full maintenance pipeline (ingest -> sanitize -> MERGE -> compact ->
    Z-order cluster) over sf0.001; returns the post-maintenance scan."""
    from engine.config import EngineConfig
    from engine.jobs import full_maintenance
    from engine.manifest import Table
    from engine.pages import read_pages

    root = _tmp_root("entry")
    cfg = EngineConfig(merge_buckets=8)
    full_maintenance(
        root,
        read_pages("/root/testdata/sf0.001"),
        cfg,
        target_bytes=8 << 20,
        rows_per_file=256,
    )
    return Table.load(root).scan(columns=["url", "text", "lang"])


# ---------------------------------------------------------------------------
# query implementations
# ---------------------------------------------------------------------------

def _q_sanitize_text(sf_dir: str):
    import ray.data
    from engine.sanitize import sanitize_array

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(
        lambda t: t.set_column(1, "clean_text", sanitize_array(t.column("text"))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _q_merge_lww(sf_dir: str):
    from engine.merge import merge_datasets
    from engine.pages import read_pages

    merged = merge_datasets(read_pages(sf_dir, with_html=False), num_buckets=16)
    return merged.select_columns(["url", "text", "lang"])


def _q_stream_upsert(sf_dir: str):
    """Streaming micro-batch upsert driven to a HARD SQL oracle: pages
    sorted by warc_ts (ts-monotone arrivals per key -- the regime where
    stream + periodic MERGE INTO equals one batch MERGE, ARCHITECTURE
    §8, property-tested in tests/test_stream.py) feed StreamingUpsert
    in uneven micro-batches; after MERGE INTO the scan must equal the
    merge_lww oracle exactly. The driver loop here SIMULATES a source's
    arrival order at test scale; in production micro-batches arrive
    from the stream itself and the sharded actor index is the scale
    path (O(batch) per arrival, never O(table))."""
    import pyarrow as pa

    from engine.config import EngineConfig
    from engine.jobs import merge_into
    from engine.manifest import Table
    from engine.pages import read_pages
    from engine.stream import StreamingUpsert

    df = (
        read_pages(sf_dir, with_html=False)
        .select_columns(["url", "warc_ts", "text", "lang"])
        .to_pandas()
        .sort_values("warc_ts", kind="stable", na_position="first")
    )
    root = _tmp_root("stream")
    cfg = EngineConfig(merge_buckets=8)
    t = Table.create(root)
    su = StreamingUpsert(t, cfg, num_shards=4)
    step = max(1, len(df) // 7)
    for off in range(0, len(df), step):
        su.upsert(pa.Table.from_pandas(df.iloc[off : off + step], preserve_index=False))
    merge_into(t, cfg)
    return t.scan(columns=["url", "text", "lang"])


def _maintained_scan(sf_dir: str, curve: str | None, do_compact: bool):
    from engine.config import EngineConfig
    from engine.jobs import cluster, compact, ingest
    from engine.manifest import Table
    from engine.pages import read_pages

    root = _tmp_root(curve or "compact")
    cfg = EngineConfig(cluster_curve=curve or "zorder")
    t = Table.create(root)
    # many deliberately undersized files so compaction has work (F5)
    ingest(t, read_pages(sf_dir, with_html=False), cfg, sanitize_cols=(), rows_per_file=64)
    if do_compact:
        compact(t, cfg, target_bytes=8 << 20)
    if curve:
        cluster(t, cfg, rows_per_file=512)
    return t.scan(columns=["url", "text", "lang"])


def _q_compact_scan(sf_dir: str):
    return _maintained_scan(sf_dir, curve=None, do_compact=True)


def _q_zorder_scan(sf_dir: str):
    return _maintained_scan(sf_dir, curve="zorder", do_compact=True)


def _q_hilbert_scan(sf_dir: str):
    return _maintained_scan(sf_dir, curve="hilbert", do_compact=False)


def _q_exact_dedup(sf_dir: str):
    import ray.data
    from engine.dedup import exact_dedup

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    _, filtered = exact_dedup(ds)
    return filtered.select_columns(["doc_id", "text"])


def _load_queries_emb(sf_dir: str, n_q: int = 8):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    # similarity-input contract: NULL / zero-norm embeddings excluded
    # (mirrored by the WHERE in every embedding oracle)
    vecs = t.column("embedding").to_pylist()
    ok = np.array(
        [v is not None and len(v) > 0 and float(np.dot(v, v)) > 0.0 for v in vecs],
        dtype=bool,
    )
    ids = t.column("vec_id").to_numpy(zero_copy_only=False)[ok]
    vecs = [v for v, k in zip(vecs, ok) if k]
    if not vecs:  # all-invalid corpus: empty query set, not a crash
        return np.zeros((0, 0)), np.array([], dtype=np.int64)
    take = np.argsort(ids)[:n_q]
    q = np.stack([np.asarray(vecs[i], dtype=np.float64) for i in take])
    return q, ids[take]


def _q_ann_topk(sf_dir: str):
    import ray.data
    from engine.similarity import cosine_topk

    q, qids = _load_queries_emb(sf_dir)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    from engine.similarity import filter_valid_vectors

    out = cosine_topk(filter_valid_vectors(ds), q, qids, k=5)
    return out.select_columns(["query_id", "vec_id"])


def _q_embed_dup_pairs(sf_dir: str):
    import ray.data
    from engine.similarity import embed_dup_pairs_auto, filter_valid_vectors

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    # auto-routed (VERDICT r2 #5): sf-scale corpora sit far below the
    # broadcast limit, so the oracle exercises the exact broadcast path
    pairs, _path = embed_dup_pairs_auto(filter_valid_vectors(ds), threshold=0.35)
    return _schema_stable(pairs.select_columns(["id_a", "id_b"]), id_a="int64", id_b="int64")


def _q_token_stats(sf_dir: str):
    import ray.data
    from engine.textstats import text_stats

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return text_stats(ds).select_columns(["doc_id", "n_chars", "n_tokens", "n_words"])


def _q_quality_ratios(sf_dir: str):
    import ray.data
    from engine.textstats import text_stats

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return text_stats(ds).select_columns(["doc_id", "alpha_ratio", "punct_ratio", "stop_ratio"])


def _q_quality_entropy(sf_dir: str):
    """Character-trigram Shannon entropy per doc (the model-free
    quality score standing in for a CCNet-class perplexity filter).
    Engine and oracle both compute H = log2(n) - sum(c*log2 c)/n over
    the identical per-doc trigram count multisets (collision-free
    packed keys on the engine side), rounded to 2dp on both sides --
    the terms are identical reals, only summation order differs."""
    import numpy as np
    import ray.data

    from engine.textstats import add_trigram_entropy

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def rnd(df):
        df = df.assign(entropy=_sql_round2(df["entropy"]))
        return df[["doc_id", "entropy"]]

    return add_trigram_entropy(ds).map_batches(rnd, batch_format="pandas")


def _q_line_dedup(sf_dir: str):
    """C4-style global line dedup: each distinct line survives only at
    its first (doc_id, idx) occurrence; docs are reassembled from
    surviving lines, NULL doc_id rows pass through. Text never rides
    the exchange -- only (hash, doc, idx) triples and loser
    coordinates. The same pipeline as ``line_dedup_pages``' job."""
    import ray.data

    from engine.dedup import dedup_lines_global

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return _schema_stable(
        dedup_lines_global(ds), doc_id="int64", text="object"
    )


def _q_line_dedup_pages(sf_dir: str):
    """The TABLE-lifecycle variant of line_dedup: ingest -> MERGE ->
    `jobs.dedup_lines` (the line_dedup operator keyed by url, committed
    through the manifest as a full rewrite, like cluster) -> scan.
    Winner = lexicographically smallest (url, line_idx); NULL/'' url
    rows pass through untouched (the MERGE null-key passthrough
    convention)."""
    from engine.config import EngineConfig
    from engine.jobs import dedup_lines, ingest, merge_into
    from engine.manifest import Table
    from engine.pages import read_pages

    root = _tmp_root("linededup")
    cfg = EngineConfig(merge_buckets=8)
    t = Table.create(root)
    ingest(t, read_pages(sf_dir, with_html=False), cfg, sanitize_cols=())
    merge_into(t, cfg)
    dedup_lines(t, cfg)
    return _schema_stable(
        t.scan(columns=["url", "text", "lang"]),
        url="object", text="object", lang="object",
    )


def _q_rep_stats(sf_dir: str):
    """Gopher/MassiveText repetition filters: duplicate-line fraction
    and top word-bigram share per doc, 2dp both sides. Line hashing and
    bigram keys are 64-bit content hashes (collision p ~ 2^-64); the
    oracle recomputes both from the strings."""
    import numpy as np
    import ray.data

    from engine.textstats import add_repetition_stats

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def rnd(df):
        return df.assign(
            dup_line_frac=_sql_round2(df["dup_line_frac"]),
            top_bigram_share=_sql_round2(df["top_bigram_share"]),
        )[["doc_id", "dup_line_frac", "top_bigram_share"]]

    return add_repetition_stats(ds).map_batches(rnd, batch_format="pandas")


def _q_lang_counts(sf_dir: str):
    import ray.data
    from engine.aggregates import group_count_null_safe

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    # NULL-safe: Ray's sort-based groupby crashes on None keys; SQL
    # GROUP BY keeps NULL as one group
    return group_count_null_safe(ds, "lang")


def _q_top_langs(sf_dir: str):
    import ray.data

    from engine.aggregates import group_count_null_safe

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    out = group_count_null_safe(ds, "lang")
    # the grouped result is O(langs) -- driver sort is fine; secondary
    # key = lang so the LIMIT boundary is deterministic when two langs
    # tie on count (na_position='last' = DuckDB's ASC NULLS LAST)
    return (
        out.sort_values(["n", "lang"], ascending=[False, True], na_position="last")
        .head(3)
        .reset_index(drop=True)
    )


def _q_tfidf_terms(sf_dir: str):
    """TF-IDF-annotated vocabulary: per-lang top-5 terms ranked by
    exact integer tf (float-free selection), document frequency from a
    second distinct-doc count pass, tfidf = tf * ln(1 + N/df) rounded
    2dp (engine.terms.tfidf_top_terms). Only the SELECTED terms' df
    rows leave the vocab-sized df Dataset."""
    import ray.data
    from engine.terms import tfidf_top_terms

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang"]
    )
    out = tfidf_top_terms(ds, k=5)
    return _schema_stable(
        out, lang="object", term="object", tf="int64", df="int64", tfidf="float64"
    )


def _q_top_dup_urls(sf_dir: str):
    """Global ORDER BY n LIMIT 10 over a high-cardinality grouped
    count: key-hash bucketed count partials, per-bucket fold + local
    top-k (exact: buckets partition the key space), final prune
    (engine.aggregates.grouped_count_topk). The exchange sorts one
    int64 bucket column, never the url strings; neither the counts nor
    the sort ever land on the driver."""
    from engine.aggregates import grouped_count_topk
    from engine.pages import read_pages

    pages = read_pages(sf_dir, with_html=False).select_columns(["url"])
    out = grouped_count_topk(pages, "url", 10)
    return _schema_stable(out, url="object", n="int64")


def _q_top_terms(sf_dir: str):
    """Corpus vocabulary sweep: exact (lang, term) counts (stopwords
    excluded) -> top-5 terms per language. Partial Arrow counts per
    batch, one groupby of partials, grouped_topk finish -- tokens never
    cross the exchange (engine.terms)."""
    import ray.data
    from engine.terms import top_terms_per_lang

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang"]
    )
    out = top_terms_per_lang(ds, k=5)
    return _schema_stable(out, lang="object", term="object", n="int64")


def _q_price_quantiles(sf_dir: str):
    """Exact distributed quantiles WITHOUT a global sort: multi-pass
    selection (count+sample -> searchsorted histogram -> bracket fetch),
    engine.quantiles. DuckDB quantile_disc semantics (rank ceil(q*n))."""
    import pandas as pd
    import ray.data
    from engine.quantiles import quantile_disc

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    q25, q50, q75 = quantile_disc(ds, "l_extendedprice", [0.25, 0.5, 0.75])
    return pd.DataFrame(
        {"q25": [round(q25, 2)], "q50": [round(q50, 2)], "q75": [round(q75, 2)]}
    )


def _q_dedup_best_doc(sf_dir: str):
    """Survivor-policy exact dedup: ONE canonical doc per duplicate
    text group, chosen by quality (longest, then lowest id) rather than
    min-id -- grouped_topk with k=1 over the text key (the partial
    prune means full documents never concentrate anywhere)."""
    import ray.data
    from engine.aggregates import grouped_topk

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "n_chars"]
    )
    out = grouped_topk(ds, "text", "n_chars", 1, tie_cols=("doc_id",))
    return _schema_stable(out, doc_id="int64", text="object", n_chars="int64")


def _q_length_quantiles(sf_dir: str):
    """Per-key exact percentiles (quantile_disc ... GROUP BY): the
    keyed multi-pass selection (engine.quantiles.grouped_quantile_disc)
    -- no per-key sort, no driver materialization of values."""
    import ray.data
    from engine.quantiles import grouped_quantile_disc

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )
    out = grouped_quantile_disc(ds, "lang", "n_chars", [0.5, 0.9])
    out = out.rename(columns={"q_0.5": "p50", "q_0.9": "p90"})
    return out[["lang", "p50", "p90"]]


def _q_redact_pii(sf_dir: str):
    """PII redaction (emails/URLs/IPs/phones) -- engine.redact applies
    the shared RE2 pattern table vectorized per batch; the oracle
    nests regexp_replace over the SAME literal patterns."""
    import ray.data
    from engine.redact import redact_text

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return redact_text(ds).select_columns(["doc_id", "redacted"])


def _q_top_docs_per_lang(sf_dir: str):
    """Grouped LIMIT (top-k per partition key): the distributed
    per-batch-prune + bucketed-fold operator, NOT a driver sort --
    per-batch partials emit <= k rows per key, the exchange moves
    O(k x keys x batches) rows (engine.aggregates.grouped_topk)."""
    import ray.data
    from engine.aggregates import grouped_topk

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "doc_id", "n_chars"]
    )
    out = grouped_topk(ds, "lang", "n_chars", 3, tie_cols=("doc_id",))
    return _schema_stable(out, lang="object", doc_id="int64", n_chars="int64")


def _q_distinct_ratio(sf_dir: str):
    """A5: first-column duplication ratio, exact at scale via groupby."""
    import pandas as pd
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    # SQL count(DISTINCT ...) semantics: NULL is not a distinct value
    distinct = sum(1 for v in ds.unique("lang") if v is not None)
    total = ds.count()
    return pd.DataFrame({"distinct_ratio": [1.0 - distinct / total]})


def _q_type_score(sf_dir: str):
    """A3 partial+final: per-batch (matched, total) pairs -> driver
    ratio. Vectorized: one C-loop ``str.match`` pass per pattern, OR'd
    -- no per-cell Python (round-1 VERDICT #7)."""
    import numpy as np
    import pandas as pd
    import ray.data
    from engine.infer import TYPE_PATTERNS

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].fillna("").str.strip()
        m = np.zeros(len(s), dtype=bool)
        for p in TYPE_PATTERNS:
            m |= s.str.match(p).to_numpy(dtype=bool)
        return pd.DataFrame({"matched": [int(m.sum())], "total": [len(s)]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame({"type_score": [parts.matched.sum() / parts.total.sum()]})


def _q_stats_minmax(sf_dir: str):
    """A6: per-partition min/max stats as a queryable aggregate."""
    from ray.data.aggregate import Count, Max, Min
    from engine.pages import read_pages

    pages = read_pages(sf_dir, with_html=False)
    import pyarrow as pa
    import pyarrow.compute as pc

    # NULL-safe group key (Ray's sort-based groupby cannot compare
    # None): the shared null_safe_key composite, restored afterwards
    from engine.aggregates import null_safe_key, restore_null_key

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("url")))
        filled, isnull = null_safe_key(t.column("lang"))
        return pa.table({"lang": filled, "__isnull": isnull, "url": t.column("url")})

    nonnull = pages.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    out = nonnull.groupby(["lang", "__isnull"]).aggregate(
        Min("url", alias_name="url_min"), Max("url", alias_name="url_max"), Count(alias_name="n")
    ).to_pandas()
    if "lang" not in out.columns:  # empty input: Ray drops empty blocks
        return _schema_stable(out, lang="object", url_min="object", url_max="object", n="int64")
    out = restore_null_key(out, "lang")
    return out[["lang", "url_min", "url_max", "n"]]


def _q_filter_nonempty(sf_dir: str):
    """M2/M4: usable-row filter (non-null key, non-empty text)."""
    import pyarrow.compute as pc
    from engine.pages import read_pages

    pages = read_pages(sf_dir, with_html=False)
    return pages.map_batches(
        lambda t: t.filter(
            pc.and_(pc.is_valid(t.column("url")), pc.not_equal(t.column("text"), ""))
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).select_columns(["url", "lang"])


def _q_events_by_type(sf_dir: str):
    """Grouped sum+count with per-batch combiner (A-ops at 60k+ rows)."""
    import ray.data
    from engine.aggregates import grouped_sum_count

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    out = grouped_sum_count(ds, "event_type", "value")
    out["sum_value"] = out["sum_value"].round(2)  # float-sum order differs
    return out[["event_type", "sum_value", "n"]]


def _q_broadcast_join(sf_dir: str):
    """J1 broadcast-small-side join: events x customer, count + sum per
    market segment (no shuffle of the fact table)."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data
    from engine.lookup import broadcast_join

    dim = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    facts = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "value"])
    joined = broadcast_join(facts, dim, left_on="user_id", right_on="c_custkey")
    from engine.aggregates import grouped_sum_count

    out = grouped_sum_count(joined, "c_mktsegment", "value")
    out["sum_value"] = out["sum_value"].round(2)
    return out[["c_mktsegment", "sum_value", "n"]]


def _q_lineitem_pricing(sf_dir: str):
    """Vectorized arithmetic + grouped aggregate over the largest table
    (TPC-H Q1 shape; exercises Arrow compute + the aggregate shuffle)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def revenue(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t.column("l_extendedprice"), pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        return t.append_column("revenue", rev)

    out = (
        ds.map_batches(revenue, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("revenue", alias_name="sum_revenue"),
            Count(alias_name="n"),
        )
    )
    df = out.to_pandas()
    df["n"] = df["n"].astype("int64")
    df["sum_qty"] = df["sum_qty"].round(2)
    df["sum_revenue"] = df["sum_revenue"].round(2)
    return df


def _q_salted_lang_counts(sf_dir: str):
    """Skew-aware grouped count: dominant langs salted into sub-buckets
    (north_rule skew handling), partials re-merged."""
    import ray.data
    from engine.skew import salted_group_count

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    out, _heavy = salted_group_count(ds, "lang", threshold_rows=100, salt_buckets=4)
    return out


def _q_range_join(sf_dir: str):
    """Interval join: classify each event's value into fixed bands via a
    broadcast sorted-interval searchsorted (no shuffle)."""
    import pandas as pd
    import ray.data
    from engine.lookup import range_join

    iv = pd.DataFrame(
        {"lo": [0.0, 10.0, 100.0], "hi": [10.0, 100.0, 1e9], "band": ["low", "mid", "high"]}
    )
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "value"])
    out = range_join(ds, iv, "value", "lo", "hi", attach=["band"])
    return out.select_columns(["event_id", "band"])


def _q_asof_join(sf_dir: str):
    """Point-in-time (as-of) join: each event matched to the customer's
    latest order at-or-before the event time (bucketed pd.merge_asof;
    right side pre-deduped per (key, date) so ties are well-defined)."""
    import pyarrow as pa
    import ray.data
    from engine.asof import asof_join

    events = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])

    def dedupe_right(t: pa.Table) -> pa.Table:
        df = (
            t.to_pandas()
            .groupby(["o_custkey", "o_orderdate"], as_index=False)["o_orderkey"]
            .max()
        )
        return pa.Table.from_pandas(
            df.rename(columns={"o_custkey": "user_id"}), preserve_index=False
        )

    orders = (
        ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate", "o_orderkey"])
        .repartition(1)
        .map_batches(dedupe_right, batch_format="pyarrow", batch_size=None)
    )
    out = asof_join(events, orders, key="user_id", left_ts="ts", right_ts="o_orderdate", num_buckets=16)
    return out.select_columns(["event_id", "o_orderkey"])


def _q_sessions_per_user(sf_dir: str):
    """Session-window aggregate over the events log (SURVEY 2.9)."""
    import ray.data
    from engine.window import session_stats

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return session_stats(ds, gap_seconds=1800.0, num_buckets=32)


def _q_tumbling_hourly(sf_dir: str):
    """Tumbling event-time window: events + value sum per hour."""
    import ray.data
    from engine.window import tumbling_window_agg

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "value"])
    out = tumbling_window_agg(ds, width_seconds=3600.0)
    out["sum_value"] = out["sum_value"].round(2)
    return out[["window_start", "n", "sum_value"]]


def _q_quality_filter(sf_dir: str):
    """C4-style quality gate: docs passing token/alpha/stopword floors."""
    import ray.data
    from engine.textstats import text_stats

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    scored = text_stats(ds)

    def gate(df):
        keep = (df.n_tokens >= 20) & (df.alpha_ratio >= 0.7) & (df.stop_ratio >= 0.02)
        return df.loc[keep, ["doc_id"]]

    return _schema_stable(scored.map_batches(gate, batch_format="pandas"), doc_id="int64")


def _q_pruned_scan(sf_dir: str):
    """Manifest min/max pruning: cluster by (lang,url), then scan ONLY
    the files whose lang range can contain 'zh' (file-level skip before
    any task launches), then the exact filter."""
    import pyarrow.compute as pc
    from engine.config import EngineConfig
    from engine.jobs import cluster, ingest
    from engine.manifest import Table
    from engine.pages import read_pages

    root = _tmp_root("prune")
    t = Table.create(root)
    cfg = EngineConfig()
    ingest(t, read_pages(sf_dir, with_html=False), cfg, sanitize_cols=(), rows_per_file=64)
    cluster(t, cfg, rows_per_file=256)
    pruned = t.scan(
        columns=["url", "text", "lang"], predicate_stats={"lang": ("zh", "zh")}
    )
    out = pruned.map_batches(
        lambda b: b.filter(pc.equal(b.column("lang"), "zh")),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return _schema_stable(out, url="object", text="object", lang="object")


# --- rows-only (non-SQL-expressible) --------------------------------------

def _q_minhash_pairs(sf_dir: str):
    """MinHash-LSH near-dup pairs, now HARD-oracled: with 64 bands of
    r=2 rows the miss probability at jaccard >= 0.5 is (1-j^2)^64 <=
    1e-8 per pair, so the LSH+verify output equals the exact all-pairs
    3-gram-Jaccard >= 0.5 set that DuckDB computes independently.
    jaccard_pct = floor(100*j): floor of the identical double is
    rounding-mode-proof (round() differs between numpy half-even and
    DuckDB half-away on exact .xx5 ratios like 1/8)."""
    import numpy as np
    import ray.data
    from engine.dedup import minhash_dedup_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # max_cell=None: the hard oracle asserts the exact all-pairs set, so
    # the hot-cell star-pattern cap must be off for this query
    pairs = minhash_dedup_pairs(ds, threshold=0.5, num_perm=128, bands=64, max_cell=None)

    def pct(df):
        df = df.assign(jaccard_pct=np.floor(100.0 * df["jaccard"]).astype("int64"))
        return df[["id_a", "id_b", "jaccard_pct"]]

    return _schema_stable(
        pairs.map_batches(pct, batch_format="pandas"),
        id_a="int64", id_b="int64", jaccard_pct="int64",
    )


def _q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs with the md5 token hasher: DuckDB can
    recompute the exact 64-bit signature (md5 top-8-bytes token hash,
    per-bit strict majority), and radius-sized banding (n_bands =
    max_hamming+1) guarantees FULL recall -- so the output is
    hard-oracled against a brute-force SQL Hamming join."""
    import ray.data
    from engine.dedup import simhash_dup_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return _schema_stable(
        simhash_dup_pairs(ds, max_hamming=8, hasher="md5"),
        id_a="int64", id_b="int64", hamming="int64",
    )


def _q_ivf_topk(sf_dir: str):
    """IVF top-k via the STORED-list index, HARD-oracled (round-3
    VERDICT #3): build_ivf_index writes a __list-partitioned table
    (per-file __list stats in the manifest) and the query probes at
    nprobe = n_centroids -- every list -- where IVF must equal brute
    force EXACTLY, so the full indexed dataflow (k-means assignment,
    stored-list scan, manifest probe, per-batch partial top-k,
    tree-reduce final, tie order) hashes against the same DuckDB
    brute-force SQL as ann_topk. Approximation quality at partial
    nprobe is covered by the recall-floor unit test
    (tests/test_similarity.py::test_ivf_topk_recall_vs_brute_force,
    floor 0.6 with planted structure, plus determinism);
    measured recall@5 at nprobe=4/16 on these unclustered random
    embeddings is 0.5-0.68, so a 0.9 floor is unreachable and equality
    at full probe is the strongest honest check."""
    import ray.data
    from engine.similarity import build_ivf_index, ivf_topk_indexed

    from engine.similarity import filter_valid_vectors

    q, qids = _load_queries_emb(sf_dir)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    root = f"/tmp/ivf-index-{os.path.basename(os.path.normpath(sf_dir))}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    table, _ = build_ivf_index(filter_valid_vectors(ds), root, n_centroids=16, rows_per_file=1024)
    return ivf_topk_indexed(table, q, qids, k=5, nprobe=16).select_columns(
        ["query_id", "vec_id"]
    )


def _q_lsh_embed_pairs(sf_dir: str):
    """LSH near-dup pairs, HARD-oracled (round-3 VERDICT #4): the
    signature family is ``planes="axes"`` (bit i = sign of component i,
    a valid axis-aligned hyperplane family) precisely so DuckDB can
    recompute the EXACT signature from the stored list column -- the
    whole path (sign -> coarse bucket -> run-length cells -> vectorized
    pair enumeration -> exact-cosine verify) hashes against SQL.
    Random-plane recall behavior stays covered by the planted-pair unit
    tests."""
    import ray.data
    from engine.similarity import filter_valid_vectors, lsh_bucketed_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = lsh_bucketed_pairs(
        filter_valid_vectors(ds), threshold=0.35, num_bits=6, planes="axes"
    ).select_columns(["id_a", "id_b"])
    return _schema_stable(out, id_a="int64", id_b="int64")


def _q_lang_id(sf_dir: str):
    """Language id, hard-oracled: the classify heuristic (script-range
    vote then stopword-profile argmax) is deterministic integer
    arithmetic over regex counts, so DuckDB mirrors it exactly
    (confidence is excluded -- float-free compare)."""
    import ray.data
    from engine.langid import lang_id

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return lang_id(ds).select_columns(["doc_id", "lang_pred"])


def _q_fingerprint(sf_dir: str):
    import ray.data
    from engine.fingerprint import fingerprint_stage

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return fingerprint_stage(ds)


def _q_html_extract(sf_dir: str):
    from engine.multimodal import decode_html
    from engine.pages import read_pages

    return decode_html(read_pages(sf_dir)).select_columns(["url", "extracted_text", "decode_error"])


def _q_csv_ingest(sf_dir: str):
    """CSV-parity front-end over deterministic fixture files (F4)."""
    from engine.csv_ingest import ingest_csv

    d = tempfile.mkdtemp(prefix="graft-csv-")
    with open(os.path.join(d, "a.csv"), "w") as f:
        f.write("id;location;event_date;amount\n1;Lisbon;2023-10-01;100,5\n2;\"Paris; TX\";2023-10-02;200\n")
    with open(os.path.join(d, "b.csv"), "w") as f:
        f.write("Key,Value\nName,=1+1\nAge,30\nKey,Value\nName,Bob\nAge,25\n")
    ds, _, _ = ingest_csv([os.path.join(d, "a.csv"), os.path.join(d, "b.csv")])
    return ds


def _q_maintenance_full(sf_dir: str):
    from engine.config import EngineConfig
    from engine.jobs import full_maintenance
    from engine.manifest import Table
    from engine.pages import read_pages

    root = _tmp_root("flagship")
    full_maintenance(
        root, read_pages(sf_dir), EngineConfig(merge_buckets=16), target_bytes=8 << 20, rows_per_file=256
    )
    return Table.load(root).scan(columns=["url", "text", "lang"])


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "sanitize_text": _q_sanitize_text,
        "redact_pii": _q_redact_pii,
        "merge_lww": _q_merge_lww,
        "stream_upsert": _q_stream_upsert,
        "compact_scan": _q_compact_scan,
        "zorder_scan": _q_zorder_scan,
        "hilbert_scan": _q_hilbert_scan,
        "exact_dedup": _q_exact_dedup,
        "dedup_best_doc": _q_dedup_best_doc,
        "ann_topk": _q_ann_topk,
        "embed_dup_pairs": _q_embed_dup_pairs,
        "token_stats": _q_token_stats,
        "quality_ratios": _q_quality_ratios,
        "quality_entropy": _q_quality_entropy,
        "rep_stats": _q_rep_stats,
        "line_dedup": _q_line_dedup,
        "line_dedup_pages": _q_line_dedup_pages,
        "lang_counts": _q_lang_counts,
        "top_langs": _q_top_langs,
        "top_docs_per_lang": _q_top_docs_per_lang,
        "top_terms": _q_top_terms,
        "tfidf_terms": _q_tfidf_terms,
        "top_dup_urls": _q_top_dup_urls,
        "distinct_ratio": _q_distinct_ratio,
        "type_score": _q_type_score,
        "stats_minmax": _q_stats_minmax,
        "filter_nonempty": _q_filter_nonempty,
        "events_by_type": _q_events_by_type,
        "broadcast_join": _q_broadcast_join,
        "lineitem_pricing": _q_lineitem_pricing,
        "price_quantiles": _q_price_quantiles,
        "length_quantiles_per_lang": _q_length_quantiles,
        "salted_lang_counts": _q_salted_lang_counts,
        "asof_join": _q_asof_join,
        "range_join": _q_range_join,
        "sessions_per_user": _q_sessions_per_user,
        "tumbling_hourly": _q_tumbling_hourly,
        "quality_filter": _q_quality_filter,
        "pruned_scan": _q_pruned_scan,
        "minhash_pairs": _q_minhash_pairs,
        "ivf_topk": _q_ivf_topk,
        "simhash_pairs": _q_simhash_pairs,
        "lsh_embed_pairs": _q_lsh_embed_pairs,
        "lang_id": _q_lang_id,
        "fingerprint": _q_fingerprint,
        "html_extract": _q_html_extract,
        "csv_ingest": _q_csv_ingest,
        "maintenance_full": _q_maintenance_full,
    }


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_sql() -> dict[str, str]:
    from engine.pages import PAGES_CTE
    from engine.sanitize import PY_STR_WHITESPACE

    ws = PY_STR_WHITESPACE.replace("'", "''")
    trim = f"coalesce(trim(text, '{ws}'), '')"
    sanitize = (
        f"CASE WHEN {trim} = '' THEN '' "
        f"WHEN left({trim}, 1) IN ('=', '+', '-', '@') THEN '''' || {trim} "
        f"ELSE {trim} END"
    )
    from engine.redact import oracle_expr as _redact_oracle_expr

    redact_expr = _redact_oracle_expr("text")
    # ONE definition of the MERGE-semantics SQL (LWW by warc_ts,
    # non-empty coalesce, NULL/''-key passthrough) -- shared by every
    # oracle that consumes post-merge rows, so the parity-critical
    # semantics can never diverge between them (review finding)
    merged_allr = """
        , merged AS (
          SELECT url,
            coalesce(arg_max(text, warc_ts) FILTER (text IS NOT NULL AND text <> ''),
                     arg_min(text, warc_ts)) AS text,
            coalesce(arg_max(lang, warc_ts) FILTER (lang IS NOT NULL AND lang <> ''),
                     arg_min(lang, warc_ts)) AS lang
          FROM pages WHERE url IS NOT NULL AND url <> '' GROUP BY url)
        , allr AS (
          SELECT url, text, lang FROM merged
          UNION ALL
          SELECT url, text, lang FROM pages WHERE url IS NULL OR url = '')
        """
    merged_scan = PAGES_CTE + merged_allr + "SELECT url, text, lang FROM allr"
    pages_scan = PAGES_CTE + "SELECT url, text, lang FROM pages"

    # line_dedup_pages: MERGE (same CTE as merged_scan) then global
    # line dedup with winner = min (url, idx); NULL/'' url rows pass
    # through untouched. Keyed NULL text coalesces to '' (its one ''
    # line went through the dedup).
    line_dedup_pages = (
        PAGES_CTE
        + merged_allr
        + """
        , l AS (
          SELECT url, u.i AS idx, u.line FROM (
            SELECT url, unnest(list_transform(generate_series(1, len(ls)),
                               i -> {'i': i, 'line': ls[i]})) AS u
            FROM (SELECT url, str_split(coalesce(text, ''), chr(10)) AS ls
                  FROM allr WHERE url IS NOT NULL AND url <> '')))
        , w AS (SELECT line, min(url) AS wurl FROM l GROUP BY line)
        , w2 AS (SELECT l.line, w.wurl, min(l.idx) AS widx FROM l
            JOIN w ON l.line = w.line AND l.url = w.wurl GROUP BY l.line, w.wurl)
        , kept AS (SELECT l.url, l.idx, l.line FROM l
            JOIN w2 ON l.line = w2.line WHERE l.url = w2.wurl AND l.idx = w2.widx)
        , o AS (SELECT url, string_agg(line, chr(10) ORDER BY idx) AS text
            FROM kept GROUP BY url)
        SELECT a.url, coalesce(o.text, '') AS text, a.lang
        FROM allr a LEFT JOIN o ON a.url = o.url
        WHERE a.url IS NOT NULL AND a.url <> ''
        UNION ALL
        SELECT url, text, lang FROM allr WHERE url IS NULL OR url = ''
        """
    )

    # Python unicode \s as an explicit RE2 class: the engine tokenizes
    # with Python \S+ (textstats TOKEN_PATTERN, dedup shingles), while
    # RE2's own \s is ASCII [\t\n\f\r ] -- it misses \x0b, \x1c-\x1f and
    # every unicode space, so an oracle using bare '\s' diverges on any
    # corpus containing them. Verified char-for-char against
    # re.match(r"\s") over the BMP in
    # tests/test_entry_contract.py::test_oracle_ws_class_is_python_s.
    from engine.textstats import PY_WS_RE2 as pys  # ONE canonical class
    # engine text kernels fill NULL text with '' (pc.fill_null) before
    # counting -- the oracles must coalesce the same way
    txt = "coalesce(text, '')"
    n_chars = f"length({txt})"
    n_tokens = f"len(regexp_extract_all({txt}, '[^{pys}]+'))"
    n_words = f"len(regexp_extract_all({txt}, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9{pys}]'))"
    n_alpha = f"len(regexp_extract_all({txt}, '[A-Za-z]'))"
    n_punct = f"len(regexp_extract_all({txt}, '[^A-Za-z0-9{pys}]'))"
    stopwords = "'the','of','and','a','to','in','is','you','that','it','he','was','for','on','are','as','with','his','they','at','be','this','have','from','or'"
    n_stop = (
        f"len(list_filter(regexp_extract_all(lower({txt}), '[^{pys}]+'), "
        f"x -> x IN ({stopwords})))"
    )

    def _re2(pat: str) -> str:
        """Rewrite a Python-re pattern to a match-equal RE2 one:
        ``\\d`` -> ``\\p{Nd}`` (Python \\d is unicode Nd, RE2's is
        ASCII) and ``\\s`` -> the explicit class above (content-only
        inside ``[...]``). DuckDB string literals are raw, so only
        quotes need doubling afterwards."""
        out: list[str] = []
        i, in_class = 0, False
        while i < len(pat):
            c = pat[i]
            if c == "\\" and i + 1 < len(pat):
                nxt = pat[i + 1]
                if nxt == "d":
                    out.append(r"\p{Nd}")
                elif nxt == "s":
                    out.append(pys if in_class else f"[{pys}]")
                else:
                    out.append(pat[i : i + 2])
                i += 2
                continue
            if c == "[" and not in_class:
                in_class = True
            elif c == "]" and in_class:
                in_class = False
            out.append(c)
            i += 1
        return "".join(out)

    # built FROM engine.infer.TYPE_PATTERNS so oracle and engine cannot
    # drift; trim strips the same explicit set pandas .str.strip() does
    # (DuckDB's bare trim() strips spaces only)
    from engine.infer import TYPE_PATTERNS

    trim_text = f"trim({txt}, '{ws}')"
    type_match = " OR ".join(
        f"regexp_matches({trim_text}, '" + _re2(p.pattern).replace("'", "''") + "')"
        for p in TYPE_PATTERNS
    )

    # similarity-input contract (mirrored by filter_valid_vectors in
    # the engine): NULL and zero-norm embeddings are excluded -- cosine
    # is undefined for them and conventions differ (DuckDB returns -1.0
    # for a zero vector; numpy 0/0 is NaN)
    emb_valid = (
        "SELECT vec_id, embedding FROM embeddings WHERE embedding IS NOT NULL "
        "AND list_inner_product(embedding::DOUBLE[], embedding::DOUBLE[]) > 0"
    )

    ann = f"""
        WITH ev AS ({emb_valid}),
        q AS (
          SELECT vec_id AS query_id, embedding::DOUBLE[] AS qv
          FROM ev ORDER BY vec_id LIMIT 8
        ),
        sims AS (
          SELECT q.query_id, e.vec_id,
                 list_cosine_similarity(e.embedding::DOUBLE[], q.qv) AS score
          FROM ev e CROSS JOIN q
          WHERE e.vec_id <> q.query_id
        ),
        ranked AS (
          SELECT query_id, vec_id,
                 row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) AS rn
          FROM sims
        )
        SELECT query_id, vec_id FROM ranked WHERE rn <= 5
        """

    embed_pairs = f"""
        WITH ev AS ({emb_valid})
        SELECT a.vec_id AS id_a, b.vec_id AS id_b
        FROM ev a JOIN ev b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.35
        """

    # --- lsh_embed_pairs: the query uses the axis-aligned hyperplane
    # family (bit i = sign of embedding component i+1) exactly so this
    # SQL can recompute the signature and re-derive the SAME pair set:
    # equal 6-bit signature cell AND exact cosine >= threshold.
    lsh_sig = " + ".join(
        f"(CASE WHEN embedding[{i + 1}] > 0 THEN {1 << i} ELSE 0 END)" for i in range(6)
    )
    lsh_pairs = f"""
        WITH sig AS (
          SELECT vec_id, embedding, {lsh_sig} AS sig FROM ({emb_valid})
        )
        SELECT a.vec_id AS id_a, b.vec_id AS id_b
        FROM sig a JOIN sig b ON a.sig = b.sig AND a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.35
        """

    # --- minhash_pairs: exact all-pairs word-3-gram Jaccard >= 0.5.
    # Mirrors engine.dedup.word_shingles/_pairwise_jaccard: \S+ tokens of
    # lower(text); < 3 tokens -> one joined shingle; both-empty -> 1.0.
    minhash_pairs = rf"""
        WITH tk AS (
          SELECT doc_id,
                 regexp_extract_all(lower(coalesce(text, '')), '[^{pys}]+') AS tk
          FROM documents
        ), sh AS (
          SELECT doc_id, CASE
              WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
              WHEN len(tk) < 3 THEN [array_to_string(tk, ' ')]
              ELSE list_transform(generate_series(1, len(tk) - 2),
                                  i -> tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2])
            END AS sl
          FROM tk
        ), s AS (
          SELECT doc_id, list_distinct(sl) AS s FROM sh
        ), j AS (
          SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                 CASE WHEN len(a.s) = 0 AND len(b.s) = 0 THEN 1.0
                      ELSE len(list_intersect(a.s, b.s)) /
                           CAST(len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)) AS DOUBLE)
                 END AS jac
          FROM s a JOIN s b ON a.doc_id < b.doc_id
        )
        SELECT id_a, id_b, CAST(floor(100 * jac) AS BIGINT) AS jaccard_pct
        FROM j WHERE jac >= 0.5
        """

    # --- simhash_pairs: recompute the md5-hasher 64-bit signature in
    # SQL (engine.dedup.simhash_texts hasher="md5": token hash = top 8
    # bytes of md5; bit i set iff strictly more tokens have it set),
    # then brute-force Hamming join at radius 8.
    simhash_pairs = rf"""
        WITH toks AS (
          SELECT doc_id, unnest(regexp_extract_all(lower(coalesce(text, '')), '[^{pys}]+')) AS tok
          FROM documents
        ), th AS (
          SELECT doc_id, substr(md5(tok), 1, 16) AS hx FROM toks
        ), bits AS (
          SELECT doc_id, ii.i AS i,
                 sum(((strpos('0123456789abcdef', substr(hx, 16 - (ii.i // 4), 1)) - 1)
                      >> (ii.i % 4)) & 1) AS ones,
                 count(*) AS n
          FROM th, (SELECT unnest(generate_series(0, 63)) AS i) ii
          GROUP BY doc_id, ii.i
        ), sig0 AS (
          SELECT doc_id,
                 string_agg(CASE WHEN 2 * ones > n THEN '1' ELSE '0' END, '' ORDER BY i) AS s
          FROM bits GROUP BY doc_id
        ), sig AS (
          SELECT d.doc_id, coalesce(sig0.s, repeat('0', 64)) AS s
          FROM documents d LEFT JOIN sig0 USING (doc_id)
        ), p AS (
          SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                 len(list_filter(generate_series(1, 64),
                                 k -> substr(a.s, k, 1) <> substr(b.s, k, 1))) AS hamming
          FROM sig a JOIN sig b ON a.doc_id < b.doc_id
        )
        SELECT id_a, id_b, hamming FROM p WHERE hamming <= 8
        """

    # --- lang_id: SQL mirror of engine.langid.LangId.classify --
    # script-range vote (hits/chars > 0.05, fixed order) then
    # stopword-profile argmax (first strictly-greater wins, fixed order)
    from engine.langid import PROFILES, _SCRIPT_RANGES

    script_hits = []
    script_cases = []
    for lang_code, rx in _SCRIPT_RANGES:
        cls = rx.pattern.replace("'", "''")
        script_hits.append(
            f"length(s) - length(regexp_replace(s, '{cls}', '', 'g')) AS hit_{lang_code}"
        )
        script_cases.append(
            f"WHEN hit_{lang_code} / CAST(greatest(length(s), 1) AS DOUBLE) > 0.05 THEN '{lang_code}'"
        )
    prof_hits = []
    prof_cases = []
    for lang_code, words in PROFILES.items():
        lst = ", ".join("'" + w.replace("'", "''") + "'" for w in words)
        prof_hits.append(
            f"len(list_filter(toks, t -> t IN ({lst}))) AS h_{lang_code}"
        )
        prof_cases.append(f"WHEN h_{lang_code} = m THEN '{lang_code}'")
    m_expr = "greatest(" + ", ".join(f"h_{lc}" for lc in PROFILES) + ")"
    lang_id_sql = f"""
        WITH c AS (
          SELECT doc_id, substr(coalesce(text, ''), 1, 4000) AS s FROM documents
        ), sc AS (
          SELECT doc_id, s,
                 regexp_extract_all(lower(s), '[a-zà-ÿäöüßñç]+') AS toks,
                 {", ".join(script_hits)}
          FROM c
        ), ph AS (
          SELECT *, {", ".join(prof_hits)}, {m_expr} AS m FROM sc
        )
        SELECT doc_id, CASE
            {" ".join(script_cases)}
            WHEN len(toks) = 0 THEN 'und'
            WHEN m = 0 THEN 'und'
            {" ".join(prof_cases)}
            ELSE 'und' END AS lang_pred
        FROM ph
        """

    return {
        "sanitize_text": f"SELECT doc_id, {sanitize} AS clean_text FROM documents",
        "redact_pii": (
            f"SELECT doc_id, {redact_expr} AS redacted FROM documents"
        ),
        "merge_lww": merged_scan,
        # ts-monotone arrivals: stream + MERGE INTO == one batch MERGE,
        # so the streaming pipeline shares the batch-merge oracle
        "stream_upsert": merged_scan,
        "compact_scan": pages_scan,
        "zorder_scan": pages_scan,
        "hilbert_scan": pages_scan,
        "exact_dedup": "SELECT min(doc_id) AS doc_id, text FROM documents GROUP BY text",
        # survivor-policy dedup: quality-ranked canonical doc per text
        # group (NULL text is one group, like exact_dedup)
        "dedup_best_doc": (
            "SELECT doc_id, text, n_chars FROM ("
            "  SELECT doc_id, text, n_chars, row_number() OVER ("
            "    PARTITION BY text ORDER BY n_chars DESC, doc_id) AS rn"
            "  FROM documents) WHERE rn = 1"
        ),
        "ann_topk": ann,
        "embed_dup_pairs": embed_pairs,
        # ivf_topk probes EVERY list (nprobe = n_centroids), where the
        # indexed IVF dataflow must equal brute force exactly -- same
        # brute-force SQL as ann_topk
        "ivf_topk": ann,
        "lsh_embed_pairs": lsh_pairs,
        "token_stats": (
            f"SELECT doc_id, {n_chars} AS n_chars, {n_tokens} AS n_tokens, "
            f"{n_words} AS n_words FROM documents"
        ),
        "quality_ratios": (
            "SELECT doc_id, "
            f"CASE WHEN {n_chars} > 0 THEN {n_alpha} / CAST({n_chars} AS DOUBLE) ELSE 0.0 END AS alpha_ratio, "
            f"CASE WHEN {n_chars} > 0 THEN {n_punct} / CAST({n_chars} AS DOUBLE) ELSE 0.0 END AS punct_ratio, "
            f"CASE WHEN {n_tokens} > 0 THEN {n_stop} / CAST({n_tokens} AS DOUBLE) ELSE 0.0 END AS stop_ratio "
            "FROM documents"
        ),
        # character-trigram entropy: same stable integer-count form the
        # engine kernel computes (H = log2 n - sum(c log2 c)/n); < 3
        # chars (incl. NULL text) -> 0.0; 2dp rounding both sides
        "quality_entropy": (
            "WITH sh AS ("
            "  SELECT doc_id, CASE WHEN length(coalesce(text, '')) >= 3 THEN"
            "    list_transform(generate_series(1, length(coalesce(text, '')) - 2),"
            "                   i -> substr(coalesce(text, ''), i, 3))"
            "    ELSE CAST([] AS VARCHAR[]) END AS gs"
            "  FROM documents"
            "), tg AS (SELECT doc_id, unnest(gs) AS g FROM sh),"
            " c AS (SELECT doc_id, g, count(*) AS cnt FROM tg GROUP BY doc_id, g),"
            " h AS (SELECT doc_id,"
            "   log2(SUM(cnt)) - SUM(cnt * log2(cnt)) / SUM(cnt) AS ent"
            "   FROM c GROUP BY doc_id)"
            " SELECT d.doc_id, ROUND(coalesce(h.ent, 0.0), 2) AS entropy"
            " FROM documents d LEFT JOIN h ON d.doc_id = h.doc_id"
        ),
        "line_dedup_pages": line_dedup_pages,
        # C4 global line dedup: winner = min doc then min idx per
        # distinct line; docs rebuilt from survivors in order (a doc
        # losing every line keeps ''). NULL text = one empty line.
        # NULL doc_id rows pass through untouched and win no line.
        "line_dedup": (
            "WITH l AS ("
            "  SELECT doc_id, u.i AS idx, u.line FROM ("
            "    SELECT doc_id, unnest(list_transform("
            "      generate_series(1, len(ls)), i -> {'i': i, 'line': ls[i]})) AS u"
            "    FROM (SELECT doc_id, str_split(coalesce(text, ''), chr(10)) AS ls"
            "          FROM documents WHERE doc_id IS NOT NULL))"
            "), w AS (SELECT line, min(doc_id) AS wdoc FROM l GROUP BY line),"
            " w2 AS (SELECT l.line, w.wdoc, min(l.idx) AS widx FROM l"
            "   JOIN w ON l.line = w.line AND l.doc_id = w.wdoc"
            "   GROUP BY l.line, w.wdoc),"
            " kept AS (SELECT l.doc_id, l.idx, l.line FROM l"
            "   JOIN w2 ON l.line = w2.line"
            "   WHERE l.doc_id = w2.wdoc AND l.idx = w2.widx),"
            " o AS (SELECT doc_id, string_agg(line, chr(10) ORDER BY idx) AS text"
            "   FROM kept GROUP BY doc_id)"
            " SELECT d.doc_id, coalesce(o.text, '') AS text"
            " FROM documents d LEFT JOIN o ON d.doc_id = o.doc_id"
            " WHERE d.doc_id IS NOT NULL"
            " UNION ALL SELECT doc_id, text FROM documents WHERE doc_id IS NULL"
        ),
        # Gopher repetition filters: dup-line fraction over raw '\n'
        # splits (empty doc = one empty line -> 0.0) and the share of
        # the most frequent word bigram; < 2 tokens -> 0.0
        "rep_stats": (
            f"WITH l AS ("
            f"  SELECT doc_id, unnest(str_split(coalesce(text, ''), chr(10))) AS line"
            f"  FROM documents"
            f"), lf AS ("
            f"  SELECT doc_id,"
            f"    1.0 - count(DISTINCT line) / CAST(count(*) AS DOUBLE) AS dlf"
            f"  FROM l GROUP BY doc_id"
            f"), tk AS ("
            f"  SELECT doc_id, regexp_extract_all(lower(coalesce(text, '')),"
            f" '[^{pys}]+') AS tk FROM documents"
            f"), bg AS ("
            f"  SELECT doc_id, CASE WHEN len(tk) >= 2 THEN"
            f"    list_transform(generate_series(1, len(tk) - 1),"
            f"                   i -> tk[i] || ' ' || tk[i+1])"
            f"    ELSE CAST([] AS VARCHAR[]) END AS gs FROM tk"
            f"), bgu AS (SELECT doc_id, unnest(gs) AS g FROM bg),"
            f" c AS (SELECT doc_id, g, count(*) AS bn FROM bgu GROUP BY doc_id, g),"
            f" s AS (SELECT doc_id, max(bn) / CAST(sum(bn) AS DOUBLE) AS tbs"
            f"   FROM c GROUP BY doc_id)"
            f" SELECT d.doc_id, ROUND(lf.dlf, 2) AS dup_line_frac,"
            f"   ROUND(coalesce(s.tbs, 0.0), 2) AS top_bigram_share"
            f" FROM documents d JOIN lf ON d.doc_id = lf.doc_id"
            f" LEFT JOIN s ON d.doc_id = s.doc_id"
        ),
        "lang_counts": "SELECT lang, count(*) AS n FROM documents GROUP BY lang",
        "top_langs": "SELECT lang, count(*) AS n FROM documents GROUP BY lang ORDER BY n DESC, lang LIMIT 3",
        # tf-idf: integer tf ranks (float-free selection), df = distinct
        # docs containing the term, natural log both sides, 2dp rounding
        "tfidf_terms": (
            f"WITH toks AS ("
            f"  SELECT doc_id, lang, unnest(regexp_extract_all("
            f"lower(coalesce(text, '')), '[^{pys}]+')) AS term FROM documents"
            f"), ft AS (SELECT * FROM toks WHERE term NOT IN ({stopwords})),"
            f" counts AS (SELECT lang, term, count(*) AS tf FROM ft"
            f"   GROUP BY lang, term),"
            f" dfreq AS (SELECT term, count(DISTINCT doc_id) AS df FROM ft"
            f"   GROUP BY term),"
            f" n AS (SELECT count(*) AS n_docs FROM documents),"
            f" ranked AS (SELECT lang, term, tf, row_number() OVER ("
            f"   PARTITION BY lang ORDER BY tf DESC, term) AS rn FROM counts)"
            f" SELECT r.lang, r.term, r.tf, d.df,"
            f"   round(r.tf * ln(1 + (SELECT n_docs FROM n)"
            f"     / CAST(d.df AS DOUBLE)), 2) AS tfidf"
            f" FROM ranked r JOIN dfreq d USING (term) WHERE rn <= 5"
        ),
        # global grouped-count LIMIT: NULL url is one group, NULLS LAST
        # in the url tie-break (DuckDB default)
        "top_dup_urls": (
            PAGES_CTE
            + "SELECT url, count(*) AS n FROM pages GROUP BY url "
            "ORDER BY n DESC, url LIMIT 10"
        ),
        # vocabulary sweep: same tokenizer class as token_stats, same
        # stopword set as quality_ratios, grouped-topk rn semantics
        "top_terms": (
            f"WITH toks AS ("
            f"  SELECT lang, unnest(regexp_extract_all(lower(coalesce(text, '')),"
            f" '[^{pys}]+')) AS term FROM documents"
            f"), counts AS ("
            f"  SELECT lang, term, count(*) AS n FROM toks"
            f"  WHERE term NOT IN ({stopwords}) GROUP BY lang, term)"
            f" SELECT lang, term, n FROM ("
            f"  SELECT *, row_number() OVER ("
            f"    PARTITION BY lang ORDER BY n DESC, term) AS rn"
            f"  FROM counts) WHERE rn <= 5"
        ),
        # grouped LIMIT: rn semantics mirror grouped_topk exactly
        # (DESC NULLS LAST, doc_id tie, NULL lang = one partition)
        "top_docs_per_lang": (
            "SELECT lang, doc_id, n_chars FROM ("
            "  SELECT lang, doc_id, n_chars, row_number() OVER ("
            "    PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn"
            "  FROM documents) WHERE rn <= 3"
        ),
        "distinct_ratio": (
            "SELECT 1.0 - count(DISTINCT lang) / CAST(count(*) AS DOUBLE) AS distinct_ratio FROM documents"
        ),
        "type_score": (
            f"SELECT avg(CASE WHEN {type_match} THEN 1.0 ELSE 0.0 END) AS type_score FROM documents"
        ),
        "stats_minmax": (
            PAGES_CTE
            + "SELECT lang, min(url) AS url_min, max(url) AS url_max, count(*) AS n "
            "FROM pages WHERE url IS NOT NULL GROUP BY lang"
        ),
        "filter_nonempty": (
            PAGES_CTE + "SELECT url, lang FROM pages WHERE url IS NOT NULL AND text <> ''"
        ),
        "events_by_type": (
            "SELECT event_type, round(sum(value), 2) AS sum_value, count(*) AS n "
            "FROM events GROUP BY event_type"
        ),
        "broadcast_join": (
            "SELECT c.c_mktsegment, round(sum(e.value), 2) AS sum_value, count(*) AS n "
            "FROM events e JOIN customer c ON e.user_id = c.c_custkey "
            "GROUP BY c.c_mktsegment"
        ),
        "lineitem_pricing": (
            "SELECT l_returnflag, l_linestatus, round(sum(l_quantity), 2) AS sum_qty, "
            "round(sum(l_extendedprice * (1.0 - l_discount)), 2) AS sum_revenue, count(*) AS n "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus"
        ),
        "price_quantiles": (
            "SELECT round(quantile_disc(l_extendedprice, 0.25), 2) AS q25, "
            "round(quantile_disc(l_extendedprice, 0.50), 2) AS q50, "
            "round(quantile_disc(l_extendedprice, 0.75), 2) AS q75 FROM lineitem"
        ),
        "length_quantiles_per_lang": (
            "SELECT lang, quantile_disc(n_chars, 0.5) AS p50, "
            "quantile_disc(n_chars, 0.9) AS p90 FROM documents GROUP BY lang"
        ),
        "salted_lang_counts": "SELECT lang, count(*) AS n FROM documents GROUP BY lang",
        # NULL-ts events are explicitly unmatched: the engine applies
        # SQL predicate semantics (NULL >= x is never true), while
        # DuckDB's sort-based ASOF orders NULL last and would match it
        # to the key's LATEST order -- the CASE pins the declared
        # semantics so the oracle doesn't inherit that quirk.
        "asof_join": (
            "WITH o AS (SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey "
            "FROM orders GROUP BY 1, 2) "
            "SELECT e.event_id, "
            "CASE WHEN e.ts IS NULL THEN NULL ELSE o.o_orderkey END AS o_orderkey "
            "FROM events e "
            "ASOF LEFT JOIN o ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate"
        ),
        "range_join": (
            "WITH iv(lo, hi, band) AS (VALUES (0.0, 10.0, 'low'), (10.0, 100.0, 'mid'), "
            "(100.0, 1000000000.0, 'high')) "
            "SELECT e.event_id, iv.band FROM events e "
            "LEFT JOIN iv ON e.value >= iv.lo AND e.value < iv.hi"
        ),
        "sessions_per_user": (
            "WITH g AS (SELECT user_id, ts, CASE WHEN lag(ts) OVER w IS NULL "
            "OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk "
            "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)) "
            "SELECT user_id, CAST(sum(brk) AS BIGINT) AS n_sessions, count(*) AS n_events "
            "FROM g GROUP BY user_id"
        ),
        "tumbling_hourly": (
            "SELECT CAST(epoch(time_bucket(INTERVAL 1 HOUR, ts)) AS BIGINT) AS window_start, count(*) AS n, "
            "round(sum(value), 2) AS sum_value FROM events GROUP BY 1"
        ),
        "quality_filter": (
            "SELECT doc_id FROM documents WHERE "
            f"{n_tokens} >= 20 AND "
            f"CASE WHEN {n_chars} > 0 THEN {n_alpha} / CAST({n_chars} AS DOUBLE) ELSE 0.0 END >= 0.7 AND "
            f"{n_stop} / CAST({n_tokens} AS DOUBLE) >= 0.02"
        ),
        "pruned_scan": PAGES_CTE + "SELECT url, text, lang FROM pages WHERE lang = 'zh'",
        "minhash_pairs": minhash_pairs,
        "simhash_pairs": simhash_pairs,
        "lang_id": lang_id_sql,
        # csv_ingest: GOLDEN expectation for the deterministic fixture
        # files _q_csv_ingest builds -- pins dialect detection
        # (semicolon w/ quoted delimiter), vertical-layout transposition
        # (Key/Value blocks), formula sanitization ('=1+1 -> ''=1+1) and
        # schema union with null fill. Independently re-derivable from
        # the reference parser (tests/test_csv_ingest.py parity fuzz).
        "csv_ingest": (
            "SELECT * FROM (VALUES "
            "('1', 'Lisbon', '2023-10-01', '100,5', NULL, NULL, NULL), "
            "('2', 'Paris; TX', '2023-10-02', '200', NULL, NULL, NULL), "
            "(NULL, NULL, NULL, NULL, 'Value', '''=1+1', '30'), "
            "(NULL, NULL, NULL, NULL, 'Value', 'Bob', '25')"
            ") AS t(id, location, event_date, amount, \"Key\", \"Name\", \"Age\")"
        ),
        # the flagship's final table holds exactly the MERGE row set
        # (compaction and clustering rewrite files, never rows) -- the
        # LWW oracle therefore verifies the whole pipeline end-to-end
        "maintenance_full": merged_scan,
        # html derivation is unescaped text inside fixed tags (PAGES_CTE),
        # so tag-strip + ws-collapse + trim is exactly mirrorable; the
        # corpus is ASCII with no entities (checked), so Python
        # html.unescape and unicode \s are identities here
        # ws-collapse with the Python \s class (engine collapses \s+,
        # RE2's own \s is ASCII-only) and trim over the CPython strip set
        "html_extract": (
            PAGES_CTE
            + "SELECT url, trim(regexp_replace(regexp_replace("
            "'<html><body>' || coalesce(text, '') || '</body></html>', "
            f"'<[^>]+>', ' ', 'g'), '[{pys}]+', ' ', 'g'), '{ws}') AS extracted_text, "
            "CAST(NULL AS VARCHAR) AS decode_error FROM pages"
        ),
        # full SQL re-derivation of rolling-hash winnowing (Schleimer et
        # al. 2003; engine/fingerprint.py with k=5, w=4): UTF-8 bytes
        # via hex(encode(...)), the Rabin-Karp recurrence in HUGEINT
        # with an explicit mod 2^64 per multiply-add (each partial
        # < 2^84, inside HUGEINT range), rightmost-argmin winnowing
        # windows, xor-fold over the distinct selected hashes. An
        # independent implementation, not a golden dump.
        "fingerprint": """
        WITH raw AS (
          SELECT doc_id, hex(encode(text)) AS hx, octet_length(encode(text)) AS n
          FROM documents
        ),
        bytes AS (
          SELECT doc_id, n,
            list_transform(range(0, n), i ->
              CAST(strpos('0123456789ABCDEF', substr(hx, 2*i+1, 1)) - 1 AS HUGEINT) * 16 +
              (strpos('0123456789ABCDEF', substr(hx, 2*i+2, 1)) - 1)
            ) AS b
          FROM raw
        ),
        hashes AS (
          SELECT doc_id, n,
            CASE WHEN n >= 5 THEN
              list_transform(range(0, n-4), p ->
                (((((((b[p+1]*1000003 + b[p+2]) % 18446744073709551616)*1000003
                  + b[p+3]) % 18446744073709551616)*1000003
                  + b[p+4]) % 18446744073709551616)*1000003
                  + b[p+5]) % 18446744073709551616
              )
            ELSE CAST([] AS HUGEINT[]) END AS h
          FROM bytes
        ),
        winnowed AS (
          SELECT doc_id, n,
            CASE
              WHEN len(h) = 0 THEN CAST([] AS HUGEINT[])
              WHEN len(h) <= 4 THEN [list_min(h)]
              ELSE list_transform(range(1, len(h)-2), s ->
                h[s + CASE WHEN h[s+3] <= least(h[s],h[s+1],h[s+2]) THEN 3
                           WHEN h[s+2] <= least(h[s],h[s+1]) THEN 2
                           WHEN h[s+1] <= h[s] THEN 1 ELSE 0 END]
              )
            END AS fps
          FROM hashes
        )
        SELECT doc_id,
          CASE WHEN len(fps) = 0 THEN 0
               ELSE list_aggregate(list_transform(list_distinct(fps),
                      v -> CAST((v*1000003 + 1) % 18446744073709551616 AS UBIGINT)), 'bit_xor')
          END AS fingerprint,
          greatest(n - 4, CAST(0 AS BIGINT)) AS n_grams
        FROM winnowed
        """,
    }
