"""Partial+final aggregation combinators (A2/A3/A4, SURVEY 2.5) and the
distributed versions of the reference's sample aggregates.

The pattern: ``map_batches`` emits one tiny partial row per batch
(counts, counters, (matched, total) pairs), a ``groupby``/driver step
folds the partials. Rows shuffled = O(batches), not O(rows).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from engine.exchange import bucketed
from engine.infer import ALPHA


def pattern_score_distributed(ds, width_col: str) -> float:
    """A2 at scale: P = (1/K) * sum_k N_k * max(alpha, L_k-1)/L_k over
    the global row-width histogram, computed as per-batch value_counts ->
    groupby(width).sum (the histogram is tiny: K distinct widths)."""

    def partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t.column(width_col).combine_chunks())
        return pa.table(
            {
                "width": vc.field("values").cast(pa.int64()),
                "n": vc.field("counts").cast(pa.int64()),
            }
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("width")
        .sum("n")
        .to_pandas()
    )
    if hist.empty:
        return 0.0
    # zero-width rows raise ZeroDivisionError like infer.pattern_score
    # (reference parity: a blank row disqualifies the candidate)
    widths = hist["width"].to_numpy()
    if (widths == 0).any():
        raise ZeroDivisionError("division by zero")
    score = float(
        (hist["sum(n)"].to_numpy() * np.maximum(ALPHA, widths - 1) / widths).sum()
    )
    return score / len(hist)


def null_safe_key(arr):
    """The ONE null-safe composite-key encode shared by every grouped
    aggregate (group_count_null_safe, grouped_sum_count,
    skew.salted_group_count, the stats_minmax query): Ray's sort-based
    groupby cannot compare ``None``, so NULL keys are encoded as
    ``(type-zero fill, __isnull=1)`` -- collision-free (a genuine
    ""/0/epoch key has ``__isnull=0``) and single-typed. Arrow-side on
    purpose: a pandas ``fillna`` path floats int64 keys in any
    null-bearing batch, silently rounding values beyond 2^53 and
    splitting one key into two groups (e.g. microsecond window labels).
    Returns ``(filled_key_array, isnull_int64_array)``."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    kt = arr.type
    if pa.types.is_null(kt):
        # a typeless all-NULL column (e.g. from_pandas of all-None
        # object): one NULL group, int64 zero fill
        z = pa.array(np.zeros(len(arr), dtype=np.int64))
        return z, pa.array(np.ones(len(arr), dtype=np.int64))
    if pa.types.is_string(kt) or pa.types.is_large_string(kt):
        fill = pa.scalar("", type=kt)
    elif pa.types.is_binary(kt) or pa.types.is_large_binary(kt):
        fill = pa.scalar(b"", type=kt)
    else:
        fill = pa.scalar(0, type=kt)  # int / float / timestamp / duration
    return pc.fill_null(arr, fill), pc.is_null(arr).cast(pa.int64())


def restore_null_key(agg: pd.DataFrame, col: str) -> pd.DataFrame:
    """Invert :func:`null_safe_key` on a (tiny) final frame: rows with
    ``__isnull == 1`` get their key set back to None. When a NULL group
    exists the key column goes through object dtype, NOT float -- a
    float round-trip would corrupt int64 keys beyond 2^53."""
    if (agg["__isnull"] != 0).any():
        agg[col] = agg[col].astype(object).where(agg["__isnull"] == 0, other=None)
    return agg.drop(columns="__isnull")


def _count_partial(col: str):
    """The ONE per-batch null-safe grouped-count combiner shared by the
    Dataset and driver grouped-count paths (they differ only in how the
    NULL key is restored)."""

    def partial(t: pa.Table) -> pa.Table:
        filled, isnull = null_safe_key(t.column(col))
        comp = pa.table({col: filled, "__isnull": isnull})
        return comp.group_by([col, "__isnull"]).aggregate([([], "count_all")])

    return partial


def group_count_null_safe(ds, col: str, out_col: str = "n") -> pd.DataFrame:
    """Driver-side grouped count for low-cardinality keys (langs, event
    types): one pandas frame. The NULL key is NOT restored Arrow-side
    before the fetch -- a NULL-bearing int64 key column would float
    through the driver ``to_pandas`` (2^53 corruption); the composite
    rides to the driver and ``restore_null_key`` restores through
    object dtype instead."""
    parts = ds.map_batches(
        _count_partial(col), batch_format="pyarrow", zero_copy_batch=True
    )
    agg = parts.groupby([col, "__isnull"]).sum("count_all").to_pandas()
    if col not in agg.columns:  # empty input: Ray drops empty blocks
        return pd.DataFrame({col: pd.Series(dtype=object), out_col: pd.Series(dtype="int64")})
    agg = restore_null_key(agg, col)
    return pd.DataFrame({col: agg[col], out_col: agg["sum(count_all)"].astype("int64")})


def _topk_table(
    t: pa.Table,
    key: str,
    order_col: str,
    k: int,
    tie_cols: tuple[str, ...],
    descending: bool,
) -> pa.Table:
    """Per-key top-k of ONE Arrow table, vectorized end-to-end: sort by
    (null-safe key, order_col, *tie_cols), then keep the first k rows of
    every key run via numpy run-boundary arithmetic -- no per-group
    Python, key bytes never become PyObjects (a pandas path would float
    null-bearing int64 keys, CLAUDE.md invariant). Semantics = SQL
    ``row_number() OVER (PARTITION BY key ORDER BY order_col
    [DESC] NULLS LAST, tie_cols ASC NULLS LAST) <= k`` with NULL keys
    forming one partition (DuckDB's default null order is NULLS LAST
    in both directions)."""
    if t.num_rows == 0:
        return t
    filled, isnull = null_safe_key(t.column(key))
    tmp = t.append_column("__k", filled).append_column("__n", isnull)
    order = "descending" if descending else "ascending"
    sort_keys = [("__n", "ascending"), ("__k", "ascending"), (order_col, order)]
    sort_keys += [(c, "ascending") for c in tie_cols]
    idx = pc.sort_indices(tmp, sort_keys=sort_keys, null_placement="at_end")
    idx_np = idx.to_numpy(zero_copy_only=False)
    skey = pc.take(filled, idx)
    if isinstance(skey, pa.ChunkedArray):
        skey = skey.combine_chunks()
    codes = pc.dictionary_encode(skey)
    if isinstance(codes, pa.ChunkedArray):
        codes = codes.combine_chunks()
    codes = codes.indices.to_numpy(zero_copy_only=False)
    snull = pc.take(isnull, idx).to_numpy(zero_copy_only=False)
    change = np.empty(len(codes), dtype=bool)
    change[0] = True
    change[1:] = (codes[1:] != codes[:-1]) | (snull[1:] != snull[:-1])
    starts = np.flatnonzero(change)
    seg = np.cumsum(change) - 1
    rank = np.arange(len(codes), dtype=np.int64) - starts[seg]
    return t.take(pa.array(idx_np[rank < k]))


def grouped_topk(
    ds,
    key: str,
    order_col: str,
    k: int,
    tie_cols: tuple[str, ...] = (),
    descending: bool = True,
    num_buckets: int = 64,
):
    """Distributed per-key top-k (grouped LIMIT): each batch first prunes
    to <= k rows per key it contains (the partial emits O(k x keys)
    rows, not O(rows)), then a key-hash bucketed exchange co-locates
    keys and one vectorized fold per coarse bucket finishes. Rows
    shuffled = O(k x distinct_keys x batches); the result streams out
    as a Dataset with the input schema. Deterministic iff
    (order_col, *tie_cols) is unique within a key -- pass a unique id
    as the last tie column."""
    tie_cols = tuple(tie_cols)

    def prune(t: pa.Table) -> pa.Table:
        return _topk_table(t, key, order_col, k, tie_cols, descending)

    # Ray's sort-based groupby consumes its LAZY upstream twice (sample
    # pass + sort pass) -- materializing the pruned partials (bounded at
    # O(k x keys x batches) rows by construction) makes the sampling hit
    # materialized blocks instead of re-running the whole upstream
    # (measured 2x the full input pipeline without this)
    pruned = ds.map_batches(prune, batch_format="pyarrow", zero_copy_batch=True).materialize()
    return bucketed(pruned, key, prune, num_buckets=num_buckets, batch_format="pyarrow")


def global_topk(ds, order_col: str, k: int, tie_cols: tuple[str, ...] = (),
                descending: bool = True):
    """Global ORDER BY ... LIMIT k without a driver-side sort or a full
    range-partition sort: every batch prunes to its own top-k (the
    partial), one final fold finishes -- the exchange moves O(k x
    batches) rows. Same NULLS LAST / tie semantics as grouped_topk."""
    tie_cols = tuple(tie_cols)

    def partial(t: pa.Table) -> pa.Table:
        return _topk_table(
            t.append_column("__g", pa.array(np.zeros(t.num_rows, dtype=np.int64))),
            "__g", order_col, k, tie_cols, descending,
        )

    # materialized for the same sample-pass reason as grouped_topk
    # (O(k x batches) rows)
    pruned = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def fold(t: pa.Table) -> pa.Table:
        return _topk_table(t, "__g", order_col, k, tie_cols, descending).drop_columns(["__g"])

    return bucketed(pruned, order_col, fold, num_buckets=1, batch_format="pyarrow")


def grouped_count_topk(ds, col: str, k: int, num_buckets: int = 64):
    """Global top-k ``(key, count(*))`` for HIGH-cardinality keys (urls,
    hashes): Ray's sort-based groupby would range-sort every partial by
    the STRING key; instead the per-batch Arrow count partials carry a
    64-bit key-hash bucket, the exchange sorts only that int64 column,
    each coarse bucket folds its partials with one Arrow group_by sum
    and emits ONLY its own top-k (buckets partition the key space, so
    every global top-k member is top-k within its bucket), and a final
    prune reduces B x k rows. Measured at 6 M rows / ~1.4 M distinct
    urls: 33.9 s (string-sort groupby) -> see BENCH/new_ops_*, one
    int-bucket exchange. NULL keys are one group (restored in the
    fold); ties break by key ascending, NULLS LAST."""
    # materialize: the bucket groupby's sample pass would otherwise
    # re-run the full count-partial pass over the input (the partials
    # are <= one row per distinct key per batch -- object-store-sized,
    # spillable, far cheaper than a second input pass)
    parts = ds.map_batches(
        _count_partial(col), batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def fold(t: pa.Table) -> pa.Table:
        g = t.group_by([col, "__isnull"]).aggregate([("count_all", "sum")])
        keyed = pc.if_else(
            pc.equal(g.column("__isnull"), 1),
            pa.scalar(None, type=g.schema.field(col).type),
            g.column(col),
        )
        counts = pa.table(
            {col: keyed, "n": g.column("count_all_sum").cast(pa.int64())}
        )
        counts = counts.append_column(
            "__g", pa.array(np.zeros(counts.num_rows, dtype=np.int64))
        )
        return _topk_table(counts, "__g", "n", k, (col,), True).drop_columns(["__g"])

    pruned = bucketed(parts, col, fold, num_buckets=num_buckets, batch_format="pyarrow")
    return global_topk(pruned, "n", k, tie_cols=(col,))


def grouped_sum_count(ds, key: str, value_col: str):
    """Pre-aggregated grouped sum+count: per-batch Arrow group_by emits
    one partial row per key per batch; the exchange then moves partials
    only (combiner before shuffle, SURVEY 4.2).

    SQL semantics throughout: NULL keys form ONE group (null_safe_key
    composite); ``n`` is ``count(*)`` (rows, not non-null values);
    ``sum`` skips NULL values, is NULL -- not 0 -- for an all-NULL
    group, and propagates NaN (a NaN is a value, like SQL)."""

    def partial(t: pa.Table) -> pa.Table:
        filled, isnull = null_safe_key(t.column(key))
        comp = pa.table({key: filled, "__isnull": isnull, "__v": t.column(value_col)})
        return comp.group_by([key, "__isnull"]).aggregate(
            [("__v", "sum"), ("__v", "count"), ([], "count_all")]
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = (
        partials.groupby([key, "__isnull"])
        .sum(["__v_sum", "__v_count", "count_all"])
        .to_pandas()
    )
    if key not in agg.columns:  # empty input: Ray drops empty blocks
        return pd.DataFrame(
            {
                key: pd.Series(dtype=object),
                "sum_value": pd.Series(dtype="float64"),
                "n": pd.Series(dtype="int64"),
            }
        )
    agg = restore_null_key(agg, key)
    return pd.DataFrame(
        {
            key: agg[key],
            "sum_value": agg["sum(__v_sum)"].where(agg["sum(__v_count)"] > 0, other=np.nan),
            "n": agg["sum(count_all)"].astype("int64"),
        }
    )
