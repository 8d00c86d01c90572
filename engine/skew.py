"""Explicit skew handling: heavy-key detection + salting (north_rule:
"skewed partitions (e.g., dominant lang values) are salted and split
explicitly"; SURVEY 4.2).

A partition key like ``lang`` is pathologically skewed on web data
(en ~ 60%). Any per-key stage (per-lang compaction bins, per-lang
aggregation, per-key windowing) that maps one key to one task turns the
dominant key into a straggler. The engine's pattern:

1. :func:`detect_heavy_keys` -- key -> row count via a cheap projected
   ``groupby().count()``;
2. :func:`add_salt` -- heavy keys get ``__salt = hash(row) % k`` so the
   downstream ``groupby([key, "__salt"])`` splits them into k
   sub-partitions; light keys keep ``__salt = 0``;
3. merge the per-salt partials (sum counts, min/max stats, concat
   files) -- salting only works for decomposable operations, which all
   the engine's maintenance aggregates are.

Compaction gets salting implicitly (bins are capped at target size, so
a dominant partition just yields more bins -- engine/compact.py); this
module provides it for grouped aggregations.
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import ray


def detect_heavy_keys(ds, col: str, threshold_rows: int) -> dict:
    """key -> count for keys above threshold (projected groupby: only
    the key column shuffles, pre-aggregated per block by Ray)."""
    counts = ds.select_columns([col]).groupby(col).count().to_pandas()
    heavy = counts[counts["count()"] > threshold_rows]
    return dict(zip(heavy[col], heavy["count()"]))


def add_salt(ds, col: str, heavy: dict, salt_buckets: int = 8):
    """Append ``__salt``: 0 for light keys, hash(row)%k for heavy ones."""
    heavy_ref = ray.put(set(heavy))

    def salt(t: pa.Table) -> pa.Table:
        keys = t.column(col).to_pandas()
        is_heavy = keys.isin(ray.get(heavy_ref)).to_numpy()
        salts = np.zeros(len(keys), dtype=np.int32)
        n_heavy = int(is_heavy.sum())
        if n_heavy:
            salts[is_heavy] = np.arange(n_heavy) % salt_buckets
        return t.append_column("__salt", pa.array(salts))

    return ds.map_batches(salt, batch_format="pyarrow", zero_copy_batch=True)


def salted_group_count(ds, col: str, threshold_rows: int = None, salt_buckets: int = None, cfg=None):
    """Grouped count with explicit salt-split of dominant keys:
    groupby([key, salt]) -> per-salt partials -> driver-side (tiny)
    final merge. Demonstrates the decomposable-aggregate pattern; the
    same shape applies to min/max/sum stats maintenance. Thresholds
    default from EngineConfig (salt_threshold_rows / salt_buckets)."""
    if cfg is None:
        from engine.config import EngineConfig

        cfg = EngineConfig()
    threshold_rows = threshold_rows if threshold_rows is not None else cfg.salt_threshold_rows
    salt_buckets = salt_buckets if salt_buckets is not None else cfg.salt_buckets

    # NULL-safe key encoding (Ray's sort-based groupby cannot compare
    # None): the shared null_safe_key composite; the fill value and NULL
    # may share a salt decision (harmless -- over-salting is correct)
    # but never a count group. SQL semantics: NULL is one group.
    from engine.aggregates import null_safe_key, restore_null_key

    def encode(t: pa.Table) -> pa.Table:
        filled, isnull = null_safe_key(t.column(col))
        return pa.table({col: filled, "__isnull": isnull})

    enc = ds.select_columns([col]).map_batches(
        encode, batch_format="pyarrow", zero_copy_batch=True
    )
    heavy = detect_heavy_keys(enc, col, threshold_rows)
    salted = add_salt(enc, col, heavy, salt_buckets)
    partials = salted.groupby([col, "__isnull", "__salt"]).count().to_pandas()
    if col not in partials.columns:  # empty input: Ray drops empty blocks
        import pandas as pd

        return pd.DataFrame({col: pd.Series(dtype=object), "n": pd.Series(dtype="int64")}), heavy
    out = partials.groupby([col, "__isnull"], as_index=False)["count()"].sum()
    out = restore_null_key(out, col)
    return out[[col, "count()"]].rename(columns={"count()": "n"}), heavy
