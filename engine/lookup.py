"""Broadcast lookups / joins (J1, SURVEY 2.4).

The reference's only lookup is a point metadata fetch by id
(``file_repository.py:121-123``); the engine generalizes it to the
broadcast-small-side join: the dimension table is ``ray.put`` ONCE and
every map task reads it zero-copy from the local object store -- no
shuffle of the fact side, ever. This is the correct join shape whenever
one side fits in a node's memory (dimension tables, vocab, blocklists);
both-sides-large joins go through hash bucketing instead (see
engine.merge for the engine's one such shape).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def broadcast_join(
    ds,
    dim_df: pd.DataFrame,
    left_on: str,
    right_on: str,
    columns: Optional[list] = None,
    how: str = "inner",
):
    """Join a (large) Dataset against a (small) pandas dimension table.

    ``dim_df`` is broadcast once; each batch does a C-speed
    ``pd.merge``. ``columns`` restricts which dimension columns are
    attached. how='inner' drops unmatched fact rows; 'left' keeps them
    with nulls.
    """
    dim = dim_df if columns is None else dim_df[[right_on] + [c for c in columns if c != right_on]]
    dim_ref = ray.put(dim)

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        d = ray.get(dim_ref)
        return df.merge(d, how=how, left_on=left_on, right_on=right_on)

    return ds.map_batches(attach, batch_format="pandas")


def range_join(
    ds,
    intervals: pd.DataFrame,
    value_col: str,
    lo_col: str,
    hi_col: str,
    attach: Optional[list] = None,
):
    """Interval (range) join: attach the interval containing each row's
    value (``lo <= v < hi``). The interval table is broadcast sorted;
    each batch does ONE vectorized ``np.searchsorted`` -- no shuffle,
    O(log n_intervals) per row. Intervals must be non-overlapping;
    values outside every interval get nulls (left-join semantics).
    """
    iv = intervals.sort_values(lo_col).reset_index(drop=True)
    attach = attach if attach is not None else [c for c in iv.columns]
    # NO exemptions: an attach column named like value_col would
    # silently overwrite the fact's own value column (and NULL it on
    # unmatched rows) instead of raising like every other collision
    clash = set(attach) & set(ds.schema().names)
    if clash:
        raise ValueError(
            f"range_join attach columns collide with fact columns: {sorted(clash)}"
        )
    iv_ref = ray.put(iv[sorted(set(attach) | {lo_col, hi_col})])

    def join(df: pd.DataFrame) -> pd.DataFrame:
        table = ray.get(iv_ref)
        out = df.copy()
        if len(table) == 0:  # empty interval set -> all-null left join
            for c in attach:
                out[c] = None
            return out
        lows = table[lo_col].to_numpy()
        highs = table[hi_col].to_numpy()
        v = df[value_col].to_numpy()
        pos = np.searchsorted(lows, v, side="right") - 1
        valid = (pos >= 0) & (v < highs[np.clip(pos, 0, len(highs) - 1)])
        for c in attach:
            vals = table[c].to_numpy()[np.clip(pos, 0, len(table) - 1)]
            col = pd.Series(vals, index=df.index)
            out[c] = col.where(pd.Series(valid, index=df.index))
        return out

    return ds.map_batches(join, batch_format="pandas")


def _canon_keys(values) -> pd.Series:
    """Canonical string form shared by Bloom build and probe sides:
    floats that are integral render as ints (pandas null-upcast makes
    key 1 arrive as 1.0 on one side and 1 on the other), NULLs map to
    None (callers exclude them -- NULL never matches). A divergent
    representation between the sides would create FALSE negatives,
    which a Bloom filter must never produce.

    Numeric key columns format through vectorized numpy int64/float
    formatting with an integral-float mask (round-4 VERDICT #3 -- the
    scalar ``canon`` closure survived only here); mixed / string-typed
    / exotic dtypes keep the per-row fallback, whose output this path
    matches exactly (pinned by the parity test)."""
    s = pd.Series(list(values), dtype=object)
    na = s.isna().to_numpy()
    ok = ~na
    kind = pd.api.types.infer_dtype(s, skipna=True)
    out = np.empty(len(s), dtype=object)
    out[na] = None
    if kind == "integer":
        try:
            ints = s.to_numpy()[ok].astype(np.int64)
        except (OverflowError, TypeError, ValueError):
            ints = None  # bignum beyond int64 -> scalar fallback
        if ints is not None:
            out[ok] = ints.astype(str)
            return pd.Series(out, index=s.index, dtype=object)
    if kind in ("floating", "mixed-integer-float", "empty"):
        f = s.to_numpy()[ok].astype(np.float64)
        if kind == "mixed-integer-float" and len(f) and np.abs(f).max() >= float(2**53):
            # a Python INT above 2^53 in a mixed batch would round
            # through float64 and canonicalize differently than the
            # same key in a pure-int batch on the other side -- the
            # cross-side divergence this function exists to prevent
            # (review finding, reproduced: 2^53+1 -> '...992' vs
            # '...993'). Rare magnitude: take the scalar path.
            f = None
        if f is not None:
            integral = (f == np.floor(f)) & (np.abs(f) < float(2**63))
            vals = np.empty(len(f), dtype=object)
            vals[integral] = f[integral].astype(np.int64).astype(str)
            rest = ~integral
            # numpy shortest-round-trip repr == str(float) for finite values
            vals[rest] = f[rest].astype(str)
            # integral floats >= 2^63 (1e300, ...): str(int(v)) like the
            # scalar path -- O(#huge) only
            huge = rest & np.isfinite(f) & (f == np.floor(f))
            if huge.any():
                vals[huge] = np.array([str(int(v)) for v in f[huge]], dtype=object)
            out[ok] = vals
            return pd.Series(out, index=s.index, dtype=object)

    def canon(v):
        if isinstance(v, np.floating):
            # widened like the vectorized path (float32 1.1 ->
            # '1.100000023841858'), the value SQL compares with float64
            v = float(v)
        if v is None or (isinstance(v, float) and np.isnan(v)):
            return None
        if isinstance(v, float) and v.is_integer():
            return str(int(v))
        return str(v)

    return s.map(canon)


def _bloom_positions(canon, num_bits: int, num_hashes: int):
    """(n, k) probe positions via double hashing of the canonical keys
    (``hash64_strings`` on the Arrow buffer: pure content hash, stable
    across processes, zero per-row Python; numpy mixing). ``canon`` is
    a null-free Arrow string array or a pandas Series of canonical
    strings -- build and probe sides both come through HERE, so
    membership stays consistent."""
    from engine.dedup import hash64_strings

    if isinstance(canon, pd.Series):
        canon = pa.array(canon, pa.string())
    h1 = hash64_strings(canon)
    h2 = (
        (h1 ^ (h1 >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
    ) | np.uint64(1)
    i = np.arange(num_hashes, dtype=np.uint64)[None, :]
    with np.errstate(over="ignore"):
        return ((h1[:, None] + i * h2[:, None]) % np.uint64(num_bits)).astype(np.int64)


def make_bloom(keys, num_bits: int = 1 << 20, num_hashes: int = 4) -> np.ndarray:
    """Deterministic Bloom filter (packed bit array) over a key set --
    the broadcastable semi-join filter when the exact key set is too
    large to ship (SURVEY 2.4 'semi/anti join: broadcast a Bloom filter
    of the key set'). False-positive rate ~ (1-e^(-kn/m))^k; zero false
    negatives (canonical key representation on both sides)."""
    canon = _canon_keys(keys).dropna()
    bits = np.zeros(num_bits // 8 + 1, dtype=np.uint8)
    if len(canon):
        pos = _bloom_positions(canon, num_bits, num_hashes).ravel()
        np.bitwise_or.at(bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8))
    return bits


def bloom_semi_join(ds, keys, col: str, num_bits: int = 1 << 20, num_hashes: int = 4):
    """Approximate semi-join: keeps all true members plus ~FP-rate
    stragglers (callers needing exactness chain an exact filter after;
    the Bloom pass eliminates ~99.9%+ of rows first). NULL rows never
    match."""
    bits_ref = ray.put(make_bloom(keys, num_bits, num_hashes))

    def filt(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        bits = ray.get(bits_ref)
        arr = t.column(col).combine_chunks()
        if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
            # canonicalization is IDENTITY for strings: probe the Arrow
            # column directly, no to_pylist / per-row Python
            ok = pc.is_valid(arr).to_numpy(zero_copy_only=False)
            valid = arr.drop_null()
        else:
            canon = _canon_keys(arr.to_pylist())
            ok = canon.notna().to_numpy()
            valid = canon[ok]
        mask = np.zeros(len(arr), dtype=bool)
        if ok.any():
            pos = _bloom_positions(valid, num_bits, num_hashes)
            hit = ((bits[pos >> 3] >> (pos & 7)) & 1).all(axis=1)
            mask[np.flatnonzero(ok)] = hit
        return t.filter(pa.array(mask))

    return ds.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)


def broadcast_semi_join(ds, keys, col: str, anti: bool = False):
    """Keep (or drop, anti=True) rows whose ``col`` is in the broadcast
    key set -- the reference's admission filter generalized (M5)."""
    key_ref = ray.put(np.asarray(list(keys)))

    def filt(t: pa.Table) -> pa.Table:
        arr = t.column(col).to_numpy(zero_copy_only=False)
        mask = np.isin(arr, ray.get(key_ref))
        if anti:
            mask = ~mask
        return t.filter(pa.array(mask))

    return ds.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)
