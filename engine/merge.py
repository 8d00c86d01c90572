"""Hash-partitioned MERGE INTO (the engine's only join shape, SURVEY 2.4).

Semantics re-expressed from the reference's ``_group_records_by_id``
(``/root/reference/backend/app/services/csv_handler.py:66-97``):

- rows whose merge key is NULL/empty pass through un-merged (``:81-84``)
- the first row of a key anchors the output; later rows overwrite each
  field **only with non-empty values** (``:91-95``); the key itself is
  never overwritten (``:92-93``)
- "later" in the reference is positional row order; the engine orders by
  ``warc_ts`` (last-writer-wins), per BASELINE.json north_star.

Equivalently, per key and per column::

    result[col] = value-at-max-ts among rows where col is non-empty,
                  else value-at-min-ts  (the anchor's value, possibly empty)

Execution (Ray-Data-first, single pass over the input): ONE
:func:`engine.exchange.bucketed` exchange over ``hash64(key) % B``
(B ~ 2-4x cluster cores; at 10^12 rows B is thousands -- each bucket
must fit one worker's heap, which is the documented partitioning
assumption of this operator), then ONE Arrow fold per bucket
(:func:`merge_fold_passthrough_arrow`: a (key, ts) sort plus numpy
segment picks), NOT one Python call per key. NULL/empty-key rows ride
the same exchange, spread round-robin (:func:`_merge_hashes`) instead
of split into a second branch that would re-scan the input, and the
fold passes them through unmerged.

Skew: the key is ``url`` (high cardinality), so bucket skew is
statistical, not semantic; hot buckets are bounded by raising B
(config.merge_buckets). This is the "salt hot keys" knob for MERGE.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from engine.exchange import bucketed


def _is_missing_key(arr: pa.Array):
    return pc.or_kleene(pc.is_null(arr), pc.equal(pc.cast(arr, pa.string()), ""))


#: null ts = oldest writer (CLAUDE.md merge invariant): maps to INT64_MIN
TS_I64_MIN = int(np.iinfo(np.int64).min)


def _parse_ts_strings(arr):
    """ISO-8601 string column -> timestamp array. Tries us, then ns
    (sub-us fractions), then the UTC-zoned variants (zone offsets) --
    homogeneous columns in any of these forms parse, matching the
    ``pd.to_datetime`` lenience of the pre-unification stream path.
    Mixed zoned/zoneless columns fail here exactly as they did there.
    """
    last = None
    for typ in (
        pa.timestamp("us"),
        pa.timestamp("ns"),
        pa.timestamp("us", tz="UTC"),
        pa.timestamp("ns", tz="UTC"),
    ):
        try:
            return pc.cast(arr, typ)
        except pa.ArrowInvalid as e:
            last = e
    raise TypeError(f"merge ts strings are not parseable ISO-8601 timestamps: {last}")


def ts_i64_arrow(arr):
    """Arrow ts column -> canonical int64 (MICROSECONDS for timestamps,
    raw int64 otherwise); null -> INT64_MIN (oldest writer).

    This is the ONE ts->int64 path of the streaming-upsert index, used
    by both its live ``upsert`` and its ``rebuild_from_table`` recovery:
    pandas ``astype("datetime64[us]")`` FLOORS while
    ``pc.cast(safe=False)`` truncates toward zero, so for pre-epoch
    values with sub-us remainders (-1500ns -> -2 vs -1) two code paths
    would disagree by 1us and a recovered index would mis-rank the next
    upsert (ADVICE r3).

    Accepts timestamp, integer, or ISO-8601 string columns (strings
    parse through Arrow's string->timestamp cast, trying us -> ns ->
    zoned variants so sub-us fractions and zone offsets -- which the
    old stream path's ``pd.to_datetime`` accepted -- still parse;
    sub-us then truncates toward zero like every other path here);
    anything else raises a TypeError naming the column type instead of
    surfacing as a cryptic mid-pipeline ArrowInvalid.
    """
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        arr = _parse_ts_strings(arr)
        t = arr.type
    if pa.types.is_timestamp(t):
        arr = pc.cast(arr, pa.timestamp("us", tz=t.tz), safe=False)
    elif not pa.types.is_integer(t):
        raise TypeError(
            f"merge ts column must be timestamp, integer, or ISO-8601 "
            f"string (got {t})"
        )
    return pc.fill_null(pc.cast(arr, pa.int64()), TS_I64_MIN)


def _merge_hashes(t: pa.Table, key: str) -> np.ndarray:
    """MERGE's bucket hash: ``hash64_keys(key)``, except that NULL/empty
    keys (the passthrough rows) get 0, 1, 2, ..., which the exchange's
    modulo spreads round-robin so no bucket becomes a null hotspot."""
    from engine.dedup import hash64_keys

    col = t.column(key)
    h = hash64_keys(col)
    missing = _is_missing_key(col.combine_chunks()).to_numpy(zero_copy_only=False)
    if missing.any():
        h = h.copy()
        h[missing] = np.arange(missing.sum(), dtype=np.uint64)
    return h


def _is_textual(t: pa.DataType) -> bool:
    return (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
    )


def merge_fold_arrow(t: pa.Table, key: str, ts: str) -> pa.Table:
    """Vectorized LWW + non-empty-coalesce fold as Arrow kernels + O(n)
    numpy segment passes -- no pandas frame, no object-dtype round trip.

    Same semantics as the pandas oracle ``merge_fold`` in
    ``tests/merge_oracle.py`` (parity-fuzzed in tests/test_merge.py): sort by
    (key, ts) stable with null ts first (pandas sorts by ts alone, but
    per-key relative order -- which is all the fold reads -- is
    identical); per key and column take the LAST non-missing value
    ("missing" = null, plus ""/b"" for string/binary columns, reference
    csv_handler.py:91-95) else the anchor row's literal value. Output
    types are the INPUT Arrow types: the pandas path nulls-upcast
    int->float64 (a uint64 through a 53-bit mantissa), this path
    cannot. One DELIBERATE divergence: float NaN is a VALID value here
    (Arrow/SQL semantics -- ``pc.is_null`` is false for NaN) while the
    pandas oracle cannot represent it and coalesces past it; this fold
    defines the engine contract.

    Assumes ``key`` has no nulls/empties (callers split passthrough
    rows first -- :func:`merge_fold_passthrough_arrow`).
    """
    if len(t) == 0:
        return t
    idx_np, starts, keys_sorted = _fold_plan(t, key, ts)
    cols = {}
    for name in t.column_names:
        if name == key:
            cols[name] = keys_sorted.take(pa.array(starts))
            continue
        arr = t.column(name).combine_chunks()
        cols[name] = arr.take(pa.array(_winner_pick(arr, idx_np, starts)))
    return pa.table(cols, schema=t.schema)


def _fold_plan(t: pa.Table, key: str, ts: str):
    """(idx_np, starts, keys_sorted) for the (key, ts)-stable-sorted
    segment layout the fold reads. The sorted table is never
    materialized (a full-width gather of the whole bucket, html payload
    included): group boundaries need only the sorted KEY column;
    per-column missing-masks are computed on the UNSORTED arrays and
    permuted as numpy bools; the one full-width gather that remains is
    of the ~1/D winner rows."""
    idx = pc.sort_indices(
        t.select([key, ts]),
        sort_keys=[(key, "ascending"), (ts, "ascending")],
        null_placement="at_start",
    )
    idx_np = idx.to_numpy()
    keys_sorted = t.column(key).take(idx).combine_chunks()
    codes = pc.dictionary_encode(keys_sorted).indices.to_numpy()
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    return idx_np, starts, keys_sorted


def _winner_pick(arr, idx_np: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Original-coordinates winner row per group for one value column:
    last non-missing in (key, ts) order, else the anchor row."""
    missing = pc.is_null(arr)
    if _is_textual(arr.type):
        missing = pc.or_(missing, pc.equal(pc.binary_length(arr), 0))
    ok = pc.fill_null(pc.invert(missing), False).to_numpy(zero_copy_only=False)
    cand = np.where(ok[idx_np], np.arange(len(idx_np), dtype=np.int64), np.int64(-1))
    last = np.maximum.reduceat(cand, starts)
    return idx_np[np.where(last >= 0, last, starts)]


def merge_fold_passthrough_arrow(t: pa.Table, key: str, ts: str) -> pa.Table:
    """The per-bucket merge fold: NULL/empty-key rows pass through
    unmerged, everything else folds (:func:`merge_fold_arrow`)."""
    null_mask = _is_missing_key(t.column(key))
    passthrough = t.filter(null_mask)
    merged = merge_fold_arrow(t.filter(pc.invert(null_mask)), key, ts)
    if len(passthrough) == 0:
        return merged
    return pa.concat_tables([merged, passthrough])


def merge_datasets(
    ds,
    key: str = "url",
    ts: str = "warc_ts",
    num_buckets: int = 64,
):
    """MERGE INTO over a Dataset: one surviving row per non-null key,
    NULL/empty-key rows passed through unmerged. Output is unordered
    (row-set semantics, SURVEY 2.6 O3).

    Single-pass: NULL/empty-key rows are NOT split into a second branch
    (that would re-scan the input); they ride the same shuffle spread
    round-robin over buckets and the per-bucket fold passes them
    through untouched."""

    def fold(t: pa.Table) -> pa.Table:
        # looked up at call time: tracing rebinds it by name
        return merge_fold_passthrough_arrow(t, key, ts)

    return bucketed(
        ds,
        partial(_merge_hashes, key=key),
        fold,
        num_buckets=num_buckets,
        batch_format="pyarrow",
    )
