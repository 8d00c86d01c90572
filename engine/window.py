"""Sessionization / windowed aggregates over an ordered event log
(SURVEY 2.9: the engine's generalization of the transposer's
session-window semantics to event streams).

Ray Data has no event-time windowing; the engine expresses it as:
hash-bucket the keys (NOT one group per key -- one vectorized fold per
bucket, same discipline as MERGE), sort each bucket's frame by
``(key, ts)`` in pandas, and compute windows with C-speed cumulative
kernels. Ordering assumption: all rows of one key land in one bucket
(guaranteed by the key hash); within the bucket pandas sorts them.

The exchange is :func:`engine.exchange.bucketed` with ``by=key``: every
NULL key hashes to one value, so the NULL group lands in ONE bucket and
sessionizes as one key group (SQL ``GROUP BY`` / ``PARTITION BY``).
MERGE's round-robin spread of null keys would split it per bucket.
Empty strings are a distinct ordinary key.

- :func:`session_stats`: per-key session count + event count. A new
  session starts when the gap to the previous event of the same key
  exceeds ``gap`` (``_sessionize_frame`` numbers them per key).
- :func:`tumbling_window_agg`: fixed-width event-time windows
  (``floor(ts / width)``) -- a pure map + grouped aggregate, no
  ordering needed.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from engine.exchange import bucketed


def _sessionize_frame(df: pd.DataFrame, key: str, ts: str, gap_us: int) -> pd.DataFrame:
    df = df.sort_values([key, ts], kind="stable")
    # normalize to MICROsecond epoch regardless of source unit: pandas
    # defaults to ns timestamps, and raw astype(int64) would compare ns
    # against gap_us (1000x off -> every event its own session)
    tcol = pd.to_datetime(df[ts])
    if getattr(tcol.dt, "tz", None) is not None:
        # tz-aware ts (timestamp[us, tz=...] parquet columns): normalize
        # to UTC-naive -- a direct astype raises TypeError
        tcol = tcol.dt.tz_convert("UTC").dt.tz_localize(None)
    t = tcol.astype("datetime64[us]").astype("int64")
    k = df[key]
    isna = k.isna()
    # null keys are ONE group: value != NaN compares True, so mask the
    # null->null continuation (sort_values puts nulls contiguous); a
    # plain dropna groupby left those rows out of the cumsum and the
    # aligned assignment filled NaN, upcasting session_seq to float64
    # only in blocks whose bucket happened to contain a null key
    new_key = (k != k.shift()) & ~(isna & isna.shift(fill_value=False))
    gap_break = (t - t.shift()) > gap_us
    df["session_seq"] = (
        (new_key | gap_break)
        .groupby(k.to_numpy(), dropna=False)
        .cumsum()
        .astype("int64")
        - 1
    )
    return df


def session_stats(ds, key: str = "user_id", ts: str = "ts", gap_seconds: float = 1800.0, num_buckets: int = 64):
    """Per-key session/event counts: ``(key, n_sessions, n_events)``.

    ONE shuffle: the aggregate is fused into the sessionize fold (all
    rows of a key are in the bucket already, so the per-bucket stats
    are final), and only ``(key, ts)`` ride the exchange."""
    gap_us = int(gap_seconds * 1_000_000)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = _sessionize_frame(df, key, ts, gap_us)
        g = df.groupby(key, dropna=False)["session_seq"].agg(["max", "size"]).reset_index()
        g["n_sessions"] = (g["max"] + 1).astype("int64")
        g["n_events"] = g["size"].astype("int64")
        return g[[key, "n_sessions", "n_events"]]

    return bucketed(
        ds.select_columns([key, ts]), key, fold, num_buckets=num_buckets, batch_format="pandas"
    )


def tumbling_window_agg(ds, ts: str = "ts", value: str = "value", width_seconds: float = 3600.0):
    """Events per fixed window: ``(window_start, n, sum_value)``.
    Stateless: window id is a vectorized map; the aggregate shuffles
    pre-combined partials only."""
    width_us = int(width_seconds * 1_000_000)

    def win(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = t.column(ts).cast(pa.timestamp("us")).cast(pa.int64())
        # NULL ts -> NULL window label (SQL: time_bucket(NULL) is NULL,
        # one group); fill-then-mask keeps the int64 floor arithmetic
        # exact (a numpy conversion with nulls floats the whole column)
        isnull = pc.is_null(col).to_numpy(zero_copy_only=False)
        tt = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
        # window start computed in MICROseconds (exact for fractional
        # widths -- an integer-seconds shortcut collapses sub-second
        # windows to 0), then labeled in epoch seconds when the width is
        # whole seconds (int labels hash identically everywhere) and in
        # epoch microseconds otherwise.
        start_us = (tt // width_us) * width_us
        if width_us % 1_000_000 == 0:
            label = start_us // 1_000_000
        else:
            label = start_us
        arr = pa.array(label, type=pa.int64())
        if isnull.any():
            arr = pc.if_else(pa.array(isnull), pa.scalar(None, pa.int64()), arr)
        return pa.table({"window_start": arr, value: t.column(value)})

    from engine.aggregates import grouped_sum_count

    out = grouped_sum_count(ds.map_batches(win, batch_format="pyarrow", zero_copy_batch=True), "window_start", value)
    return out
