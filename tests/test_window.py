"""Session windows and tumbling windows over the events log."""

import datetime as dt

import pandas as pd
import pyarrow as pa
import ray.data

from engine.window import _sessionize_frame, session_stats, tumbling_window_agg


def _ts(minutes):
    return dt.datetime(2026, 1, 1) + dt.timedelta(minutes=minutes)


def _events():
    rows = [
        (1, _ts(0)), (1, _ts(10)), (1, _ts(100)), (1, _ts(105)),  # 2 sessions
        (2, _ts(5)),                                               # 1 session
        (3, _ts(0)), (3, _ts(31)), (3, _ts(62)),                   # 3 sessions (gap 30m strict)
    ]
    return pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        }
    )


def test_sessionize_frame_gap_rule():
    df = _events().to_pandas()
    out = _sessionize_frame(df, "user_id", "ts", gap_us=30 * 60 * 1_000_000)
    u1 = out[out.user_id == 1].session_seq.tolist()
    assert u1 == [0, 0, 1, 1]
    assert out[out.user_id == 2].session_seq.tolist() == [0]
    assert out[out.user_id == 3].session_seq.tolist() == [0, 1, 2]


def test_session_stats_distributed(ray_session):
    ds = ray.data.from_arrow(_events()).repartition(3)
    out = session_stats(ds, gap_seconds=1800.0, num_buckets=4).to_pandas().sort_values("user_id")
    assert out.n_sessions.tolist() == [2, 1, 3]
    assert out.n_events.tolist() == [4, 1, 3]


def test_sessionize_keys_not_split(ray_session):
    # rows of one key scattered over blocks still form correct sessions:
    # a key split across buckets would emit one partial row per bucket
    ds = ray.data.from_arrow(_events()).random_shuffle(seed=1).repartition(4)
    out = session_stats(ds, gap_seconds=1800.0, num_buckets=4).to_pandas()
    assert sorted(out.user_id.tolist()) == [1, 2, 3]
    out = out.sort_values("user_id")
    assert out.n_sessions.tolist() == [2, 1, 3]
    assert out.n_events.tolist() == [4, 1, 3]


def test_tumbling_window(ray_session):
    t = pa.table(
        {
            "ts": pa.array([_ts(0), _ts(30), _ts(61), _ts(200)], pa.timestamp("us")),
            "value": [1.0, 2.0, 3.0, 4.0],
        }
    )
    out = tumbling_window_agg(ray.data.from_arrow(t), width_seconds=3600.0)
    out = out.sort_values("window_start").reset_index(drop=True)
    assert out.n.tolist() == [2, 1, 1]
    assert out.sum_value.tolist() == [3.0, 3.0, 4.0]
    # window_start is epoch seconds aligned to the hour
    assert (out.window_start % 3600 == 0).all()


def test_tumbling_subsecond_width(ray_session):
    # regression: integer-seconds label math collapsed sub-second windows
    t = pa.table(
        {
            "ts": pa.array([_ts(0), _ts(0) + dt.timedelta(milliseconds=600)], pa.timestamp("us")),
            "value": [1.0, 2.0],
        }
    )
    out = tumbling_window_agg(ray.data.from_arrow(t), width_seconds=0.5)
    assert len(out) == 2  # two distinct 500ms windows


def test_sessionize_handles_ns_timestamps():
    # regression: ns-unit ts compared against gap in us split every
    # event into its own session
    df = _events().to_pandas()
    df["ts"] = df["ts"].astype("datetime64[ns]")
    out = _sessionize_frame(df, "user_id", "ts", gap_us=30 * 60 * 1_000_000)
    assert out[out.user_id == 1].session_seq.tolist() == [0, 0, 1, 1]


def test_sessionize_null_keys_one_group_int64(ray_session):
    """NULL keys are ONE key group (SQL GROUP BY/PARTITION BY), routed
    to a single bucket; session_seq stays int64 in every block (a
    dropna groupby used to emit NaN/float64 only in buckets containing
    a null key)."""
    t = pa.table(
        {
            "user_id": pa.array([None, None, None, "u7", "u7"], pa.string()),
            "ts": pa.array(
                [_ts(0), _ts(10), _ts(100), _ts(0), _ts(5)], pa.timestamp("us")
            ),
        }
    )
    frame = _sessionize_frame(t.to_pandas(), "user_id", "ts", gap_us=30 * 60 * 1_000_000)
    assert str(frame["session_seq"].dtype) == "int64"
    null_seq = frame[frame.user_id.isna()].sort_values("ts").session_seq.tolist()
    assert null_seq == [0, 0, 1]
    assert frame[frame.user_id == "u7"].session_seq.tolist() == [0, 0]
    ds = ray.data.from_arrow(t).repartition(3)
    stats = session_stats(ds, gap_seconds=1800.0, num_buckets=4).to_pandas()
    assert str(stats["n_sessions"].dtype) == "int64"
    assert len(stats) == 2
    bynull = stats[stats.user_id.isna()]
    assert len(bynull) == 1
    assert bynull.n_sessions.iloc[0] == 2 and bynull.n_events.iloc[0] == 3
    u7 = stats[stats.user_id == "u7"]
    assert u7.n_sessions.tolist() == [1] and u7.n_events.tolist() == [2]
