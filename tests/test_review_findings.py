"""Regressions for the round-4 core-module review findings: schema
evolution on commit/scan, positional shard ids, the merge's payload
tie-break matching the light columns, and GC of obsolete job logs and
abandoned tmp files."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from engine.config import EngineConfig
from engine.manifest import JobLog, Table

CFG = EngineConfig()


def _pages_tbl(ids, extra=None):
    n = len(ids)
    cols = {
        "url": pa.array([f"u{i}" for i in ids], pa.string()),
        "warc_ts": pa.array(
            pd.to_datetime([1_000_000 + i for i in ids], unit="s"), pa.timestamp("us")
        ),
        "text": pa.array([f"t{i}" for i in ids], pa.string()),
    }
    if extra is not None:
        cols["extra"] = pa.array([extra] * n, pa.string())
    return pa.table(cols)


def test_ingest_narrower_source_keeps_evolved_schema(tmp_path, ray_session):
    """Commit schema UNIONS with the parent: a second ingest of a source
    without 'extra' must not drop the column from scans while rows
    holding it stay live."""
    from engine.jobs import ingest

    t = Table.create(str(tmp_path / "t"))
    ingest(t, ray.data.from_arrow(_pages_tbl([1, 2], extra="e")), CFG, sanitize_cols=())
    ingest(t, ray.data.from_arrow(_pages_tbl([3, 4])), CFG, sanitize_cols=())
    assert "extra" in t.arrow_schema().names
    df = t.scan().to_pandas()
    assert "extra" in df.columns and df["extra"].notna().sum() == 2


def test_scan_projected_columns_on_evolved_table(tmp_path, ray_session):
    """scan(columns=...) on a table where some files lack the column:
    must surface nulls, not KeyError (same fix evolved_read got)."""
    from engine.jobs import ingest

    t = Table.create(str(tmp_path / "t"))
    ingest(t, ray.data.from_arrow(_pages_tbl([1, 2])), CFG, sanitize_cols=())
    ingest(t, ray.data.from_arrow(_pages_tbl([3, 4], extra="e")), CFG, sanitize_cols=())
    df = t.scan(columns=["extra"]).to_pandas()
    assert len(df) == 4 and df["extra"].notna().sum() == 2


def test_ingest_sharded_resume_with_shifted_paths(tmp_path, ray_session):
    """Shard ids are content hashes of their input paths: a resume whose
    path list gained a file must ingest the new data, not skip a
    different file set under a recycled ordinal."""
    from engine.jobs import ingest_sharded

    paths = []
    for i in range(4):
        p = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(_pages_tbl([10 * i, 10 * i + 1]), p)
        paths.append(p)

    t = Table.create(str(tmp_path / "t"))
    with pytest.raises(RuntimeError, match="injected failure"):
        ingest_sharded(t, paths, CFG, job_id="j", shard_files=1,
                       sanitize_cols=(), failpoint_after=2)
    # a glob picked up a NEW file at the front before the resume
    newp = str(tmp_path / "in-new.parquet")
    pq.write_table(_pages_tbl([99]), newp)
    r = ingest_sharded(t, [newp] + paths, CFG, job_id="j", shard_files=1, sanitize_cols=())
    assert r["shards_skipped_resume"] == 2
    urls = set(t.scan(columns=["url"]).to_pandas().url)
    assert "u99" in urls and len(urls) == 9


def test_wide_merge_payload_tie_matches_light_columns(ray_session):
    """Two writers share the winning ts: the merged payload must come
    from the SAME row the light-column fold picks (last writer), never
    mixing values that co-occurred in no input row."""
    from engine.merge import merge_datasets

    ts = pd.Timestamp("2026-01-01")
    t = pa.table(
        {
            "url": pa.array(["k", "k"], pa.string()),
            "warc_ts": pa.array([ts, ts], pa.timestamp("us")),
            "text": pa.array(["a", "b"], pa.string()),
            "html": pa.array([b"X", b"Y"], pa.binary()),
        }
    )
    out = merge_datasets(ray.data.from_arrow(t), num_buckets=2).to_pandas()
    assert len(out) == 1
    assert out.text.iloc[0] == "b"
    assert bytes(out.html.iloc[0]) == b"Y"


def test_gc_prunes_obsolete_job_logs_and_tmp_files(tmp_path, ray_session):
    """A committed job's log no longer pins superseded outputs (they
    become collectable orphans) and abandoned .parquet.tmp files are
    removed after the grace period."""
    from engine.jobs import ingest

    t = Table.create(str(tmp_path / "t"))
    ingest(t, ray.data.from_arrow(_pages_tbl([1, 2])), CFG, sanitize_cols=(), job_id="jA")
    # stale output from a re-planned partition, referenced ONLY by jA's log
    stale = os.path.join(t.data_dir, "stale-bin-out.parquet")
    pq.write_table(pa.table({"x": [1]}), stale)
    JobLog(t, "jA").record(
        "bin-dead", ["in"], [{"path": stale, "rows": 1, "bytes": 1, "partition": None, "stats": {}}], rows=1
    )
    # an UNCOMMITTED job's log must keep pinning its outputs
    pending = os.path.join(t.data_dir, "pending-shard-out.parquet")
    pq.write_table(pa.table({"x": [2]}), pending)
    JobLog(t, "jB").record(
        "shard-0", ["in"], [{"path": pending, "rows": 1, "bytes": 1, "partition": None, "stats": {}}], rows=1
    )
    # abandoned tmp from a crashed writer
    tmp_file = os.path.join(t.data_dir, "z.parquet.tmp-dead")
    with open(tmp_file, "w") as f:
        f.write("partial")
    removed = t.gc_orphans(tmp_grace_seconds=0.0)
    names = {os.path.basename(p) for p in removed}
    assert names == {"stale-bin-out.parquet", "z.parquet.tmp-dead"}
    assert os.path.exists(pending)
    assert not os.path.exists(os.path.join(t.jobs_dir, "jA.jsonl"))
    assert os.path.exists(os.path.join(t.jobs_dir, "jB.jsonl"))


def test_textstats_nul_byte_token_is_not_a_stopword():
    """'a\\x00' packs like zero-padded 'a' in the fast path; byte parity
    with the regex path requires NUL-bearing tokens to never count."""
    from engine.textstats import TextBatch, _byte_counts

    s = pa.array(["a\x00 b", "the\x00 x", "of", "to\x00\x00"])
    fast = _byte_counts(TextBatch(s))
    assert list(fast[5]) == [0, 0, 1, 0]


def test_sessionize_tz_aware_timestamps(ray_session):
    """timestamp[us, tz=...] event logs must sessionize, not TypeError."""
    from engine.window import session_stats

    ts = pd.to_datetime(
        ["2026-01-01 00:00:00", "2026-01-01 00:10:00", "2026-01-01 02:00:00"]
    ).tz_localize("UTC")
    t = pa.table(
        {
            "user_id": pa.array([1, 1, 1], pa.int64()),
            "ts": pa.Array.from_pandas(pd.Series(ts), type=pa.timestamp("us", tz="UTC")),
        }
    )
    out = session_stats(ray.data.from_arrow(t), gap_seconds=1800.0, num_buckets=2).to_pandas()
    assert int(out.n_sessions.iloc[0]) == 2 and int(out.n_events.iloc[0]) == 3


def test_cluster_key_accepts_dictionary_encoded_column(ray_session):
    """A dictionary-encoded lang column (pandas Categorical after
    conversion) must not TypeError in the cluster-key map."""
    import pyarrow.compute as pc

    from engine.zorder import add_cluster_key

    batch = pa.table(
        {
            "lang": pc.dictionary_encode(pa.array(["en", "zh", "en"])),
            "url": pa.array(["https://a.example/x", "https://b.example/y", "c"]),
        }
    )
    out = add_cluster_key(batch, {"en": 0, "zh": 1})
    assert out.column("__zkey").null_count == 0 and len(out) == 3


def test_range_join_rejects_value_col_collision(ray_session):
    """An attach column named like value_col silently overwrote the
    fact's value column pre-fix; it must raise like any collision."""
    from engine.lookup import range_join

    iv = pd.DataFrame({"lo": [0.0], "hi": [10.0], "value": ["low"]})
    ds = ray.data.from_arrow(pa.table({"value": pa.array([1.0, 20.0])}))
    with pytest.raises(ValueError, match="collide"):
        range_join(ds, iv, "value", "lo", "hi")


def test_url_sort_key32_matches_scalar_reference():
    """The Arrow-buffer gather must equal the old S8 big-endian key."""
    import numpy as np

    from engine.zorder import url_sort_key32

    urls = [
        "https://www.example.com/path",
        "http://a.b/c",
        None,
        "",
        "x",
        "\u00e9\u00e9\u00e9\u00e9\u00e9",  # multibyte utf-8
        "https://zzzzzzzzzzzz.org",
    ]
    got = url_sort_key32(pa.array(urls, pa.string()))
    import re as _re

    def ref(u):
        u = u or ""
        u = _re.sub(r"^https?://(www\.)?", "", u)
        b = u[:8].encode("utf-8", errors="replace")[:8].ljust(8, b"\x00")
        return int.from_bytes(b, "big") >> 32

    assert [int(v) for v in got] == [ref(u) for u in urls]


def test_csv_ingest_quarantines_unreadable_file(tmp_path, ray_session):
    """An OSError (file vanished after validation) quarantines the file;
    the other files' ingest completes."""
    from engine.csv_ingest import ingest_csv

    f1 = tmp_path / "ok.csv"
    f1.write_text("id,name\n1,Alice\n")
    gone = str(tmp_path / "gone.csv")
    ds, fields, errors = ingest_csv([str(f1), gone])
    assert len(errors) == 1 and errors[0][0] == gone
    assert len(ds.to_pandas()) == 1


def test_cosine_dup_pairs_empty_corpus(ray_session):
    from engine.similarity import cosine_dup_pairs, filter_valid_vectors

    t = pa.table(
        {
            "vec_id": pa.array([1], pa.int64()),
            "embedding": pa.array([None], pa.list_(pa.float32())),
        }
    )
    out = cosine_dup_pairs(filter_valid_vectors(ray.data.from_arrow(t)))
    assert out.count() == 0
    assert out.schema().names == ["id_a", "id_b", "cosine"]


def test_stack_rejects_ragged_dims():
    from engine.similarity import _stack

    ragged = pa.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0, 8.0]], pa.list_(pa.float64()))
    with pytest.raises(ValueError, match="non-uniform"):
        _stack(ragged)


def test_simhash_radius_over_31_raises(ray_session):
    from engine.dedup import simhash_dup_pairs

    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1], pa.int64()), "text": pa.array(["x"])})
    )
    with pytest.raises(ValueError, match="max_hamming"):
        simhash_dup_pairs(ds, max_hamming=35)


def test_minhash_short_docs_mixed_with_long(ray_session):
    """Signature parity: batches mixing sub-k docs with long ones (the
    vectorized scatter) must equal per-doc signatures."""
    import numpy as np

    from engine.dedup import minhash_signatures_flat

    rng = np.random.default_rng(5)
    a = (rng.integers(1, 2**61, 16) | 1).astype(np.uint64)
    b = rng.integers(0, 2**61, 16).astype(np.uint64)
    texts = ["one two", "a much longer document with many words here", "", "x",
             "full four word doc"]
    mixed = minhash_signatures_flat(texts, a, b)
    for i, t in enumerate(texts):
        solo = minhash_signatures_flat([t], a, b)
        assert np.array_equal(mixed[i], solo[0]), f"row {i} diverged"


def test_asof_join_duplicate_right_ts_deterministic(ray_session):
    """Two right rows sharing (key, ts): the greatest-by-value row wins,
    independent of block arrival order."""
    from engine.asof import asof_join

    base = pd.Timestamp("2026-01-01")
    left = pa.table(
        {
            "user_id": pa.array([7], pa.int64()),
            "ts": pa.array([base + pd.Timedelta(hours=1)], pa.timestamp("us")),
        }
    )
    for order in ([1.0, 2.0], [2.0, 1.0]):
        right = pa.table(
            {
                "user_id": pa.array([7, 7], pa.int64()),
                "dt": pa.array([base, base], pa.timestamp("us")),
                "price": pa.array(order, pa.float64()),
            }
        )
        out = asof_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            key="user_id", left_ts="ts", right_ts="dt", num_buckets=2,
        ).to_pandas()
        assert float(out.price.iloc[0]) == 2.0, order


def test_asof_join_right_internal_collision_raises(ray_session):
    from engine.asof import asof_join

    left = pa.table(
        {
            "user_id": pa.array([1], pa.int64()),
            "ts": pa.array([pd.Timestamp("2026-01-01")], pa.timestamp("us")),
            "x": pa.array([0.0]),
        }
    )
    right = pa.table(
        {
            "user_id": pa.array([1], pa.int64()),
            "dt": pa.array([pd.Timestamp("2026-01-01")], pa.timestamp("us")),
            "x": pa.array([1.0]),      # -> x_r
            "x_r": pa.array([2.0]),    # already x_r
        }
    )
    with pytest.raises(ValueError, match="collide"):
        asof_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            key="user_id", left_ts="ts", right_ts="dt",
        )
