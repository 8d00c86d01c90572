"""End-to-end maintenance jobs: ingest/merge/compact/cluster/expire and
schema evolution (SURVEY 3.1 trace, FIXTURES F5)."""

import os

import pandas as pd
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data

from engine.config import EngineConfig
from engine.jobs import (
    align_to_schema,
    cluster,
    compact,
    evolved_read,
    expire,
    full_maintenance,
    ingest,
    merge_into,
    unify_parquet_schemas,
)
from engine.manifest import Table
from engine.pages import read_pages
from pages_fixture import synth_pages_table


CFG = EngineConfig(merge_buckets=4)


def test_schema_evolution_align():
    schema = pa.schema([("a", pa.int64()), ("b", pa.string()), ("c", pa.float64())])
    batch = pa.table({"b": ["x"], "a": [1]})
    out = align_to_schema(batch, schema)
    assert out.schema == schema
    assert out.column("c").null_count == 1


def test_evolved_read_unifies(tmp_path, ray_session):
    p1 = str(tmp_path / "f1.parquet")
    p2 = str(tmp_path / "f2.parquet")
    pq.write_table(pa.table({"a": [1, 2], "b": ["x", "y"]}), p1)
    pq.write_table(pa.table({"a": [3], "c": [1.5]}), p2)
    schema = unify_parquet_schemas([p1, p2])
    assert set(schema.names) == {"a", "b", "c"}
    df = evolved_read([p1, p2]).to_pandas()
    assert len(df) == 3 and set(df.columns) == {"a", "b", "c"}
    # missing keys simply absent -> nulls (docs/processing-engine.md:147-154)
    assert df[df.a == 3].b.isna().all()


def test_full_maintenance_scan_equality(tmp_table_root, sf_dir, ray_session):
    out = full_maintenance(
        tmp_table_root, read_pages(sf_dir), CFG, target_bytes=4 << 20, rows_per_file=128
    )
    t = Table.load(tmp_table_root)
    got = t.scan().to_pandas()
    assert len(got) == out["rows"] > 0
    # sanitize happened on ingest; merge collapsed duplicate urls
    assert got[got.url.notna()].url.is_unique
    # snapshot isolation: pre-merge snapshot still scans the full ingest
    ingest_rows = out["ingest"]["rows"]
    pre = t.scan(snapshot_id=out["ingest"]["snapshot_id"]).to_pandas()
    assert len(pre) == ingest_rows == 500


def test_merge_is_idempotent(tmp_table_root, ray_session):
    t = Table.create(tmp_table_root)
    ingest(t, ray.data.from_arrow(synth_pages_table(600)), CFG, sanitize_cols=())
    sort_cols = ["url", "warc_ts", "text", "lang"]
    r1 = merge_into(t, CFG)
    before = t.scan().to_pandas().sort_values(sort_cols, na_position="first")
    r2 = merge_into(t, CFG)
    after = t.scan().to_pandas().sort_values(sort_cols, na_position="first")
    # second merge only re-collapses null-url passthrough rows: row set equal
    pd.testing.assert_frame_equal(before.reset_index(drop=True), after.reset_index(drop=True))


def test_cluster_preserves_rows_and_records_stats(tmp_table_root, ray_session):
    t = Table.create(tmp_table_root)
    ingest(t, ray.data.from_arrow(synth_pages_table(500)), CFG)
    before = t.scan().to_pandas().sort_values(["url", "warc_ts"], na_position="first").reset_index(drop=True)
    cluster(t, CFG, rows_per_file=100)
    after = t.scan().to_pandas().sort_values(["url", "warc_ts"], na_position="first").reset_index(drop=True)
    pd.testing.assert_frame_equal(before, after[before.columns])
    files = t.live_files()
    assert all("__zkey" in f.stats for f in files)
    zranges = sorted(tuple(f.stats["__zkey"]) for f in files)
    # range partitioning: file zkey ranges are non-overlapping
    for (a_lo, a_hi), (b_lo, b_hi) in zip(zranges, zranges[1:]):
        assert a_hi <= b_lo


def test_cluster_small_fast_path_matches_distributed(tmp_path, ray_session):
    """The one-task small-table path and the distributed sort path must
    produce the same row set, the same per-file zkey stats shape, and
    non-overlapping file ranges."""
    src = synth_pages_table(700)
    results = {}
    for name, cfg in [
        ("fast", CFG),  # 700 rows ~ a few KB -> under SMALL_TABLE_BYTES
        ("dist", EngineConfig(merge_buckets=4, shuffle_blocks=4)),
    ]:
        t = Table.create(str(tmp_path / name))
        ingest(t, ray.data.from_arrow(src), cfg, sanitize_cols=())
        cluster(t, cfg, rows_per_file=150)
        # re-clustering must drop the previous run's __zkey, not stack a
        # duplicate (scan-view parity of the fast path)
        cluster(t, cfg, rows_per_file=150)
        got = (
            t.scan()
            .to_pandas()
            .sort_values(["url", "warc_ts", "text"], na_position="first")
            .reset_index(drop=True)
        )
        files = t.live_files()
        assert all("__zkey" in f.stats for f in files), name
        zranges = sorted(tuple(f.stats["__zkey"]) for f in files)
        for (a_lo, a_hi), (b_lo, b_hi) in zip(zranges, zranges[1:]):
            assert a_hi <= b_lo, name
        results[name] = got
    pd.testing.assert_frame_equal(
        results["fast"], results["dist"][results["fast"].columns]
    )


def test_cluster_small_fast_path_schema_evolution(tmp_path, ray_session):
    """Fast-path clustering over a table whose files have DIFFERENT
    footer schemas (a second ingest appended a new column) must align
    every file to the manifest's visible schema — old rows null-filled,
    same result as the distributed path."""
    base = synth_pages_table(200)
    evolved = synth_pages_table(200).append_column(
        "crawl_tag", pa.array(["c2"] * 200, type=pa.string())
    )
    results = {}
    for name, cfg in [
        ("fast", CFG),
        # an explicit shuffle_blocks pin must SUPPRESS the fast path
        # (the option's contract is a fixed distributed partitioning)
        ("dist", EngineConfig(merge_buckets=4, shuffle_blocks=4)),
    ]:
        t = Table.create(str(tmp_path / name))
        ingest(t, ray.data.from_arrow(base), cfg, sanitize_cols=())
        ingest(t, ray.data.from_arrow(evolved), cfg, sanitize_cols=())
        cluster(t, cfg, rows_per_file=100)
        got = (
            t.scan()
            .to_pandas()
            # crawl_tag must be part of the key: base and evolved share
            # identical (url, warc_ts, text) triples, so without it the
            # 2-way ties land in path-dependent order
            .sort_values(["url", "warc_ts", "text", "crawl_tag"], na_position="first")
            .reset_index(drop=True)
        )
        assert "crawl_tag" in got.columns, name
        assert got.crawl_tag.isna().sum() == 200, name  # pre-evolution rows
        assert len(got) == 400, name
        results[name] = got
    pd.testing.assert_frame_equal(
        results["fast"], results["dist"][results["fast"].columns]
    )


def test_merge_small_fast_path_matches_distributed(tmp_path, ray_session):
    """The one-task small-table MERGE and the distributed bucketed fold
    must produce the same row set (LWW + non-empty coalesce + null-url
    passthrough), including across schema-evolved files. Disjoint
    doc_id ranges keep every warc_ts distinct so LWW ties cannot make
    the comparison path-dependent (merge_fold's stable ts sort breaks
    ties by input order, which differs between the two paths)."""
    full = synth_pages_table(800)
    base = full.slice(0, 400)
    evolved = full.slice(400, 400).append_column(
        "crawl_tag", pa.array(["c2"] * 400, type=pa.string())
    )
    results = {}
    for name, cfg in [
        ("fast", CFG),  # 800 rows ~ tens of KB -> under SMALL_TABLE_BYTES
        ("dist", EngineConfig(merge_buckets=4, shuffle_blocks=4)),
    ]:
        t = Table.create(str(tmp_path / name))
        ingest(t, ray.data.from_arrow(base), cfg, sanitize_cols=())
        ingest(t, ray.data.from_arrow(evolved), cfg, sanitize_cols=())
        out = merge_into(t, cfg)
        got = (
            t.scan()
            .to_pandas()
            .sort_values(["url", "warc_ts", "text"], na_position="first")
            .reset_index(drop=True)
        )
        assert "crawl_tag" in got.columns, name
        assert got[got.url.notna()].url.is_unique, name
        results[name] = (out["files"], got)
    fast_files, fast = results["fast"]
    dist_files, dist = results["dist"]
    # routing proof: the fast path writes exactly ONE file, the
    # distributed path one per non-empty bucket
    assert fast_files == 1 and dist_files > 1
    pd.testing.assert_frame_equal(fast, dist[fast.columns])


def test_merge_small_fast_path_gate(tmp_path, ray_session):
    """A small materialized source Dataset takes the one-task route
    (its size is block metadata); an explicit shuffle_blocks pin
    suppresses it (the pin's contract is a fixed distributed
    partitioning) — and the merged result is the same either way."""
    full = synth_pages_table(400)
    t = Table.create(str(tmp_path / "t"))
    ingest(t, ray.data.from_arrow(full.slice(0, 200)), CFG, sanitize_cols=())
    # from_arrow gives a materialized source -> one task, one file
    out = merge_into(t, CFG, source=ray.data.from_arrow(full.slice(200, 200)))
    assert out["files"] == 1
    assert out["rows"] == len(t.scan().to_pandas())
    # pin present -> distributed path even though the table is tiny
    out2 = merge_into(t, EngineConfig(merge_buckets=4, shuffle_blocks=4))
    assert out2["files"] > 1
    # and with neither: fast path, same surviving row set as a rerun
    before = (
        t.scan().to_pandas().sort_values(["url", "warc_ts", "text"], na_position="first")
    )
    out3 = merge_into(t, CFG)
    assert out3["files"] == 1
    after = (
        t.scan().to_pandas().sort_values(["url", "warc_ts", "text"], na_position="first")
    )
    pd.testing.assert_frame_equal(
        before.reset_index(drop=True), after.reset_index(drop=True)
    )


def test_expire_gc_after_maintenance(tmp_table_root, sf_dir, ray_session):
    full_maintenance(tmp_table_root, read_pages(sf_dir), CFG, target_bytes=4 << 20)
    t = Table.load(tmp_table_root)
    pre_files = {f.path for f in t.live_files()}
    res = expire(t, EngineConfig(snapshot_ttl_seconds=0.0))
    # all superseded snapshots went away; current files survive
    assert res["expired_snapshots"]
    for p in res["deleted_files"]:
        assert p not in pre_files
        assert not os.path.exists(p)
    for p in pre_files:
        assert os.path.exists(p)
    assert t.snapshot().total_rows == len(t.scan().to_pandas())


def test_ingest_sharded_resume(tmp_path, ray_session):
    import pyarrow.parquet as pq
    from engine.jobs import ingest_sharded

    paths = []
    full = synth_pages_table(300)
    for i in range(6):
        p = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(full.slice(i * 50, 50), p)
        paths.append(p)

    t = Table.create(str(tmp_path / "t1"))
    with pytest.raises(RuntimeError, match="injected failure"):
        ingest_sharded(t, paths, CFG, job_id="j1", shard_files=2, failpoint_after=1)
    assert t.snapshot().operation == "create"  # nothing committed
    r = ingest_sharded(t, paths, CFG, job_id="j1", shard_files=2)
    assert r["shards_skipped_resume"] == 1 and r["shards"] == 3
    assert r["rows"] == 300
    # identical row set to an uninterrupted run
    t2 = Table.create(str(tmp_path / "t2"))
    ingest_sharded(t2, paths, CFG, job_id="j1", shard_files=2)
    a = t.scan().to_pandas().sort_values(["url", "warc_ts"], na_position="first").reset_index(drop=True)
    b = t2.scan().to_pandas().sort_values(["url", "warc_ts"], na_position="first").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def _sorted_pages(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return (
        df[cols]
        .sort_values(cols, na_position="first", key=lambda s: s.astype(str))
        .reset_index(drop=True)
    )


def _expected_merge(*batches: pa.Table) -> pd.DataFrame:
    """``batches`` (oldest first), aligned to their unified schema and
    merged by the pandas oracle (``tests/merge_oracle.py``). Exact only
    while no url has two rows at one warc_ts, which holds for
    ``synth_pages_table``: the oracle breaks ts ties by input order,
    which the engine's routes do not share."""
    from merge_oracle import merge_fold_passthrough

    schema = pa.unify_schemas([b.schema for b in batches])
    rows = pa.concat_tables([align_to_schema(b, schema) for b in batches])
    return _sorted_pages(merge_fold_passthrough(rows.to_pandas(), "url", "warc_ts"))


def test_merge_into_wide_payload_path(tmp_table_root, ray_session):
    """A table with a binary html payload merges through the
    distributed bucketed fold (``shuffle_blocks`` pins that route)
    with every column, html included, equal to the oracle's rows."""
    src = synth_pages_table(800)
    assert pa.types.is_binary(src.schema.field("html").type)
    cfg = EngineConfig(merge_buckets=4, shuffle_blocks=4)
    t = Table.create(tmp_table_root)
    ingest(t, ray.data.from_arrow(src), cfg, sanitize_cols=())
    merge_into(t, cfg)
    got = _sorted_pages(t.scan().to_pandas())
    exp = _expected_merge(src)
    assert got["html"].notna().all() and len(got) == len(exp)
    pd.testing.assert_frame_equal(got, exp.astype(got.dtypes.to_dict()))


def test_job_rerun_after_commit_is_noop(tmp_path, ray_session):
    # regression: rerunning a COMPLETED job re-added its files (doubling
    # the table); now the commit is idempotent per job_id
    import pyarrow.parquet as pq
    from engine.jobs import ingest_sharded

    paths = []
    for i in range(2):
        p = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(synth_pages_table(100).slice(i * 50, 50), p)
        paths.append(p)
    t = Table.create(str(tmp_path / "t"))
    r1 = ingest_sharded(t, paths, CFG, job_id="once")
    r2 = ingest_sharded(t, paths, CFG, job_id="once")
    assert r2.get("already_committed") is True
    assert t.snapshot().total_rows == r1["rows"] == 100

    # same for compaction
    from engine.jobs import compact

    r3 = compact(t, CFG, target_bytes=10 << 20, job_id="c-once")
    r4 = compact(t, CFG, target_bytes=10 << 20, job_id="c-once")
    assert r4.get("already_committed") is True
    assert t.snapshot().total_rows == 100


def test_failed_shard_recorded_and_retried(tmp_path, ray_session):
    # VERDICT r1 "missing #2": a crashed shard must leave a durable
    # failed entry in the lineage log, and resume must retry it
    import pyarrow.parquet as pq
    from engine.jobs import ingest_sharded
    from engine.manifest import JobLog

    paths = []
    full = synth_pages_table(200)
    for i in range(4):
        p = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(full.slice(i * 50, 50), p)
        paths.append(p)

    t = Table.create(str(tmp_path / "tf"))
    with pytest.raises(RuntimeError, match="injected shard failure"):
        ingest_sharded(t, paths, CFG, job_id="jf", shard_files=2, fail_shard=1)
    log = JobLog(t, "jf")
    failed = log.failed()
    # shard ids are content hashes of their input paths (review r4: a
    # positional ordinal mis-skips after the path list shifts)
    assert len(failed) == 1
    (entry,) = failed.values()
    assert "injected shard failure" in entry["error"]
    assert entry["input_files"] == paths[2:4]
    # resume: shard 0 skipped, shard 1 retried and succeeds
    r = ingest_sharded(t, paths, CFG, job_id="jf", shard_files=2)
    assert r["shards_skipped_resume"] == 1 and r["rows"] == 200
    assert log.failed() == {}  # committed retry clears the failure


def test_merge_into_makes_no_topology_probe(tmp_table_root, ray_session, monkeypatch):
    """A merge reads no cluster topology: with ``ray.nodes`` raising,
    merging an 800-row table with a binary html payload still gives the
    oracle's rows."""
    import ray as ray_mod

    def no_topology_probe():
        raise AssertionError("merge_into called ray.nodes()")

    src = synth_pages_table(800)
    t = Table.create(tmp_table_root)
    ingest(t, ray.data.from_arrow(src), CFG, sanitize_cols=())
    monkeypatch.setattr(ray_mod, "nodes", no_topology_probe)
    merge_into(t, CFG)
    got = _sorted_pages(t.scan().to_pandas())
    pd.testing.assert_frame_equal(got, _expected_merge(src).astype(got.dtypes.to_dict()))


def test_small_merge_into_reads_no_cluster_resources(tmp_table_root, ray_session, monkeypatch):
    """The small-table merge sizes no exchange: with
    ``ray.cluster_resources`` and the distributed merge both raising,
    an 800-row ``merge_into`` takes the one-task route and gives the
    oracle's rows."""
    import ray as ray_mod

    import engine.jobs as jobs_mod

    def refuse(*args, **kwargs):
        raise AssertionError("the small-table merge sized a bucket exchange")

    src = synth_pages_table(800)
    t = Table.create(tmp_table_root)
    ingest(t, ray.data.from_arrow(src), CFG, sanitize_cols=())
    with monkeypatch.context() as m:
        m.setattr(ray_mod, "cluster_resources", refuse)
        m.setattr(jobs_mod, "merge_datasets", refuse)
        merge_into(t, CFG)
    got = _sorted_pages(t.scan().to_pandas())
    pd.testing.assert_frame_equal(got, _expected_merge(src).astype(got.dtypes.to_dict()))


ROUTES = [
    ("one_task", CFG),
    ("distributed", EngineConfig(merge_buckets=4, shuffle_blocks=4)),
]


@pytest.mark.parametrize("route,cfg", ROUTES, ids=[r for r, _ in ROUTES])
def test_merge_wider_source_adds_its_columns(tmp_path, ray_session, route, cfg):
    """A source with a column the table lacks adds it: the merged
    snapshot's schema and its scan carry ``extra_col``, null on the
    table's old rows, on both routes."""
    full = synth_pages_table(300)
    base = full.slice(0, 200)
    src = full.slice(200, 100)
    src = src.append_column("extra_col", pa.array([f"x{i}" for i in range(len(src))]))
    t = Table.create(str(tmp_path / route))
    ingest(t, ray.data.from_arrow(base), cfg, sanitize_cols=())
    out = merge_into(t, cfg, source=ray.data.from_arrow(src))
    assert (out["files"] == 1) == (route == "one_task")
    assert "extra_col" in t.snapshot().arrow_schema().names
    scan = t.scan()
    assert "extra_col" in scan.schema().names
    got = _sorted_pages(scan.to_pandas())
    exp = _expected_merge(base, src)
    assert got.extra_col.isna().sum() == exp.extra_col.isna().sum() > 0
    pd.testing.assert_frame_equal(got, exp.astype(got.dtypes.to_dict()))


def _with_edge_rows(t: pa.Table, offset: int) -> pa.Table:
    """Empty-string urls (passthrough, like NULL urls) and a few NULL
    ``warc_ts`` rows (the oldest writer). The NULL-ts positions map to
    distinct urls across every batch, so no url holds two NULL-ts rows
    and no LWW tie is path-dependent."""
    pos = np.arange(offset, offset + len(t))
    url = pc.if_else(pa.array(pos % 50 == 11), pa.scalar("", pa.string()), t.column("url"))
    null_ts = pa.array(np.isin(pos, [3, 17, 40, 77, 901]))
    ts = pc.if_else(null_ts, pa.scalar(None, t.schema.field("warc_ts").type), t.column("warc_ts"))
    t = t.set_column(t.schema.get_field_index("url"), "url", url)
    return t.set_column(t.schema.get_field_index("warc_ts"), "warc_ts", ts)


@pytest.mark.parametrize("width", ["narrower", "wider"])
def test_merge_source_routes_match_oracle(tmp_path, ray_session, width):
    """The one-task source route and the distributed source route give
    the oracle's rows on a schema-evolved table (one ingest lacks
    ``crawl_tag``), with a source narrower than the table (no ``html``
    or ``crawl_tag``) or wider (adds ``extra_col``). The inputs hold
    NULL and empty urls, NULL ``warc_ts`` rows and newer empty-string
    cells that must not overwrite older values."""
    full = synth_pages_table(1200)
    a = _with_edge_rows(full.slice(0, 400), 0)
    b = _with_edge_rows(full.slice(400, 400), 400)
    b = b.append_column("crawl_tag", pa.array(["c2"] * len(b), type=pa.string()))
    src = _with_edge_rows(full.slice(800, 400), 800)
    if width == "narrower":
        src = src.drop_columns(["html"])
    else:
        src = src.append_column("crawl_tag", pa.array(["c3"] * len(src), type=pa.string()))
        src = src.append_column("extra_col", pa.array(np.arange(len(src), dtype=np.int64)))
    assert pc.sum(pc.equal(src.column("text"), "")).as_py() > 0
    exp = _expected_merge(a, b, src)
    results = {}
    for route, cfg in ROUTES:
        t = Table.create(str(tmp_path / route))
        ingest(t, ray.data.from_arrow(a), cfg, sanitize_cols=())
        ingest(t, ray.data.from_arrow(b), cfg, sanitize_cols=())
        out = merge_into(t, cfg, source=ray.data.from_arrow(src))
        assert (out["files"] == 1) == (route == "one_task"), route
        got = _sorted_pages(t.scan().to_pandas())
        pd.testing.assert_frame_equal(got, exp.astype(got.dtypes.to_dict()), obj=route)
        results[route] = got
    pd.testing.assert_frame_equal(results["one_task"], results["distributed"])


def _refuse(what: str):
    def refuse(*args, **kwargs):
        raise AssertionError(f"merge_into ran {what}")

    return refuse


def test_small_materialized_source_skips_the_exchange(tmp_table_root, ray_session, monkeypatch):
    """A materialized source under the bound merges in one task: with
    the distributed merge raising, the merge still gives the oracle's
    rows."""
    import engine.jobs as jobs_mod

    full = synth_pages_table(800)
    t = Table.create(tmp_table_root)
    ingest(t, ray.data.from_arrow(full.slice(0, 400)), CFG, sanitize_cols=())
    monkeypatch.setattr(jobs_mod, "merge_datasets", _refuse("the distributed merge"))
    assert merge_into(t, CFG, source=ray.data.from_arrow(full.slice(400, 400)))["files"] == 1
    got = _sorted_pages(t.scan().to_pandas())
    pd.testing.assert_frame_equal(got, _expected_merge(full).astype(got.dtypes.to_dict()))


def test_lazy_source_is_not_sized(tmp_path, ray_session, monkeypatch):
    """A lazy source keeps the distributed route and is executed once:
    with the one-task body raising, the merge gives the oracle's rows
    and the source's UDF ran once per input block."""
    import types

    import engine.jobs as jobs_mod

    full = synth_pages_table(800)
    t = Table.create(str(tmp_path / "t"))
    ingest(t, ray.data.from_arrow(full.slice(0, 400)), CFG, sanitize_cols=())
    calls = tmp_path / "calls"
    calls.mkdir()

    def mark(batch: pa.Table) -> pa.Table:
        (calls / os.urandom(8).hex()).touch()
        return batch

    blocks = [full.slice(off, 100) for off in range(400, 800, 100)]
    source = ray.data.from_arrow(blocks).map_batches(mark, batch_format="pyarrow", batch_size=None)
    monkeypatch.setattr(jobs_mod, "_small_task", types.SimpleNamespace(remote=_refuse("one task")))
    merge_into(t, CFG, source=source)
    assert len(list(calls.iterdir())) == len(blocks)
    got = _sorted_pages(t.scan().to_pandas())
    pd.testing.assert_frame_equal(got, _expected_merge(full).astype(got.dtypes.to_dict()))


def test_source_over_the_bound_takes_the_exchange(tmp_table_root, ray_session, monkeypatch):
    """The bound counts the source's bytes: with ``SMALL_TABLE_BYTES``
    at the live bytes alone, a materialized source tips the merge onto
    the distributed route, which gives the oracle's rows."""
    import types

    import engine.jobs as jobs_mod

    full = synth_pages_table(800)
    t = Table.create(tmp_table_root)
    ingest(t, ray.data.from_arrow(full.slice(0, 400)), CFG, sanitize_cols=())
    monkeypatch.setattr(jobs_mod, "SMALL_TABLE_BYTES", sum(f.bytes for f in t.live_files()))
    monkeypatch.setattr(jobs_mod, "_small_task", types.SimpleNamespace(remote=_refuse("one task")))
    assert merge_into(t, CFG, source=ray.data.from_arrow(full.slice(400, 400)))["files"] > 1
    got = _sorted_pages(t.scan().to_pandas())
    pd.testing.assert_frame_equal(got, _expected_merge(full).astype(got.dtypes.to_dict()))


def test_fused_sanitize_matches_staged(ray_session):
    """normalize_stage(sanitize_cols=...) must be byte-identical to the
    separate normalize -> sanitize_stage pipeline (same kernels, same
    order, one fewer full-data pass)."""
    from engine.jobs import normalize_stage
    from engine.sanitize import sanitize_stage

    src = synth_pages_table(300)
    fused = (
        normalize_stage(ray.data.from_arrow(src), CFG, sanitize_cols=("text",))
        .to_pandas()
    )
    staged = (
        sanitize_stage(
            normalize_stage(ray.data.from_arrow(src), CFG)
            .map_batches(lambda t: t, batch_format="pyarrow"),
            columns=("text",),
        )
        .to_pandas()
    )
    cols = sorted(fused.columns)
    assert cols == sorted(staged.columns)
    a = fused[cols].sort_values(cols, na_position="first", key=lambda s: s.astype(str)).reset_index(drop=True)
    b = staged[cols].sort_values(cols, na_position="first", key=lambda s: s.astype(str)).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


#: the normalize stage's derived columns, in order, with their types
NORMALIZE_COLUMNS = [
    ("n_chars", pa.int64()), ("n_tokens", pa.int64()), ("n_words", pa.int64()),
    ("alpha_ratio", pa.float64()), ("punct_ratio", pa.float64()),
    ("stop_ratio", pa.float64()), ("quality", pa.float64()),
    ("lang_pred", pa.string()), ("lang_conf", pa.float64()), ("simhash", pa.uint64()),
]


@pytest.mark.parametrize("sanitize_cols", [(), ("text",)])
def test_normalize_stage_null_text_and_empty_batches(ray_session, sanitize_cols):
    """An all-NULL text batch and a 0-row batch run through the normalize
    stage, and every input column keeps its type: an all-NULL column is
    not retyped to ``null`` and ``large_string`` text stays
    ``large_string``. The derived columns follow in a fixed order."""
    from engine.jobs import normalize_stage

    schema = pa.schema([
        ("url", pa.string()), ("warc_ts", pa.timestamp("us")), ("html", pa.binary()),
        ("text", pa.large_string()), ("lang", pa.string()),
    ])
    want = pa.schema(list(schema) + [pa.field(n, t) for n, t in NORMALIZE_COLUMNS])
    null_row = pa.table({f.name: pa.nulls(1, f.type) for f in schema}, schema=schema)
    stage = normalize_stage(ray.data.from_arrow(null_row), CFG, sanitize_cols=sanitize_cols)
    out = pa.concat_tables(ray.get(stage.to_arrow_refs()))
    assert out.schema.remove_metadata() == want
    row = out.to_pylist()[0]
    assert row["text"] == ("" if sanitize_cols else None)
    assert (row["n_chars"], row["n_tokens"], row["lang_pred"], row["simhash"]) == (0, 0, "und", 0)

    # Ray hands a stage no batch for a 0-row block, so the stage's batch
    # function is called directly, with the arguments the stage gives it
    class Capture:
        def map_batches(self, fn, **kw):
            self.fn, self.kw = fn, kw
            return self

    cap = normalize_stage(Capture(), CFG, sanitize_cols=sanitize_cols)
    assert cap.kw["batch_format"] == "pyarrow"
    empty = cap.fn(schema.empty_table(), **cap.kw["fn_kwargs"])
    assert empty.num_rows == 0 and empty.schema.remove_metadata() == want

    # a text column typed null (what Arrow infers for all-None values)
    typed_null = cap.fn(pa.table({"text": pa.nulls(2)}), **cap.kw["fn_kwargs"])
    assert typed_null["n_chars"].to_pylist() == [0, 0]
    assert typed_null["text"].to_pylist() == (["", ""] if sanitize_cols else [None, None])


def test_full_maintenance_normalize_fused(tmp_table_root, ray_session):
    """normalize=True runs the fused normalize+sanitize ingest: output
    carries the normalize columns AND sanitized text, identical rows to
    the plain pipeline."""
    from engine.sanitize import sanitize_cell

    src = synth_pages_table(300)
    out = full_maintenance(
        tmp_table_root, ray.data.from_arrow(src), CFG, rows_per_file=64, normalize=True
    )
    got = Table.load(tmp_table_root).scan().to_pandas()
    assert out["rows"] == len(got)
    for col in ("n_tokens", "lang_pred", "simhash"):
        assert col in got.columns, col
    # text went through the sanitizer (idempotence: re-sanitizing is a no-op)
    texts = got["text"].dropna()
    assert all(sanitize_cell(t) == t for t in texts.head(100))


def test_full_maintenance_rejects_unmergeable_input_before_commit(
    tmp_path, ray_session, sf_dir
):
    """A source without the merge key/ts must fail BEFORE the first
    snapshot commit (previously ingest committed, then merge died with
    a bare KeyError, leaving a half-maintained table)."""
    import os

    import pytest

    from engine.config import EngineConfig
    from engine.jobs import full_maintenance

    root = str(tmp_path / "t")
    with pytest.raises(ValueError, match="missing merge column"):
        full_maintenance(root, [os.path.join(sf_dir, "documents.parquet")], EngineConfig())
    # nothing committed: no snapshot log entries exist
    from engine.manifest import Table

    t = Table.load(root)
    assert t.current_snapshot_id() in (None, 0)


def test_evolved_read_columns_on_heterogeneous_files(tmp_path, ray_session):
    """columns= must project after the schema-unified read: a partial
    schema + column pruning fails inside Ray's reader on any file
    missing a selected column."""
    pq.write_table(pa.table({"a": [1, 2], "b": ["x", "y"]}), str(tmp_path / "1.parquet"))
    pq.write_table(pa.table({"a": [3], "c": [1.5]}), str(tmp_path / "2.parquet"))
    out = evolved_read(
        [str(tmp_path / "1.parquet"), str(tmp_path / "2.parquet")], columns=["a", "c"]
    ).take_all()
    assert sorted((r["a"], r["c"]) for r in out) == [(1, None), (2, None), (3, 1.5)]


def test_ingest_unifies_heterogeneous_block_schemas(tmp_path, ray_session):
    """The committed manifest schema must be the union over ALL written
    files, not whichever block's file landed first: otherwise evolved
    columns vanish from every subsequent scan."""
    pq.write_table(
        pa.table({"url": ["u1"], "warc_ts": pa.array([1], pa.timestamp("us"))}),
        str(tmp_path / "old.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "url": ["u2"],
                "warc_ts": pa.array([2], pa.timestamp("us")),
                "lang": ["en"],
            }
        ),
        str(tmp_path / "new.parquet"),
    )
    # a UNION of two separate reads: blocks do NOT share a schema (no
    # evolved_read alignment on purpose)
    src = ray.data.read_parquet(str(tmp_path / "old.parquet")).union(
        ray.data.read_parquet(str(tmp_path / "new.parquet"))
    )
    t = Table.create(str(tmp_path / "tbl"))
    ingest(t, src, CFG, sanitize_cols=())
    assert set(t.arrow_schema().names) == {"url", "warc_ts", "lang"}
    rows = {r["url"]: r.get("lang") for r in t.scan().take_all()}
    assert rows == {"u1": None, "u2": "en"}


def test_dedup_lines_job_semantics(tmp_table_root, ray_session):
    # table-lifecycle C4 line dedup: winner = min (url, idx); NULL/''
    # url rows pass through untouched; keyed NULL text coalesces to ''
    from engine.jobs import dedup_lines, ingest

    t = pa.table({
        "url": pa.array(["u/a", "u/b", "u/c", None, "", "u/n"], pa.string()),
        "warc_ts": pa.array([1, 2, 3, 4, 5, 6], pa.timestamp("us")),
        "text": pa.array(
            ["x\ny\nz", "y\nw", "x\nx\nq", "keep\nkeep", "y", None],
            pa.string(),
        ),
        "lang": pa.array(["en"] * 6, pa.string()),
    })
    tab = Table.create(tmp_table_root)
    ingest(tab, ray.data.from_arrow(t), CFG, sanitize_cols=())
    out = dedup_lines(tab, CFG)
    assert out["rows"] == 6
    df = (
        tab.scan()
        .to_pandas()
        .sort_values("url", na_position="first")
        .reset_index(drop=True)
    )
    got = dict(zip(df.url.where(df.url.notna(), "<null>"), df.text))
    assert got["u/a"] == "x\ny\nz"      # min url keeps everything
    assert got["u/b"] == "w"            # 'y' first occurred in u/a
    assert got["u/c"] == "q"            # both 'x' occurrences dropped
    assert got["<null>"] == "keep\nkeep"  # passthrough untouched
    assert got[""] == "y"               # passthrough keeps dup line
    assert got["u/n"] == ""             # keyed NULL text -> '' line deduped
    # types preserved through the rewrite
    assert str(df.warc_ts.dtype).startswith("datetime64")


def test_cli_dedup_lines(tmp_table_root, ray_session, capsys):
    import json as _json

    from engine import cli
    from engine.jobs import ingest, merge_into

    tab = Table.create(tmp_table_root)
    ingest(tab, ray.data.from_arrow(synth_pages_table(200)), CFG, sanitize_cols=())
    merge_into(tab, CFG)  # dedup-lines requires unique keys
    n = tab.snapshot().total_rows
    assert cli.main(["dedup-lines", "--table", tmp_table_root]) == 0
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["rows"] == n and out["files"] >= 1


def test_dedup_lines_idempotent_rerun(tmp_table_root, ray_session):
    from engine.jobs import dedup_lines, ingest, merge_into

    tab = Table.create(tmp_table_root)
    ingest(tab, ray.data.from_arrow(synth_pages_table(100)), CFG, sanitize_cols=())
    merge_into(tab, CFG)  # dedup-lines requires unique keys
    out1 = dedup_lines(tab, CFG, job_id="nightly")
    sid = tab.current_snapshot_id()
    out2 = dedup_lines(tab, CFG, job_id="nightly")  # rerun after commit
    assert out2.get("already_committed") is True
    assert tab.current_snapshot_id() == sid  # no second rewrite
    assert out2["rows"] == out1["rows"]


def test_dedup_lines_preserves_binary_payloads(tmp_table_root, ray_session):
    # the rewrite must carry html BYTES through the exchange untouched
    from engine.jobs import dedup_lines, ingest

    html = [b"<html>\x00\xffA</html>", b"", None, b"zz" * 100]
    t = pa.table({
        "url": pa.array(["u/1", "u/2", "u/3", "u/4"], pa.string()),
        "warc_ts": pa.array([1, 2, 3, 4], pa.timestamp("us")),
        "text": pa.array(["a\nb", "b\nc", None, "a"], pa.string()),
        "lang": pa.array(["en"] * 4, pa.string()),
        "html": pa.array(html, pa.large_binary()),
    })
    tab = Table.create(tmp_table_root)
    ingest(tab, ray.data.from_arrow(t), CFG, sanitize_cols=())
    dedup_lines(tab, CFG)
    df = tab.scan().to_pandas().sort_values("url").reset_index(drop=True)
    got = [None if v is None or v is pd.NA or (isinstance(v, float)) else bytes(v)
           for v in df.html]
    assert got == html
    assert df.text.tolist() == ["a\nb", "c", "", ""]


def test_dedup_lines_job_duckdb_parity_fuzz(tmp_table_root, ray_session):
    # random multi-line corpus with unique keys + null/'' passthroughs:
    # the job's scan must equal an independent SQL line-dedup pipeline
    import duckdb

    from engine.jobs import dedup_lines, ingest

    rng = np.random.default_rng(23)
    pool = [f"ln{i}" for i in range(30)] + ["", " ", "x\ty"]
    urls, texts = [], []
    for i in range(150):
        k = int(rng.integers(0, 6))
        urls.append(
            None if i % 31 == 0 else ("" if i % 37 == 0 else f"u/{i:03d}")
        )
        texts.append("\n".join(rng.choice(pool, k)) if k else "")
    t = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(np.arange(150), pa.timestamp("us")),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * 150, pa.string()),
    })
    tab = Table.create(tmp_table_root)
    ingest(tab, ray.data.from_arrow(t), CFG, sanitize_cols=())
    dedup_lines(tab, CFG)
    got = tab.scan(columns=["url", "text"]).to_pandas()

    con = duckdb.connect()
    con.register("src", t.to_pandas())
    want = con.execute("""
        WITH l AS (
          SELECT url, u.i AS idx, u.line FROM (
            SELECT url, unnest(list_transform(generate_series(1, len(ls)),
                               i -> {'i': i, 'line': ls[i]})) AS u
            FROM (SELECT url, str_split(coalesce(text, ''), chr(10)) AS ls
                  FROM src WHERE url IS NOT NULL AND url <> '')))
        , w AS (SELECT line, min(url) AS wurl FROM l GROUP BY line)
        , w2 AS (SELECT l.line, w.wurl, min(l.idx) AS widx FROM l
            JOIN w ON l.line = w.line AND l.url = w.wurl GROUP BY l.line, w.wurl)
        , kept AS (SELECT l.url, l.idx, l.line FROM l
            JOIN w2 ON l.line = w2.line WHERE l.url = w2.wurl AND l.idx = w2.widx)
        , o AS (SELECT url, string_agg(line, chr(10) ORDER BY idx) AS text
            FROM kept GROUP BY url)
        SELECT a.url, coalesce(o.text, '') AS text
        FROM src a LEFT JOIN o ON a.url = o.url
        WHERE a.url IS NOT NULL AND a.url <> ''
        UNION ALL
        SELECT url, text FROM src WHERE url IS NULL OR url = ''
    """).fetchdf()
    key = ["url", "text"]
    g = got.sort_values(key, na_position="first").reset_index(drop=True)
    w = want.sort_values(key, na_position="first").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_dedup_lines_operator_equals_job_on_merged_pages(tmp_table_root, ray_session):
    # one pipeline: the line_dedup operator over the merged table's
    # (url, text) projection gives every non-empty url the same text as
    # the dedup-lines job's rewrite
    from engine.dedup import dedup_lines_global
    from engine.jobs import dedup_lines, ingest, merge_into

    rng = np.random.default_rng(5)
    pool = [f"ln{i}" for i in range(25)] + ["", " "]
    n = 160
    urls = [None if i % 29 == 0 else ("" if i % 31 == 0 else f"u/{i % 90:03d}")
            for i in range(n)]
    texts = [None if i % 17 == 0 else "\n".join(rng.choice(pool, int(rng.integers(0, 6))))
             for i in range(n)]
    t = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(np.arange(n), pa.timestamp("us")),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
    })
    tab = Table.create(tmp_table_root)
    ingest(tab, ray.data.from_arrow(t), CFG, sanitize_cols=())
    merge_into(tab, CFG)  # urls repeat in the source: merge makes them unique
    op = dedup_lines_global(tab.scan(columns=["url", "text"]), id_col="url").to_pandas()
    dedup_lines(tab, CFG)
    job = tab.scan(columns=["url", "text"]).to_pandas()

    def keyed(df):
        return {u: x for u, x in zip(df.url, df.text) if isinstance(u, str) and u}

    assert len(keyed(job)) == len({u for u in urls if u})
    assert keyed(op) == keyed(job)


def test_dedup_lines_refuses_duplicate_keys(tmp_table_root, ray_session):
    # review finding: applying one key's drop indexes to two rows would
    # delete the wrong lines -- the precondition is validated loudly
    from engine.jobs import dedup_lines, ingest

    t = pa.table({
        "url": pa.array(["u", "u"], pa.string()),
        "warc_ts": pa.array([1, 2], pa.timestamp("us")),
        "text": pa.array(["a\nb", "b"], pa.string()),
        "lang": pa.array(["en", "en"], pa.string()),
    })
    tab = Table.create(tmp_table_root)
    ingest(tab, ray.data.from_arrow(t), CFG, sanitize_cols=())
    with pytest.raises(Exception, match="unique 'url' keys"):
        dedup_lines(tab, CFG)
