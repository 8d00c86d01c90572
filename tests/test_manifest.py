"""Manifest log: snapshot commits, scan pruning, snapshot isolation,
expiration + refcount GC, orphan collection (L1-L4)."""

import os

import pyarrow as pa
import pytest

from engine.manifest import FileEntry, JobLog, Table
from engine.writer import write_block


def _mk_file(t: Table, name: str, rows=10, lang=("en", "en")) -> FileEntry:
    tbl = pa.table({"url": [f"u{i}" for i in range(rows)], "lang": [lang[0]] * rows})
    d = write_block(tbl, t.data_dir, "x", stats_cols=("url", "lang"), filename=name)
    return FileEntry.from_json(d)


def test_commit_and_current(tmp_table_root):
    t = Table.create(tmp_table_root)
    assert t.current_snapshot_id() == 0
    fe = _mk_file(t, "a.parquet")
    s1 = t.commit("ingest", [fe])
    assert s1.snapshot_id == 1 and s1.parent_id == 0
    assert [f.path for f in t.live_files()] == [fe.path]
    assert t.snapshot().total_rows == 10


def test_next_snapshot_id_is_the_id_commit_takes(tmp_table_root):
    t = Table(tmp_table_root)
    os.makedirs(t.jobs_dir)
    os.makedirs(t.data_dir)
    assert t.current_snapshot_id() is None and t.next_snapshot_id() == 0
    assert t.commit("create", []).snapshot_id == 0
    assert t.next_snapshot_id() == 1
    assert t.commit("ingest", [_mk_file(t, "a.parquet")]).snapshot_id == 1


def test_remove_files_and_isolation(tmp_table_root):
    t = Table.create(tmp_table_root)
    a = _mk_file(t, "a.parquet")
    t.commit("ingest", [a])
    b = _mk_file(t, "b.parquet")
    t.commit("rewrite", [b], remove_files=[a.path])
    # current sees only b; snapshot 1 still sees a (snapshot isolation)
    assert [f.path for f in t.live_files()] == [b.path]
    assert [f.path for f in t.live_files(snapshot_id=1)] == [a.path]
    assert os.path.exists(a.path)


def test_stats_pruning(tmp_table_root):
    t = Table.create(tmp_table_root)
    en = _mk_file(t, "en.parquet", lang=("en", "en"))
    zh = _mk_file(t, "zh.parquet", lang=("zh", "zh"))
    t.commit("ingest", [en, zh])
    files = t.live_files()
    from engine.manifest import _stats_overlap

    hit = [f for f in files if _stats_overlap(f, {"lang": ("zh", "zh")})]
    assert [os.path.basename(f.path) for f in hit] == ["zh.parquet"]


def test_expire_refcount_gc(tmp_table_root):
    t = Table.create(tmp_table_root)
    a = _mk_file(t, "a.parquet")
    s1 = t.commit("ingest", [a], timestamp=1000.0)
    b = _mk_file(t, "b.parquet")
    t.commit("rewrite", [b], remove_files=[a.path], timestamp=2000.0)
    # shared file c referenced by snapshot 3 too
    res = t.expire_snapshots(ttl_seconds=500.0, now=3000.0)
    # snapshots 0 (create) and 1 expired; a.parquet unreferenced -> GC'd
    assert s1.snapshot_id in res["expired_snapshots"]
    assert not os.path.exists(a.path)
    assert os.path.exists(b.path)
    # current snapshot scan still intact
    assert t.snapshot().total_rows == 10


def test_expire_keeps_shared_files(tmp_table_root):
    t = Table.create(tmp_table_root)
    a = _mk_file(t, "a.parquet")
    t.commit("ingest", [a], timestamp=1000.0)
    b = _mk_file(t, "b.parquet")
    t.commit("append", [b], timestamp=2000.0)  # a still referenced by current
    t.expire_snapshots(ttl_seconds=500.0, now=3000.0)
    assert os.path.exists(a.path) and os.path.exists(b.path)
    assert t.snapshot().total_rows == 20


def test_gc_orphans(tmp_table_root):
    t = Table.create(tmp_table_root)
    a = _mk_file(t, "a.parquet")
    t.commit("ingest", [a])
    orphan = os.path.join(t.data_dir, "failed-task-debris.parquet")
    pa_table = pa.table({"x": [1]})
    import pyarrow.parquet as pq

    pq.write_table(pa_table, orphan)
    removed = t.gc_orphans()
    assert [os.path.basename(p) for p in removed] == ["failed-task-debris.parquet"]
    assert os.path.exists(a.path)


def test_job_log_resume(tmp_table_root):
    t = Table.create(tmp_table_root)
    log = JobLog(t, "job1")
    log.record("bin-0", ["i1"], [{"path": "o1", "rows": 1, "bytes": 1, "partition": None, "stats": {}}], rows=1)
    log.record("bin-1", ["i2"], [{"path": "o2", "rows": 2, "bytes": 1, "partition": None, "stats": {}}], rows=2, state="failed", error="boom")
    done = JobLog(t, "job1").committed()
    assert set(done) == {"bin-0"}


def test_scan_hides_internal_columns(tmp_table_root):
    t = Table.create(tmp_table_root)
    tbl = pa.table({"url": ["u"], "__zkey": pa.array([1], pa.uint64())})
    d = write_block(tbl, t.data_dir, "x", filename="z.parquet")
    t.commit("ingest", [FileEntry.from_json(d)])
    assert t.scan().schema().names == ["url"]


def test_gc_orphans_spares_joblog_outputs(tmp_table_root):
    # regression: a crashed resumable job's outputs live only in the
    # JobLog until final commit; GC must not delete them
    t = Table.create(tmp_table_root)
    fe = _mk_file(t, "shard-out.parquet")
    JobLog(t, "jobX").record("shard-0", ["in1"], [fe.to_json()], rows=fe.rows)
    removed = t.gc_orphans()
    assert removed == []
    assert os.path.exists(fe.path)


def test_scan_uses_manifest_schema_across_evolution(tmp_table_root, ray_session):
    # regression: default scan took visible columns from the FIRST
    # file's footer, dropping schema-evolved columns
    import pyarrow.parquet as pq

    t = Table.create(tmp_table_root)
    a = pa.table({"url": ["u1"], "__zkey": pa.array([1], pa.uint64())})
    b = pa.table({"url": ["u2"], "lang": ["en"]})
    from engine.writer import write_block

    fa = FileEntry.from_json(write_block(a, t.data_dir, "x", filename="a.parquet"))
    fb = FileEntry.from_json(write_block(b, t.data_dir, "x", filename="b.parquet"))
    t.commit("ingest", [fa, fb], schema=pa.schema([("url", pa.string()), ("lang", pa.string()), ("__zkey", pa.uint64())]))
    df = t.scan().to_pandas().sort_values("url").reset_index(drop=True)
    assert list(df.columns) == ["url", "lang"]  # hidden col dropped, evolved col kept
    assert df.lang.tolist()[1] == "en" and df.lang.isna().tolist()[0]


def test_distinct_value_stats_recorded_and_capped(tmp_table_root):
    """Writer records exact distinct sets for low-cardinality string
    columns and skips high-cardinality ones (urls bail via the sample
    pre-filter; cap = DISTINCT_STAT_CAP)."""
    t = Table.create(tmp_table_root)
    tbl = pa.table(
        {
            "url": [f"https://e{i}.com/p" for i in range(2000)],
            "lang": (["en", "de", "fr"] * 700)[:2000],
            "n": list(range(2000)),
        }
    )
    d = write_block(tbl, t.data_dir, "x", stats_cols=("url", "lang", "n"))
    fe = FileEntry.from_json(d)
    assert fe.distincts == {"lang": ["de", "en", "fr"]}  # url over cap; n non-string


def test_distinct_membership_pruning_beats_minmax(tmp_table_root):
    """A file with langs {ar, zh} has min/max (ar, zh) which OVERLAPS a
    lang='de' point predicate -- only the distinct set can prune it."""
    t = Table.create(tmp_table_root)

    def mk(name, langs):
        tbl = pa.table({"url": [f"u{i}" for i in range(len(langs))], "lang": list(langs)})
        return FileEntry.from_json(
            write_block(tbl, t.data_dir, "x", stats_cols=("url", "lang"), filename=name)
        )

    wide = mk("wide.parquet", ["ar", "zh"] * 5)
    de = mk("de.parquet", ["de"] * 10)
    t.commit("ingest", [wide, de])
    from engine.manifest import _stats_overlap

    hit = [f for f in t.live_files() if _stats_overlap(f, {"lang": ("de", "de")})]
    assert [os.path.basename(f.path) for f in hit] == ["de.parquet"]
    # range predicate spanning both sets keeps both
    hit = [f for f in t.live_files() if _stats_overlap(f, {"lang": ("aa", "zz")})]
    assert len(hit) == 2


def test_old_manifest_without_distincts_roundtrips(tmp_table_root):
    """Manifests written before the distincts stat load with an empty
    dict and never prune on it."""
    fe = FileEntry.from_json({"path": "p", "rows": 1, "bytes": 1, "partition": None, "stats": {"lang": ["en", "en"]}})
    assert fe.distincts == {}
    from engine.manifest import _stats_overlap

    assert _stats_overlap(fe, {"lang": ("en", "en")})
    assert not _stats_overlap(fe, {"lang": ("zh", "zh")})  # min/max still prunes


def test_codes_from_manifest_matches_scan(tmp_table_root):
    t = Table.create(tmp_table_root)
    tbl_a = pa.table({"url": ["a", "b"], "lang": ["zh", "en"]})
    tbl_b = pa.table({"url": ["c"], "lang": ["de"]})
    fa = FileEntry.from_json(write_block(tbl_a, t.data_dir, "x", stats_cols=("lang",), filename="a.parquet"))
    fb = FileEntry.from_json(write_block(tbl_b, t.data_dir, "x", stats_cols=("lang",), filename="b.parquet"))
    t.commit("ingest", [fa, fb])
    from engine.jobs import _codes_from_manifest

    assert _codes_from_manifest(t.live_files(), "lang") == {"de": 0, "en": 1, "zh": 2}
    # a file missing the stat forces the scan fallback (returns None)
    fb_nostat = FileEntry(path=fb.path, rows=fb.rows, bytes=fb.bytes)
    t.commit("rewrite", [fa, fb_nostat], remove_files=[fa.path, fb.path])
    assert _codes_from_manifest(t.live_files(), "lang") is None


def test_open_bounds_keep_all_null_distinct_file(tmp_table_root):
    """(None, None) bounds mean 'no constraint': a file whose stats
    column is entirely null (distincts == []) must be kept, while a
    real point predicate still prunes it."""
    t = Table.create(tmp_table_root)
    tbl = pa.table({"url": ["u1", "u2"], "lang": pa.array([None, None], pa.string())})
    fe = FileEntry.from_json(
        write_block(tbl, t.data_dir, "x", stats_cols=("lang",), filename="nulls.parquet")
    )
    assert fe.distincts == {"lang": []}
    from engine.manifest import _stats_overlap

    assert _stats_overlap(fe, {"lang": (None, None)})       # open bounds: keep
    assert not _stats_overlap(fe, {"lang": ("en", "en")})   # no non-null values: prune


def test_schema_ipc_roundtrips_parameterized_types(tmp_table_root, ray_session):
    """The manifest schema round trip must be EXACT for types outside
    the legacy 10-entry str(type) map -- bool, tz-aware/ns timestamps,
    list<float> (an IVF index table's embedding column). The old
    fallback silently mapped these to pa.string(), corrupting the next
    scan."""
    schema = pa.schema(
        [
            ("url", pa.string()),
            ("ok", pa.bool_()),
            ("warc_ts", pa.timestamp("ns", tz="UTC")),
            ("embedding", pa.list_(pa.float32())),
            ("d", pa.date32()),
        ]
    )
    t = Table.create(tmp_table_root, schema=schema)
    assert t.arrow_schema() == schema
    # inherited (schema=None) commits carry the ipc forward
    t.commit("noop", add_files=[])
    assert t.arrow_schema() == schema
    # a table with data in those types scans back type-intact
    tbl = pa.table(
        {
            "url": ["a", "b"],
            "ok": [True, False],
            "warc_ts": pa.array([1, 2], pa.timestamp("ns", tz="UTC")),
            "embedding": pa.array([[1.0], [2.0]], pa.list_(pa.float32())),
            "d": pa.array([0, 1], pa.date32()),
        }
    )
    fe = FileEntry.from_json(write_block(tbl, t.data_dir, "x", filename="a.parquet"))
    t.commit("ingest", [fe], schema=tbl.schema)
    out = t.scan().take_all()
    assert t.arrow_schema() == tbl.schema
    assert sorted(r["url"] for r in out) == ["a", "b"]


def test_legacy_manifest_unknown_type_raises(tmp_table_root):
    """Pre-schema_ipc manifests with a type outside the map must fail
    LOUD, not silently read the column as string."""
    import json

    t = Table.create(tmp_table_root)
    snap_path = t._snap_path(0)
    with open(snap_path) as f:
        header = json.loads(f.readline())
    header["schema"] = [["ok", "bool"]]
    header.pop("schema_ipc", None)
    with open(snap_path, "w") as f:
        f.write(json.dumps(header) + "\n")
    with pytest.raises(ValueError, match="bool"):
        t.arrow_schema()


def test_operation_snapshot_ignores_orphan_beyond_current(tmp_table_root):
    """A crash between snapshot-file write and the CURRENT swap leaves
    an orphan snapshot; a resumed job must NOT treat it as
    already-committed (the commit never took effect)."""
    import json
    import shutil

    t = Table.create(tmp_table_root)
    a = _mk_file(t, "a.parquet")
    t.commit("job:alpha", [a])
    cur = os.path.join(t.manifest_dir, "CURRENT")
    with open(cur) as f:
        saved = f.read()
    # simulate the crash: commit job:beta fully, then roll CURRENT back
    b = _mk_file(t, "b.parquet")
    t.commit("job:beta", [b])
    with open(cur, "w") as f:
        f.write(saved)
    assert t.operation_snapshot("job:alpha") == 1
    assert t.operation_snapshot("job:beta") is None
    # the orphan id is reused by the next real commit
    c = _mk_file(t, "c.parquet")
    s = t.commit("job:gamma", [c])
    assert s.snapshot_id == 2
    assert t.operation_snapshot("job:gamma") == 2


def test_empty_scan_honors_projection(tmp_table_root, ray_session):
    """scan(columns=...) on a zero-file snapshot (fresh table, or all
    files stats-pruned) must return the projected schema, and the
    default scan must hide __internal columns -- consumers chain
    unique()/union() onto the result."""
    schema = pa.schema(
        [("url", pa.string()), ("lang", pa.string()), ("__list", pa.int64())]
    )
    t = Table.create(tmp_table_root, schema=schema)
    ds = t.scan(columns=["lang"])
    assert ds.schema().names == ["lang"]
    from engine.zorder import collect_lang_codes

    assert collect_lang_codes(ds) == {}
    assert t.scan().schema().names == ["url", "lang"]
    # stats-pruned-to-empty keeps the projection too
    fe = _mk_file(t, "en.parquet", lang=("en", "en"))
    t.commit("ingest", [fe], schema=schema)
    pruned = t.scan(columns=["lang"], predicate_stats={"lang": ("zz", "zz")})
    assert pruned.schema().names == ["lang"]
