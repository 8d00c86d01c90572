"""Table.scan planned from the manifest: parity with Ray's read_parquet
on a schema-evolved table, the point read, the sub-block driver read,
pinned block counts, and no footer fetch at plan time."""

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from engine.manifest import FileEntry, Table
from engine.writer import write_block

SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("n", pa.int64()),
        ("__zkey", pa.uint64()),
    ]
)
STATS = ("url", "lang")


def _write(t: Table, name: str, tbl: pa.Table) -> FileEntry:
    d = write_block(tbl, t.data_dir, "x", stats_cols=STATS, filename=name)
    # urls are high-cardinality: a real file is over the writer's
    # distinct-set cap and records only min/max for them
    d["distincts"].pop("url", None)
    return FileEntry.from_json(d)


def _evolved(root: str, schema=SCHEMA):
    """Three files: a lacks ``lang`` and holds the NULL and empty urls,
    b is full width, c lacks ``text`` and carries the hidden ``__zkey``.
    Every file's url range spans u0..u9, so min/max prunes nothing."""
    t = Table.create(root)
    a = pa.table(
        {
            "url": ["u0", None, "", "u5", "u9"],
            "text": ["a0", "anull", "aempty", "a5", "a9"],
            "n": pa.array([0, 1, 2, 3, 4], pa.int64()),
        }
    )
    b = pa.table(
        {
            "url": ["u0", "u3", "u9"],
            "text": ["b0", "b3", "b9"],
            "lang": ["en", "en", "en"],
            "n": pa.array([5, 6, 7], pa.int64()),
        }
    )
    c = pa.table(
        {
            "url": ["u1", "u4", "u9"],
            "lang": ["zh", "zh", "zh"],
            "n": pa.array([8, 9, 10], pa.int64()),
            "__zkey": pa.array([1, 2, 3], pa.uint64()),
        }
    )
    files = [_write(t, f"{k}.parquet", v) for k, v in (("a", a), ("b", b), ("c", c))]
    t.commit("ingest", files, schema=schema)
    return t, files


def _arrow(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _sorted(tbl: pa.Table) -> list:
    return sorted(tbl.to_pylist(), key=repr)


def _reference(files, columns):
    """The pre-manifest-planned read: Ray's parquet reader with the full
    manifest schema, then the projection."""
    return ray.data.read_parquet([f.path for f in files], schema=SCHEMA).select_columns(
        columns
    )


VISIBLE = ["url", "text", "lang", "n"]


@pytest.mark.parametrize("blocks", [None, 2])
def test_full_scan_matches_read_parquet(tmp_table_root, blocks):
    t, files = _evolved(tmp_table_root)
    got = t.scan(override_num_blocks=blocks)
    assert got.schema().names == VISIBLE
    exp = _arrow(_reference(files, VISIBLE))
    tbl = _arrow(got)
    assert tbl.schema == exp.schema
    assert _sorted(tbl) == _sorted(exp)
    # NULL and empty urls survive as themselves
    urls = tbl.column("url").to_pylist()
    assert None in urls and "" in urls


def test_projection_naming_column_some_files_lack(tmp_table_root):
    t, files = _evolved(tmp_table_root)
    for cols in (["lang"], ["text", "url"], ["__zkey", "url"]):
        got = _arrow(t.scan(columns=cols))
        exp = _arrow(_reference(files, cols))
        assert got.column_names == cols
        assert _sorted(got) == _sorted(exp)


def _matching(files, url, columns=VISIBLE):
    """read_parquet's rows whose url equals ``url`` (NULL never does),
    projected to ``columns``."""
    exp = _arrow(_reference(files, ["url"] + [c for c in columns if c != "url"]))
    return exp.filter(pc.fill_null(pc.equal(exp.column("url"), url), False)).select(columns)


def test_point_read_hit_returns_only_matching_rows(tmp_table_root):
    t, files = _evolved(tmp_table_root)
    # u3 is only in b although every file's url range covers it
    got = _arrow(t.scan(predicate_stats={"url": ("u3", "u3")}))
    assert got.schema == _matching(files, "u3").schema
    assert _sorted(got) == _sorted(_matching(files, "u3")) != []
    # u9 is in every file: one row from each
    got = _arrow(t.scan(predicate_stats={"url": ("u9", "u9")}))
    assert _sorted(got) == _sorted(_matching(files, "u9"))
    assert len(got) == len(files)


def test_point_probe_miss_and_empty_url(tmp_table_root):
    t, files = _evolved(tmp_table_root)
    # u2 sits inside every file's [min, max] but no file holds it
    miss = t.scan(predicate_stats={"url": ("u2", "u2")})
    assert miss.schema().names == VISIBLE
    assert miss.count() == 0
    # the empty url is a value like any other; NULL never matches, also
    # for urls in a, the file holding the NULL url
    empty = _arrow(t.scan(predicate_stats={"url": ("", "")}))
    assert empty.column("text").to_pylist() == ["aempty"]
    for url in ("", "u0", "u5"):
        got = _arrow(t.scan(predicate_stats={"url": (url, url)}))
        assert _sorted(got) == _sorted(_matching(files, url)) != []
        assert "anull" not in got.column("text").to_pylist()
    # a range predicate is not a point: no point read, min/max only
    rng = t.scan(predicate_stats={"url": ("u2", "u2~")})
    assert rng.count() == sum(f.rows for f in files)


def test_probe_skips_columns_with_distinct_sets(tmp_table_root, monkeypatch):
    """lang has a manifest distinct set: a point predicate on it opens
    no file the set rules out (b), probes the key column of a file
    without a set (a: no lang column, so no row matches) and reads only
    the file whose set holds the value (c)."""
    t, files = _evolved(tmp_table_root)
    assert all("lang" in f.distincts for f in files[1:])
    opened = []
    real = pq.ParquetFile
    monkeypatch.setattr(pq, "ParquetFile", lambda p, *a, **k: opened.append(p) or real(p, *a, **k))
    got = _arrow(t.scan(predicate_stats={"lang": ("zh", "zh")}, override_num_blocks=1))
    assert sorted(opened) == sorted([files[0].path, files[2].path])
    assert got.column("lang").to_pylist() == ["zh"] * files[2].rows


def test_empty_plan_keeps_schema(tmp_table_root):
    t, _ = _evolved(tmp_table_root)
    # zz is pruned by min/max; u2 is a point read that matches no row
    for url in ("zz", "u2"):
        ds = t.scan(columns=["url", "lang"], predicate_stats={"url": (url, url)})
        assert ds.schema().names == ["url", "lang"]
        assert ds.count() == 0
    ds = t.scan(columns=["n", "lang"], predicate_stats={"url": ("u2", "u2")})
    assert ds.schema().types == [pa.int64(), pa.string()]
    assert _arrow(ds).num_rows == 0
    assert t.scan(predicate_stats={"lang": ("xx", "xx")}).schema().names == VISIBLE


def test_legacy_manifest_without_schema_reads_footers(tmp_table_root):
    t = Table.create(tmp_table_root)
    a = _write(t, "a.parquet", pa.table({"url": ["u1"], "__zkey": pa.array([1], pa.uint64())}))
    b = _write(t, "b.parquet", pa.table({"url": ["u2"], "lang": ["en"]}))
    t.commit("ingest", [a, b])
    assert t.arrow_schema() is None
    got = _arrow(t.scan())
    assert got.column_names == ["url", "lang"]
    assert sorted(got.to_pylist(), key=lambda r: r["url"]) == [
        {"url": "u1", "lang": None},
        {"url": "u2", "lang": "en"},
    ]
    assert _arrow(t.scan(columns=["__zkey"])).column("__zkey").null_count == 1


def test_planning_opens_no_footer(tmp_table_root, monkeypatch):
    """Building a scan -- default, projected, pruned, pinned -- and
    reading its schema touch no Parquet file on the driver; only the
    read tasks (in workers) do."""
    t, files = _evolved(tmp_table_root)

    def boom(*a, **k):
        raise AssertionError("parquet file opened while planning a scan")

    import pyarrow.dataset as pads

    for mod, name in (
        (pq, "ParquetFile"),
        (pq, "read_schema"),
        (pq, "read_metadata"),
        (pq, "read_table"),
        (pq, "ParquetDataset"),
        (pads, "dataset"),
    ):
        monkeypatch.setattr(mod, name, boom)
    plans = [
        t.scan(override_num_blocks=2),
        t.scan(columns=["lang"], override_num_blocks=2),
        t.scan(predicate_stats={"lang": ("en", "en~")}, override_num_blocks=1),
    ]
    for ds in plans:
        assert ds.schema() is not None
    monkeypatch.undo()
    assert [ds.count() for ds in plans] == [11, 11, 8]


def test_sub_block_plan_has_no_read_task(tmp_table_root, monkeypatch):
    """Files totalling <= DataContext.target_min_block_size are read on
    the driver into one block; above it, or with a pinned block count,
    the scan plans read tasks."""
    t, files = _evolved(tmp_table_root)
    called = []
    real = ray.data.read_datasource
    monkeypatch.setattr(
        ray.data, "read_datasource", lambda *a, **k: called.append(k) or real(*a, **k)
    )
    assert t.scan().count() == 11
    assert called == []
    ctx = ray.data.DataContext.get_current()
    monkeypatch.setattr(ctx, "target_min_block_size", 1)
    assert t.scan().count() == 11
    assert len(called) == 1


def test_pinned_block_count_is_kept(tmp_table_root):
    """merge's distributed scan pins its block count at the read: the
    same count Ray's parquet reader gives for the same files."""
    t, files = _evolved(tmp_table_root)
    for blocks in (1, 2, 3, 5):
        ds = t.scan(override_num_blocks=blocks).materialize()
        ref = ray.data.read_parquet(
            [f.path for f in files], schema=SCHEMA, override_num_blocks=blocks
        ).materialize()
        assert ds.num_blocks() == ref.num_blocks() >= blocks
        assert ds.count() == 11


def test_probe_skipped_above_small_table_bytes(tmp_table_root, monkeypatch):
    """The point read decodes key columns on the driver, so candidates
    over SMALL_TABLE_BYTES are not point-read: every min/max candidate
    is read by the tasks instead, and no file is opened at plan time."""
    import engine.manifest as manifest

    t, files = _evolved(tmp_table_root)
    monkeypatch.setattr(manifest, "SMALL_TABLE_BYTES", sum(f.bytes for f in files) - 1)
    opened = []
    real = pq.ParquetFile
    monkeypatch.setattr(pq, "ParquetFile", lambda p, *a, **k: opened.append(p) or real(p, *a, **k))
    ds = t.scan(predicate_stats={"url": ("u3", "u3")}, override_num_blocks=1)
    assert opened == []
    # unpinned, and over the sub-block limit too: read tasks run
    monkeypatch.setattr(ray.data.DataContext.get_current(), "target_min_block_size", 1)
    called = []
    real_read = ray.data.read_datasource
    monkeypatch.setattr(
        ray.data, "read_datasource", lambda *a, **k: called.append(k) or real_read(*a, **k)
    )
    unpinned = t.scan(predicate_stats={"url": ("u3", "u3")})
    assert opened == [] and len(called) == 1
    monkeypatch.undo()
    assert ds.count() == unpinned.count() == sum(f.rows for f in files)


def test_read_task_streams_runs_of_files(tmp_table_root, monkeypatch):
    """A read task yields its files FILES_PER_RUN at a time instead of
    one table of the whole group, and reports a decoded-size estimate."""
    import engine.manifest as manifest

    t, files = _evolved(tmp_table_root)
    monkeypatch.setattr(manifest, "FILES_PER_RUN", 2)
    (task,) = manifest._ManifestFiles(files, t.arrow_schema()).get_read_tasks(1)
    runs = list(task())
    assert [len(r) for r in runs] == [files[0].rows + files[1].rows, files[2].rows]
    assert task.metadata.size_bytes == sum(f.bytes for f in files) * (
        manifest.DECODED_BYTES_PER_FILE_BYTE
    )


def test_point_read_projection_without_the_key(tmp_table_root):
    """The mask comes from the key column even when the projection
    leaves it out: rows equal read_parquet's filtered, then projected."""
    t, files = _evolved(tmp_table_root)
    for url in ("u0", "u9", "u4"):
        for cols in (["text", "n"], ["lang"], ["__zkey", "n"]):
            got = _arrow(t.scan(columns=cols, predicate_stats={"url": (url, url)}))
            assert got.column_names == cols
            assert _sorted(got) == _sorted(_matching(files, url, cols)) != []


def test_point_read_returns_every_version(tmp_table_root):
    """An un-merged table holds u9 in all three files: the point read
    returns each file's row, schema-evolved columns null-filled."""
    t, files = _evolved(tmp_table_root)
    got = _arrow(t.scan(predicate_stats={"url": ("u9", "u9")}))
    assert sorted(got.to_pylist(), key=lambda r: r["n"]) == [
        {"url": "u9", "text": "a9", "lang": None, "n": 4},
        {"url": "u9", "text": "b9", "lang": "en", "n": 7},
        {"url": "u9", "text": None, "lang": "zh", "n": 10},
    ]


@pytest.mark.parametrize(
    "kwargs,rows",
    [
        ({"predicate_stats": {"url": ("u9", "u9")}}, 3),
        ({"predicate_stats": {"url": ("u2", "u2")}}, 0),
        ({}, 11),
    ],
    ids=["point", "point_miss", "sub_block"],
)
def test_driver_read_is_already_executed(tmp_table_root, monkeypatch, kwargs, rows):
    """A point read or a sub-block read starts no read task; consuming
    it constructs no streaming executor, and neither building nor
    consuming it asks the raylets for memory stats (``materialize()``
    would, twice)."""
    import ray.data._internal.plan as plan
    from ray.data._internal.execution import streaming_executor

    t, files = _evolved(tmp_table_root)

    def boom(*a, **k):
        raise AssertionError("driver-side read planned a read task or an executor")

    memory_info = []
    monkeypatch.setattr(ray.data, "read_datasource", boom)
    monkeypatch.setattr(streaming_executor.StreamingExecutor, "__init__", boom)
    monkeypatch.setattr(plan, "get_memory_info_reply", lambda *a, **k: memory_info.append(a))
    ds = t.scan(**kwargs)
    got = [b.num_rows for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)]
    assert sum(got) == ds.count() == rows
    assert ds.schema().names == VISIBLE
    assert memory_info == []


def test_point_read_above_point_read_bytes_uses_read_tasks(tmp_table_root, monkeypatch):
    """Files holding the key that total more than POINT_READ_BYTES are
    not decoded on the driver beyond their key column: they go whole to
    the read tasks, and the files without the key stay dropped."""
    import engine.manifest as manifest

    t, files = _evolved(tmp_table_root)
    want = {url: _sorted(_matching(files, url)) for url in ("u3", "u9")}
    reads = []

    class Spy(pq.ParquetFile):
        def read(self, columns=None, **k):
            reads.append(columns)
            return super().read(columns=columns, **k)

    monkeypatch.setattr(pq, "ParquetFile", Spy)
    monkeypatch.setattr(ray.data.DataContext.get_current(), "target_min_block_size", 1)
    planned = []
    real_read = ray.data.read_datasource
    monkeypatch.setattr(
        ray.data,
        "read_datasource",
        lambda src, **k: planned.append([f.path for f in src._files]) or real_read(src, **k),
    )
    # u3 is only in b; u9 is in every file
    for url, holders in (("u3", [files[1]]), ("u9", files)):
        monkeypatch.setattr(manifest, "POINT_READ_BYTES", sum(f.bytes for f in holders) - 1)
        reads.clear(), planned.clear()
        ds = t.scan(predicate_stats={"url": (url, url)})
        assert reads == [["url"]] * len(files)
        assert planned == [[f.path for f in holders]]
        assert ds.count() == sum(f.rows for f in holders)
        got = _arrow(ds)
        assert _sorted(got.filter(pc.equal(got.column("url"), url))) == want[url]
    # at the bound the same files are read on the driver, matching rows only
    monkeypatch.setattr(manifest, "POINT_READ_BYTES", files[1].bytes)
    planned.clear()
    got = _arrow(t.scan(predicate_stats={"url": ("u3", "u3")}))
    assert planned == [] and _sorted(got) == want["u3"]
