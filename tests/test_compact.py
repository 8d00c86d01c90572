"""Compaction: bin planning, scan equality, resume-after-failure (F5)."""

import pandas as pd
import pyarrow as pa
import pytest

from engine.compact import compact_table, plan_bins
from engine.manifest import FileEntry, Table
from engine.writer import write_block


def _entry(path, bytes_, partition=None, stats=None):
    return FileEntry(path=path, rows=1, bytes=bytes_, partition=partition, stats=stats or {})


def test_plan_bins_packs_to_target():
    files = [_entry(f"f{i}", 30) for i in range(10)]
    bins, untouched = plan_bins(files, target_bytes=100, small_fraction=0.75)
    # 3+3+3 packed; the leftover single-file bin is pointless -> untouched
    assert [len(b) for b in bins] == [3, 3, 3]
    assert len(untouched) == 1
    # no bin exceeds target
    assert all(sum(f.bytes for f in b) <= 100 for b in bins)


def test_plan_bins_skips_large_and_single():
    files = [_entry("big", 90), _entry("s1", 10), _entry("s2", 10), _entry("lone", 10, partition="p2")]
    bins, untouched = plan_bins(files, target_bytes=100, small_fraction=0.75)
    assert {f.path for f in untouched} >= {"big", "lone"}
    assert [sorted(f.path for f in b) for b in bins] == [["s1", "s2"]]


def test_plan_bins_respects_partitions():
    files = [_entry(f"a{i}", 10, partition="en") for i in range(3)] + [
        _entry(f"b{i}", 10, partition="zh") for i in range(3)
    ]
    bins, _ = plan_bins(files, target_bytes=1000)
    parts = [{f.partition for f in b} for b in bins]
    assert all(len(p) == 1 for p in parts)


def _seed_table(root, n_files=8, rows=25) -> Table:
    t = Table.create(root)
    entries = []
    for i in range(n_files):
        tbl = pa.table(
            {
                "url": [f"https://x/{i}-{j}" for j in range(rows)],
                "lang": ["en"] * rows,
                "text": [f"t{i}-{j}" for j in range(rows)],
            }
        )
        d = write_block(tbl, t.data_dir, "seed", stats_cols=("url", "lang"), filename=f"seed-{i}.parquet")
        entries.append(FileEntry.from_json(d))
    t.commit("ingest", entries)
    return t


def test_compact_scan_equality(tmp_table_root, ray_session):
    t = _seed_table(tmp_table_root)
    before = t.scan().to_pandas().sort_values(["url"]).reset_index(drop=True)
    res = compact_table(t, target_bytes=10 * 1024 * 1024, job_id="c1", stats_cols=("url", "lang"))
    assert res["files_after"] < res["files_before"]
    after = t.scan().to_pandas().sort_values(["url"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(before, after)
    # old snapshot still scans identically (snapshot isolation)
    prev = t.scan(snapshot_id=res["snapshot_id"] - 1).to_pandas().sort_values(["url"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(before, prev)


def test_compact_resume_after_injected_failure(tmp_table_root, ray_session):
    t = _seed_table(tmp_table_root, n_files=9)
    # force 3 bins of 3 files each
    sz = t.live_files()[0].bytes
    target = sz * 3 + 100
    with pytest.raises(RuntimeError, match="injected failure"):
        compact_table(t, target_bytes=target, job_id="c2", stats_cols=("url", "lang"), failpoint_after=1)
    # no snapshot was committed by the failed run
    assert t.snapshot().operation == "ingest"
    res = compact_table(t, target_bytes=target, job_id="c2", stats_cols=("url", "lang"))
    assert res["bins_skipped_resume"] >= 1
    after = t.scan().to_pandas().sort_values(["url"]).reset_index(drop=True)
    assert len(after) == 9 * 25
    # uninterrupted run on an identical seed produces the same manifest row set
    t2 = _seed_table(tmp_table_root + "_b", n_files=9)
    res2 = compact_table(t2, target_bytes=target, job_id="c2", stats_cols=("url", "lang"))
    assert res2["files_after"] == res["files_after"]
    assert t2.snapshot().total_rows == t.snapshot().total_rows


def test_plan_bins_mixed_stat_types():
    # regression: int __zkey stats next to str url stats raised TypeError
    files = [
        _entry("z1", 10, stats={"__zkey": [123, 456]}),
        _entry("u1", 10, stats={"url": ["http://a", "http://b"]}),
        _entry("z2", 10, stats={"__zkey": [789, 999]}),
    ]
    bins, untouched = plan_bins(files, target_bytes=100)
    assert sum(len(b) for b in bins) + len(untouched) == 3


def test_compact_resume_rebinds_by_content_not_ordinal(tmp_table_root, ray_session):
    # ADVICE r1: resume entries are keyed by a content id (hash of the
    # bin's input paths); if the snapshot changed between crash and
    # resume, stale entries must NOT be skipped by planning ordinal.
    import pyarrow as pa
    from engine.manifest import JobLog, Table
    from pages_fixture import synth_pages_table
    from engine.writer import write_files
    import ray.data

    t = Table.create(tmp_table_root)
    full = synth_pages_table(240)
    entries = write_files(
        ray.data.from_arrow(full), t.data_dir, prefix="seed",
        stats_cols=("url", "lang"), rows_per_file=40,
    )
    t.commit("seed", add_files=entries, schema=None)
    target = max(f.bytes for f in t.live_files()) * 3

    with pytest.raises(RuntimeError, match="injected failure"):
        compact_table(t, target_bytes=target, job_id="cr", stats_cols=("url", "lang"),
                      failpoint_after=1)
    log = JobLog(t, "cr")
    done_before = set(log.committed())
    assert len(done_before) == 1
    bin_pid = next(iter(done_before))
    assert not bin_pid.startswith("bin-0000")  # content id, not ordinal

    # snapshot moves on between crash and resume: an extra small file
    # appears, so bins re-plan differently
    extra = write_files(
        ray.data.from_arrow(synth_pages_table(40)), t.data_dir, prefix="late",
        stats_cols=("url", "lang"), rows_per_file=40,
    )
    t.commit("late-add", add_files=extra, schema=None)

    res = compact_table(t, target_bytes=target, job_id="cr", stats_cols=("url", "lang"))
    # every row present exactly once despite the replan
    assert t.snapshot().total_rows == 280
    assert len(t.scan().to_pandas()) == 280
    # the pre-crash bin is only skipped if its exact input set replanned
    assert res["bins_skipped_resume"] in (0, 1)
