"""Distributed manifest-aware Parquet sink.

``write_files(ds, ...)`` runs a ``map_batches`` stage in which every task
writes its block to one immutable Parquet file in the table's data dir,
computes per-file min/max stats (A6, SURVEY 2.5) from the in-memory Arrow
block, and emits a single manifest row. Only the *tiny* manifest rows
travel back to the driver (``take_all`` on ~1 row per file), which then
commits the snapshot -- data never funnels through the driver.

Idempotency / retries: file names embed ``uuid4``; a retried task writes
a fresh file and the failed attempt's file is never referenced by the
commit -- orphans are collected by ``Table.gc_orphans()``. (Same
commit-at-end discipline as the reference's raw-first + status-flip
sequence, ``file_service.py:32-55``.)
"""

from __future__ import annotations

import os
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def read_tables_parallel(paths, max_workers: int = 8, read=pq.read_table) -> list:
    """``[read(p) for p in paths]`` with IO overlapped in a thread pool.

    Arrow releases the GIL during IO+decompression, so a bounded pool
    overlaps the per-file open/decode latency; <=2 paths (or zero --
    safe on the empty list) read inline. The ONE shared idiom for every
    small-file read (compact bins, merge/cluster small-table tasks,
    ``Table.scan``'s read tasks, point reads and legacy footer passes) so
    the copies cannot drift."""
    if len(paths) <= 2:
        return [read(p) for p in paths]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(max_workers, len(paths))) as ex:
        return list(ex.map(read, paths))


def _file_stats(block: pa.Table, stats_cols) -> dict:
    stats = {}
    for col in stats_cols:
        if col not in block.column_names or len(block) == 0:
            continue
        arr = block.column(col)
        try:
            mm = pc.min_max(arr)
            lo, hi = mm["min"].as_py(), mm["max"].as_py()
        except pa.ArrowNotImplementedError:
            continue
        if hasattr(lo, "isoformat"):
            lo, hi = lo.isoformat(), hi.isoformat()
        stats[col] = [lo, hi]
    return stats


#: distinct-value sets above this size are not recorded (manifest rows
#: must stay tiny; the stat targets dictionary-like columns: lang,
#: status, content_type -- not urls)
DISTINCT_STAT_CAP = 32


def _file_distincts(block: pa.Table, stats_cols, cap: int = DISTINCT_STAT_CAP) -> dict:
    """Exact per-file distinct sets for low-cardinality STRING columns.

    A 1024-row sample pre-filter skips high-cardinality columns cheaply:
    the distinct count of a subset lower-bounds the full count, so a
    sample exceeding ``cap`` proves the column is over cap without an
    O(n) unique pass (urls bail out here for ~free)."""
    out = {}
    for col in stats_cols:
        if col not in block.column_names or len(block) == 0:
            continue
        arr = block.column(col)
        t = arr.type
        if pa.types.is_dictionary(t):
            t = t.value_type
        if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
            continue
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()  # ONCE: take and unique both reuse it
        if len(block) > 1024:
            # STRIDED sample (not head-of-block): clustered/sorted
            # blocks concentrate values, so a head slice under-counts
            # and lets medium-cardinality columns pay the full O(n)
            # unique only to be discarded at the cap check
            import numpy as np

            idx = np.linspace(0, len(block) - 1, 1024, dtype=np.int64)
            sample = pc.unique(arr.take(pa.array(idx)))
            if len(sample) > cap:
                continue
        vals = pc.unique(arr)
        if len(vals) > cap:
            continue
        out[col] = sorted(v for v in vals.to_pylist() if v is not None)
    return out


def write_block(
    block: pa.Table,
    data_dir: str,
    prefix: str,
    stats_cols=(),
    partition=None,
    filename: str | None = None,
    compression: str = "zstd",
) -> dict:
    """Write one Arrow table as one immutable Parquet file; return the
    manifest-row dict (path/rows/bytes/partition/stats)."""
    name = filename or f"{prefix}-{uuid.uuid4().hex[:12]}.parquet"
    path = os.path.join(data_dir, name)
    tmp = path + f".tmp-{uuid.uuid4().hex[:6]}"
    pq.write_table(block, tmp, compression=compression)
    os.replace(tmp, path)
    return {
        "path": path,
        "rows": len(block),
        "bytes": os.path.getsize(path),
        "partition": partition,
        "stats": _file_stats(block, stats_cols),
        "distincts": _file_distincts(block, stats_cols),
    }


class _BlockWriter:
    """map_batches callable: one input block -> one data file -> one
    manifest row. Stateless besides config; plain-function compute."""

    def __init__(self, data_dir: str, prefix: str, stats_cols, partition_col, compression):
        self.data_dir = data_dir
        self.prefix = prefix
        self.stats_cols = tuple(stats_cols)
        self.partition_col = partition_col
        self.compression = compression

    def __call__(self, block: pa.Table) -> pa.Table:
        if len(block) == 0:
            return pa.table({"manifest_json": pa.array([], type=pa.string())})
        partition = None
        if self.partition_col and self.partition_col in block.column_names:
            # single-valued by construction (upstream partitions by it)
            partition = str(block.column(self.partition_col)[0].as_py())
        entry = write_block(
            block,
            self.data_dir,
            self.prefix,
            stats_cols=self.stats_cols,
            partition=partition,
            compression=self.compression,
        )
        import json

        return pa.table({"manifest_json": pa.array([json.dumps(entry)], type=pa.string())})


def write_files(
    ds,
    data_dir: str,
    prefix: str,
    stats_cols=("url", "lang", "warc_ts"),
    partition_col: str | None = None,
    rows_per_file: int | None = None,
    compression: str = "zstd",
) -> list:
    """Consume a Dataset into immutable Parquet files; return manifest rows.

    ``rows_per_file`` repartitions first so block size ~ file size;
    leave None to map 1 input block -> 1 file (streaming, no extra
    exchange).
    """
    import json

    from engine.manifest import FileEntry

    if rows_per_file:
        ds = ds.repartition(target_num_rows_per_block=rows_per_file)
    out = ds.map_batches(
        _BlockWriter(data_dir, prefix, stats_cols, partition_col, compression),
        batch_format="pyarrow",
        batch_size=None,  # whole blocks: 1 block -> 1 file
        zero_copy_batch=True,
    ).take_all()
    return [FileEntry.from_json(json.loads(r["manifest_json"])) for r in out]
