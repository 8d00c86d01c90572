"""End-to-end maintenance jobs over a manifest Table (SURVEY 3.x traces).

Each job is: build a lazy Dataset pipeline -> stream it into immutable
parquet files via :mod:`engine.writer` -> commit ONE snapshot on the
driver (atomic manifest rename). None of these call ``ray.init``.

Jobs
----
- :func:`ingest`          schema-evolving ingest + sanitize (3.1 trace)
- :func:`merge_into`      MERGE INTO by url, LWW warc_ts (M1 milestone)
- :func:`compact`         bin-packing compaction (engine.compact)
- :func:`cluster`         Z-order/Hilbert clustering rewrite (M3)
- :func:`expire`          snapshot TTL + refcount GC (M4)
- :func:`full_maintenance` ingest -> merge -> compact -> cluster -> expire
"""

from __future__ import annotations

import hashlib
import uuid
from typing import Optional

import pyarrow as pa
import ray.data
from ray.data.dataset import MaterializedDataset

from engine.config import EngineConfig
from engine.manifest import (
    SMALL_TABLE_BYTES,
    FileEntry,
    JobLog,
    Table,
    align_to_schema,
    read_task_count,
    unify_parquet_schemas,
)
from engine.merge import merge_datasets
from engine.sanitize import sanitize_stage
from engine.writer import write_files
from engine.zorder import ZKEY_COL, cluster_dataset, collect_lang_codes
from engine import compact as compact_mod


# ---------------------------------------------------------------------------
# schema evolution (reference: dynamic field growth, transposer.py:48-49)
# ---------------------------------------------------------------------------

def evolved_read(paths: list, columns: Optional[list] = None) -> "ray.data.Dataset":
    """read_parquet across files with heterogeneous-but-unifiable schemas:
    missing columns surface as nulls (the manifest's ``fields`` list grown
    dynamically, reference ``transposer.py:48-49``).

    ``columns`` projects AFTER the schema-unified read: passing a
    partial schema together with ``columns=`` to read_parquet fails on
    any file missing a selected column (the reader validates each
    file's pruned schema against the partial one), the same limitation
    ``Table.scan`` documents."""
    schema = unify_parquet_schemas(paths)
    ds = ray.data.read_parquet(paths, schema=schema)
    if columns:
        ds = ds.select_columns(list(columns))
    return ds


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def _shuffle_blocks(
    table: Table,
    cfg: Optional[EngineConfig] = None,
    cpu_floor: bool = True,
    live: Optional[list] = None,
) -> int:
    """Block/partition count for shuffle stages, from manifest bytes.
    ``cfg.shuffle_blocks`` overrides (fixed data-derived partitioning,
    identical dataflow across cluster sizes).

    ~32 MB of (compressed) file bytes per block keeps the exchange from
    degenerating into O(blocks x partitions) minuscule objects where it
    becomes scheduling-bound (an all-to-all moves blocks^2 objects
    through the raylet -- in local mode ONE raylet coordinates all of
    them, so keep blocks near the core count, not above it). Bounded at
    4096 (at 10^12 rows raise DataContext.target_max_block_size instead
    of block count). The bytes rule is ``manifest.read_task_count``,
    shared with ``Table.scan``; the floors differ because exchange
    partitions need not hold whole files: at least 8 and up to 64 CPUs
    here, while a scan task reads whole files and floors at
    ``min(files, CPUs)``.
    """
    import ray

    if cfg is not None and cfg.shuffle_blocks:
        return int(cfg.shuffle_blocks)
    total_bytes = sum(f.bytes for f in (live if live is not None else table.live_files()))
    if not cpu_floor:
        return min(4096, read_task_count(total_bytes, 1))
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return min(4096, read_task_count(total_bytes, max(min(64, cpus), 8)))


def ingest(
    table: Table,
    source,
    cfg: Optional[EngineConfig] = None,
    sanitize_cols=("text",),
    rows_per_file: Optional[int] = None,
    job_id: Optional[str] = None,
) -> dict:
    """Ingest a Dataset (or list of parquet paths) into the table:
    sanitize -> write files -> commit snapshot. Raw-first durability is
    inherited from immutability: inputs are never mutated, and a failed
    job commits nothing (reference: raw blob persisted before
    processing, ``file_service.py:32-35``)."""
    cfg = cfg if cfg is not None else EngineConfig()
    job_id = job_id or uuid.uuid4().hex[:8]
    ds = evolved_read(source) if isinstance(source, (list, tuple)) else source
    if sanitize_cols:
        ds = sanitize_stage(ds, columns=sanitize_cols)
    entries = write_files(
        ds,
        table.data_dir,
        prefix=f"ingest-{job_id}",
        stats_cols=cfg.stats_cols,
        rows_per_file=rows_per_file,
    )
    snap = table.commit(f"ingest:{job_id}", add_files=entries, schema=_entries_schema(entries))
    return {"snapshot_id": snap.snapshot_id, "files": len(entries), "rows": snap.total_rows}


def ingest_sharded(
    table: Table,
    paths: list,
    cfg: Optional[EngineConfig] = None,
    job_id: str = "ingest",
    shard_files: int = 16,
    sanitize_cols=("text",),
    rows_per_file: Optional[int] = None,
    failpoint_after: Optional[int] = None,
    fail_shard: Optional[int] = None,
) -> dict:
    """Resumable ingest: input files are processed in shards of
    ``shard_files``; each shard streams through its own pipeline and is
    recorded in the job lineage log as it completes. A rerun with the
    same ``job_id`` skips committed shards and commits ONE snapshot over
    all shard outputs (L1/L2: the ``processed_fs_id`` backfill pattern
    at partition granularity; north_rule "resumable from checkpoint with
    per-partition lineage").

    A shard whose pipeline RAISES is recorded durably in the lineage
    log with ``state="failed"`` and the error before the exception
    propagates (the reference's persisted ``error`` state,
    ``file_service.py:66-81``); a resume retries exactly the failed /
    unrecorded shards.

    ``failpoint_after``: test hook, crash after N shards committed.
    ``fail_shard``: test hook, shard index whose processing raises.
    """
    cfg = cfg if cfg is not None else EngineConfig()
    prior = table.operation_snapshot(f"ingest:{job_id}")
    if prior is not None:
        snap = table.snapshot(prior)
        return {
            "snapshot_id": prior,
            "files": len(snap.files),
            "rows": snap.total_rows,
            "shards": 0,
            "shards_skipped_resume": 0,
            "already_committed": True,
        }
    log = JobLog(table, job_id)
    done = log.committed()
    shards = [paths[i : i + shard_files] for i in range(0, len(paths), shard_files)]
    all_entries = []
    for pid, e in done.items():
        all_entries.extend(FileEntry.from_json(d) for d in e["output_files"])
    completed = len(done)
    for i, shard in enumerate(shards):
        # shard id = content hash of its input paths, NOT the ordinal:
        # a resume whose path list shifted (a glob that picked up new
        # files) must not skip a DIFFERENT file set under a recycled
        # ordinal (same hazard compact.py solves with content-hash bin
        # ids). Ordinal kept in the id only for human-readable logs.
        digest = hashlib.blake2b(
            "\n".join(shard).encode("utf-8"), digest_size=8
        ).hexdigest()
        pid = f"shard-{digest}"
        if pid in done:
            continue
        try:
            if fail_shard is not None and i == fail_shard:
                raise RuntimeError(f"injected shard failure (shard {i}, job {job_id})")
            ds = evolved_read(shard)
            if sanitize_cols:
                ds = sanitize_stage(ds, columns=sanitize_cols)
            entries = write_files(
                ds,
                table.data_dir,
                prefix=f"ingest-{job_id}-{pid}",
                stats_cols=cfg.stats_cols,
                rows_per_file=rows_per_file,
            )
        except Exception as ex:
            log.record(
                pid, input_files=shard, output_files=[], rows=0,
                state="failed", error=ex,
            )
            raise
        log.record(
            pid,
            input_files=shard,
            output_files=[e.to_json() for e in entries],
            rows=sum(e.rows for e in entries),
        )
        all_entries.extend(entries)
        completed += 1
        if failpoint_after is not None and completed >= failpoint_after:
            raise RuntimeError(f"injected failure after {completed} shards (job {job_id})")
    snap = table.commit(
        f"ingest:{job_id}", add_files=all_entries, schema=_entries_schema(all_entries)
    )
    return {
        "snapshot_id": snap.snapshot_id,
        "files": len(all_entries),
        "rows": snap.total_rows,
        "shards": len(shards),
        "shards_skipped_resume": len(done),
    }


def _small_input(live: list, schema: Optional[pa.Schema], source, cfg: EngineConfig) -> bool:
    """The one-task route's rule, shared by MERGE and clustering: no
    ``shuffle_blocks`` pin (its contract is a fixed distributed
    partitioning), something to read, a manifest schema for the live
    files, a source that is ``None`` or already materialized, and the
    live file bytes plus the source's in-memory bytes within
    ``SMALL_TABLE_BYTES``. Sizes come from metadata only: the
    manifest's file bytes and the source's block metadata. A lazy
    source keeps the distributed route: executing it just to size it
    would run its pipeline twice."""
    if cfg.shuffle_blocks or (live and schema is None) or not (live or source is not None):
        return False
    if source is not None and not isinstance(source, MaterializedDataset):
        return False
    nbytes = sum(f.bytes for f in live) + (source.size_bytes() if source is not None else 0)
    return nbytes <= SMALL_TABLE_BYTES


def _lww_fold(block: pa.Table, key: str, ts: str) -> pa.Table:
    """MERGE's op for :func:`_small_task`: the LWW fold every route runs."""
    from engine import merge

    return merge.merge_fold_passthrough_arrow(block, key, ts)


def _zkey_sort(block: pa.Table, codes: dict, curve: str, cols: tuple) -> pa.Table:
    """Clustering's op for :func:`_small_task`: curve key, then an
    in-memory sort by it."""
    import pyarrow.compute as pc

    from engine import zorder

    keyed = zorder.add_cluster_key(block, codes, curve=curve, cols=cols)
    return keyed.take(pc.sort_indices(keyed, sort_keys=[(ZKEY_COL, "ascending")]))


@ray.remote(num_cpus=1)
def _small_task(
    paths: list,
    source_refs: list,
    schema: pa.Schema,
    op,
    op_args: tuple,
    data_dir: str,
    prefix: str,
    stats_cols: tuple,
    rows_per_file: Optional[int],
) -> tuple:
    """A whole-table rewrite in ONE task, for inputs under
    :func:`_small_input`: read the live files, append the source's
    Arrow blocks, align all of them to one schema, run ``op`` (the LWW
    fold or the curve-key sort) over every row at once, then write
    ``rows_per_file``-row files (one file when ``None``). ``op`` is the
    function the distributed route runs per bucket or per block:
    bucketing and range partitioning only add parallelism, so results
    match by construction. Below the bound the exchange's orchestration
    outweighs the compute ~4:1 (BASELINE.md round 4).

    The schema is the manifest's, unified with the source blocks' and
    stripped of ``__``-internals such as a prior run's zkey; evolved
    columns are null-filled, the view ``Table.scan`` gives the
    distributed route. Returns ``(schema, manifest rows)``. ``op`` and
    ``write_block`` resolve through their module attributes at call
    time, so wrappers installed by name in the worker see them."""
    from engine import writer

    tables = writer.read_tables_parallel(paths) + ray.get(source_refs)
    unified = pa.unify_schemas([schema] + [t.schema for t in tables[len(paths):]])
    schema = pa.schema([f for f in unified if not f.name.startswith("__")])
    block = op(pa.concat_tables([align_to_schema(t, schema) for t in tables]), *op_args)
    per = rows_per_file or len(block) or 1
    return schema, [
        writer.write_block(block.slice(off, per), data_dir, prefix, stats_cols=stats_cols)
        for off in range(0, max(len(block), 1), per)
    ]


def _rewrite_small(table, live, schema, source, op, op_args, prefix, stats_cols, rows_per_file=None):
    """Run :func:`_small_task` on the driver's behalf: ``(schema, entries)``."""
    refs = source.to_arrow_refs() if source is not None else []
    schema, rows = ray.get(
        _small_task.remote(
            [f.path for f in live], refs, schema or pa.schema([]), op, op_args,
            table.data_dir, prefix, tuple(stats_cols), rows_per_file,
        )
    )
    return schema, [FileEntry.from_json(r) for r in rows]


def merge_into(
    table: Table,
    cfg: Optional[EngineConfig] = None,
    source=None,
    job_id: Optional[str] = None,
) -> dict:
    """MERGE INTO: current table contents (optionally unioned with a new
    source Dataset) collapsed to one row per url, LWW by warc_ts with
    non-empty coalesce; NULL-url rows pass through. Rewrites the table
    (new files, old files stay until expiration -- snapshot isolation).

    Under :func:`_small_input` (live bytes plus a materialized source's
    bytes within ``SMALL_TABLE_BYTES``) the whole merge is one
    :func:`_small_task`; otherwise it is the hash-partitioned exchange
    of ``merge_datasets``. Either way the commit carries the output's
    schema, so a source wider than the table adds its columns (null for
    the table's old rows)."""
    cfg = cfg if cfg is not None else EngineConfig()
    job_id = job_id or uuid.uuid4().hex[:8]
    # ONE manifest parse per merge_into(): files + schema off the same
    # Snapshot object (a 10^6-file manifest is a real pass)
    snap = table.snapshot()
    live = snap.files
    schema = snap.arrow_schema()
    if _small_input(live, schema, source, cfg):
        schema, entries = _rewrite_small(
            table, live, schema, source, _lww_fold, (cfg.merge_key, cfg.merge_ts),
            f"merge-{job_id}", cfg.stats_cols,
        )
    else:
        # coalesce AT THE READ (override_num_blocks) instead of a
        # repartition exchange after it: the sort-shuffle's cost grows
        # with input block count (the planner splits these files to
        # ~290 tiny blocks and the exchange degenerates -- measured
        # 119-193 s vs 6.6 s at the 2.4 M-row scaling config), and a
        # post-read repartition fixes that only by paying a second
        # all-to-all (10.9 s -> 6.9 s at 8 CPUs without it). blocks is
        # bytes-derived, so each read task stays ~32 MB regardless of
        # file count. A union'd source keeps its own blocks and rides
        # one repartition: its block layout is unknown here and the
        # sort degenerates on many tiny blocks.
        # bytes/CPU-derived bucket count, with cfg.merge_buckets as a FLOOR
        # (the user's hot-bucket / skew knob: raising it always takes effect)
        blocks = max(_shuffle_blocks(table, cfg, live=live), int(cfg.merge_buckets or 0))
        ds = table.scan(override_num_blocks=blocks)
        if source is not None:
            ds = ds.union(source).repartition(blocks)
        merged = merge_datasets(ds, key=cfg.merge_key, ts=cfg.merge_ts, num_buckets=blocks)
        entries = write_files(
            merged, table.data_dir, prefix=f"merge-{job_id}", stats_cols=cfg.stats_cols
        )
        schema = _entries_schema(entries)
    old_paths = [f.path for f in live]
    snap = table.commit(
        f"merge:{job_id}", add_files=entries, remove_files=old_paths, schema=schema
    )
    return {"snapshot_id": snap.snapshot_id, "files": len(entries), "rows": snap.total_rows}


def compact(
    table: Table,
    cfg: Optional[EngineConfig] = None,
    target_bytes: Optional[int] = None,
    job_id: Optional[str] = None,
    **kwargs,
) -> dict:
    cfg = cfg if cfg is not None else EngineConfig()
    job_id = job_id or uuid.uuid4().hex[:8]
    return compact_mod.compact_table(
        table,
        target_bytes=target_bytes or cfg.target_file_bytes,
        job_id=job_id,
        stats_cols=cfg.stats_cols,
        small_fraction=cfg.compact_small_fraction,
        **kwargs,
    )


def _sort_blocks(
    table: Table, cfg: Optional[EngineConfig] = None, live: Optional[list] = None
) -> int:
    """Bytes-only block count for the clustering sort (no CPU term):
    the dataflow is then a pure property of the DATA -- identical at
    every cluster size -- and a small post-merge table doesn't pay an
    all-to-all of blocks^2 tiny objects for a sort whose data fits a
    handful of blocks. At scale the bytes term provides the sort
    parallelism (capped 4096; above that raise
    ``DataContext.target_max_block_size``); below ~32 MB the exchange
    degenerates to a near-local sort, which is exactly right.
    ``cfg.shuffle_blocks`` still overrides explicitly.

    A ROWS floor (~200k rows/block, capped at 64 from it) covers tables
    that are byte-light but row-heavy: post-merge text tables compress
    ~5:1, so a 100 MB table can still hold 5 M rows of curve-key compute
    that a 4-block sort would starve. Both terms are properties of the
    DATA (no CPU term) so the dataflow stays identical across cluster
    sizes; at production scale the bytes term dominates and the rows
    floor is a no-op.

    ``live`` lets callers that already hold the live-file list avoid a
    redundant manifest parse (a 10^6-file manifest is a real pass)."""
    if live is None:
        live = table.live_files()
    blocks = _shuffle_blocks(table, cfg, cpu_floor=False, live=live)
    if cfg is not None and cfg.shuffle_blocks:
        return blocks
    rows = sum(f.rows for f in live)
    return int(min(4096, max(blocks, min(rows // 200_000, 64))))


def _codes_from_manifest(files: list, col: str) -> Optional[dict]:
    """Dense dictionary codes for ``col`` from the manifest's per-file
    distinct-value sets -- exact iff EVERY live file recorded the stat
    (a file over the cardinality cap, or written pre-stat, forces the
    scan fallback). Same sorted-distinct mapping as
    ``collect_lang_codes`` by construction. Takes the already-parsed
    file list so the caller pays ONE manifest parse, not one per
    accessor (a 10^6-file manifest is a real pass)."""
    if not files or any(col not in f.distincts for f in files):
        return None
    vals = sorted({v for f in files for v in f.distincts[col] if v is not None})
    return {v: i for i, v in enumerate(vals)}


def cluster(
    table: Table,
    cfg: Optional[EngineConfig] = None,
    rows_per_file: Optional[int] = None,
    job_id: Optional[str] = None,
) -> dict:
    """Z-order/Hilbert clustering rewrite: compute zkey -> range-partition
    sort -> write files (zkey min/max recorded per file) -> snapshot."""
    cfg = cfg if cfg is not None else EngineConfig()
    job_id = job_id or uuid.uuid4().hex[:8]
    # ONE manifest parse per cluster(): files, schema and the distinct
    # codes all come off the same Snapshot object
    snap = table.snapshot()
    live = snap.files
    mschema = snap.arrow_schema()
    # distinct codes from manifest value-set stats when every live file
    # carries them (metadata-only, no Dataset execution); fall back to a
    # pruned single-column scan -- unique(lang) must not read html bytes
    codes = _codes_from_manifest(live, cfg.cluster_cols[0])
    if codes is None:
        codes = collect_lang_codes(
            table.scan(columns=[cfg.cluster_cols[0]]), col=cfg.cluster_cols[0]
        )
    if _small_input(live, mschema, None, cfg):
        _, entries = _rewrite_small(
            table, live, mschema, None, _zkey_sort,
            (codes, cfg.cluster_curve, tuple(cfg.cluster_cols)),
            f"cluster-{job_id}", tuple(cfg.stats_cols) + (ZKEY_COL,), rows_per_file,
        )
    else:
        blocks = _sort_blocks(table, cfg, live=live)
        clustered = cluster_dataset(
            table.scan().repartition(blocks), codes, curve=cfg.cluster_curve,
            cols=tuple(cfg.cluster_cols),
        )
        entries = write_files(
            clustered,
            table.data_dir,
            prefix=f"cluster-{job_id}",
            stats_cols=tuple(cfg.stats_cols) + (ZKEY_COL,),
            rows_per_file=rows_per_file,
        )
    old_paths = [f.path for f in live]
    snap = table.commit(f"cluster:{job_id}", add_files=entries, remove_files=old_paths)
    return {"snapshot_id": snap.snapshot_id, "files": len(entries), "rows": snap.total_rows}


def dedup_lines(
    table: Table,
    cfg: Optional[EngineConfig] = None,
    text_col: str = "text",
    key_col: str = "url",
    rows_per_file: Optional[int] = None,
    job_id: Optional[str] = None,
) -> dict:
    """Maintenance op: C4-style GLOBAL line dedup committed through the
    snapshot lifecycle (full rewrite, like cluster). The pipeline is
    :func:`engine.dedup.dedup_lines_global` over the table's scan,
    keyed by ``key_col``: a line survives only in the row with the
    lexicographically smallest ``(key, line_idx)``, rows with NULL/''
    keys pass through untouched, and a repeated key raises
    ``ValueError`` -- run AFTER merge (the LWW merge leaves one row per
    url). The scan carries the manifest's schema, so the rebuild takes
    its types from there. Returns the commit summary.
    """
    from engine.dedup import dedup_lines_global

    cfg = cfg if cfg is not None else EngineConfig()
    job_id = job_id or uuid.uuid4().hex[:8]
    # commit-level idempotence (the compact/ingest pattern): a rerun of
    # a job whose snapshot already landed -- driver died AFTER the
    # commit -- must be a no-op, not a second full rewrite
    prior = table.operation_snapshot(f"dedup-lines:{job_id}")
    if prior is not None:
        psnap = table.snapshot(prior)
        return {
            "snapshot_id": prior,
            "files": len(psnap.files),
            "rows": psnap.total_rows,
            "already_committed": True,
        }
    snap = table.snapshot()
    live = snap.files
    if not live:
        return {"snapshot_id": snap.snapshot_id, "files": 0, "rows": 0}
    vis_schema = pa.schema([f for f in snap.arrow_schema() if not f.name.startswith("__")])
    out = dedup_lines_global(table.scan(), text_col=text_col, id_col=key_col)
    # safety net: align output blocks to the manifest's visible schema
    # (the Arrow fold preserves types by construction; this pins it)
    out = out.map_batches(
        lambda t: align_to_schema(t, vis_schema),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    entries = write_files(
        out,
        table.data_dir,
        prefix=f"linededup-{job_id}",
        stats_cols=tuple(cfg.stats_cols),
        rows_per_file=rows_per_file,
    )
    old_paths = [f.path for f in live]
    snap2 = table.commit(
        f"dedup-lines:{job_id}", add_files=entries, remove_files=old_paths
    )
    return {
        "snapshot_id": snap2.snapshot_id,
        "files": len(entries),
        "rows": snap2.total_rows,
    }


def expire(table: Table, cfg: Optional[EngineConfig] = None, now: Optional[float] = None) -> dict:
    cfg = cfg if cfg is not None else EngineConfig()
    return table.expire_snapshots(cfg.snapshot_ttl_seconds, now=now)


def dump_csv(table: Table, out_dir: str, columns: Optional[list] = None) -> str:
    """S5 conformance sink: canonical CSV dump of the current snapshot
    (the engine's DictWriter re-serialization, ``file_service.py:16-21``)
    for diffing against the reference's processed artifacts. Binary
    columns are excluded (CSV-unrepresentable)."""
    ds = table.scan(columns=columns)
    schema = ds.schema()
    drop = [n for n, t in zip(schema.names, schema.types) if pa.types.is_binary(t) or pa.types.is_large_binary(t)]
    if drop:
        ds = ds.select_columns([n for n in schema.names if n not in drop])
    ds.write_csv(out_dir)
    return out_dir


class _NormalizeFused:
    """Quality stats + language id + simhash as ONE Arrow-in, Arrow-out
    callable: state (regexes, profiles) built once per process, and the
    text column decoded once per batch into a ``TextBatch`` (bytes,
    offsets, lowered bytes, one whitespace tokenization) that all three
    kernels read. No pandas conversion: every kernel starts from the
    Arrow string buffer, and a format round trip was pure per-block
    overhead (it also retyped all-NULL columns to ``null`` and
    ``large_string`` to ``string``)."""

    def __init__(self, text_col: str = "text", simhash: bool = True):
        from engine.langid import LangId
        from engine.textstats import TextStats

        self.ts = TextStats(text_col)
        self.li = LangId(text_col)
        self.simhash = simhash
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from engine.dedup import simhash_texts
        from engine.textstats import TextBatch, with_columns

        tb = TextBatch(batch.column(self.text_col))
        batch = self.li(self.ts(batch, tb), tb)
        if self.simhash:
            batch = with_columns(batch, {"simhash": pa.array(simhash_texts(tb), pa.uint64())})
        return batch


_NORM_CACHE: dict = {}


def _normalize_fn(batch: pa.Table, text_col: str = "text", simhash: bool = True, sanitize_cols=()):
    key = (text_col, simhash)
    st = _NORM_CACHE.get(key)
    if st is None:
        st = _NORM_CACHE[key] = _NormalizeFused(text_col, simhash)
    out = st(batch)
    if sanitize_cols:
        # fused tail: same Arrow sanitize kernels, same normalize->
        # sanitize order as the separate sanitize_stage, but without a
        # second full-data stage pass (one fewer block materialization
        # + 64-task wave; callers then ingest with sanitize_cols=())
        from engine.sanitize import sanitize_batch

        return sanitize_batch(out, columns=sanitize_cols)
    return out


def normalize_stage(
    ds,
    cfg: Optional[EngineConfig] = None,
    simhash: bool = True,
    sanitize_cols=(),
):
    """The north-star normalization chain: quality stats -> language id
    -> simhash content signature, one fused elastic map stage over the
    text column, Arrow in and Arrow out (see ARCHITECTURE.md section 1).
    ``sanitize_cols`` additionally fuses the cell sanitizer into the
    SAME stage (pass ``sanitize_cols=()`` to the downstream ``ingest``
    to avoid a redundant pass)."""
    cfg = cfg if cfg is not None else EngineConfig()
    return ds.map_batches(
        _normalize_fn,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"simhash": simhash, "sanitize_cols": tuple(sanitize_cols)},
        batch_size=cfg.batch_size,
    )


def full_maintenance(
    table_root: str,
    source,
    cfg: Optional[EngineConfig] = None,
    target_bytes: Optional[int] = None,
    rows_per_file: Optional[int] = None,
    normalize: bool = False,
) -> dict:
    """The flagship pipeline (SURVEY 3.1 engine trace): ingest [+
    normalize] -> MERGE -> compact -> cluster, each committing its own
    snapshot."""
    cfg = cfg if cfg is not None else EngineConfig()
    table = Table.create(table_root)
    if isinstance(source, (list, tuple)):
        source = evolved_read(source)
    # fail BEFORE the first commit on an input that can't be merged:
    # without this, ingest commits a snapshot and the merge stage then
    # dies mid-pipeline with a bare KeyError, leaving a half-maintained
    # table (found via the CLI on a raw documents.parquet)
    names = set(source.schema().names)
    missing = [c for c in (cfg.merge_key, cfg.merge_ts) if c not in names]
    if missing:
        raise ValueError(
            f"maintenance input is missing merge column(s) {missing}; "
            f"expected a pages-shaped table (see engine.pages.read_pages "
            f"to derive one), got columns {sorted(names)}"
        )
    sanitize_cols = ("text",)
    if normalize:
        # fused path: sanitize rides the normalize stage (one full-data
        # pass; byte-identical to the staged pipeline by test)
        source = normalize_stage(source, cfg, sanitize_cols=sanitize_cols)
        sanitize_cols = ()
    out = {
        "ingest": ingest(
            table, source, cfg, sanitize_cols=sanitize_cols, rows_per_file=rows_per_file
        )
    }
    out["merge"] = merge_into(table, cfg)
    out["compact"] = compact(table, cfg, target_bytes=target_bytes)
    out["cluster"] = cluster(table, cfg, rows_per_file=rows_per_file)
    out["rows"] = table.snapshot().total_rows
    return out


def _entries_schema(entries: list) -> Optional[pa.Schema]:
    """Unified schema of the just-written files (pooled metadata-only
    footer reads). All footers, not just the first: a source Dataset's
    blocks need not share one schema (e.g. a user union of two parquet
    reads without evolved_read alignment), and committing whichever
    file happened to land first silently dropped the other blocks'
    evolved columns from every subsequent scan."""
    if not entries:
        return None
    return unify_parquet_schemas([e.path for e in entries])
