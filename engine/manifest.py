"""Snapshot manifest log with per-file stats, refcount GC and job lineage.

Generalizes the reference's one-row-per-file Mongo manifest
(``backend/app/repositories/file_repository.py:41-54``: ``_id, filename,
raw_fs_id, processed_fs_id, status, fields, records_count, created_at``)
and its lifecycle:

- append-only snapshot log  <- the ``pending -> processed/error`` state
  machine (``file_service.py:47-55,66-81``)
- immutable data files; a rewrite produces new files + a new snapshot,
  old files survive until expiration  <- raw/processed blob duality
- retention expiration + refcount GC  <- ``cleanup.py:16-54`` and the
  metadata-first cascading delete ``file_repository.py:126-143``
- per-partition job lineage for idempotent resume  <- the
  ``processed_fs_id`` backfill pattern (``file_service.py:105-139``)

Layout on disk (works on any fsspec-style path; local dirs here)::

    table_root/
      data/                   part-*.parquet (immutable)
      manifest/
        snapshot-00000007.json   {id, parent, ts, operation, schema, files:[...]}
        CURRENT                  "snapshot-00000007.json"  (atomic os.replace)
        jobs/<job_id>.jsonl      per-partition lineage for resume

The manifest is small driver-side metadata: at 10^12 rows / 128 MB files
a snapshot lists ~10^6 file entries -- a few hundred MB of JSON, which is
why ``files`` is stored one-entry-per-line and streamed. A single writer
(the job driver) commits; atomicity = write-temp + ``os.replace`` of
``CURRENT`` (SURVEY.md section 7.3).
"""

from __future__ import annotations

import bisect
import json
import os
import time
from dataclasses import dataclass, field, asdict
from typing import Iterable, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

#: compressed file bytes per read task when the caller pins no block
#: count; ``jobs._shuffle_blocks`` sizes exchange blocks by it too
READ_TASK_BYTES = 32 << 20

#: Ray's parquet reader's default decoded/encoded size ratio: read tasks
#: report ``file bytes x this`` as their in-memory size, so Ray's memory
#: and backpressure accounting sees decoded blocks, not compressed files
DECODED_BYTES_PER_FILE_BYTE = 5

#: a read task streams its files in runs this long (one thread-pooled
#: read each), so it holds at most this many decoded files at once
FILES_PER_RUN = 8

#: tables at or below this many live manifest bytes (plus a merge's
#: materialized source bytes) are small. Merge skips its exchange and
#: clustering its distributed sort (``jobs._small_input``): ONE Ray
#: task reads the input, runs the identical fold / curve-key sort over
#: all rows at once and writes the output.
#: Bucketing and range partitioning are purely parallelism devices, so
#: semantics are unchanged by construction. At this size orchestration
#: dominates compute ~4:1 (merge: ~3 s of repartition + sort-shuffle for
#: ~0.5 s of fold at 30 MB / 200 k rows; cluster: 2.3 s vs 0.4 s at
#: 90 k rows, BASELINE.md round 4); a ``cfg.shuffle_blocks`` pin forces
#: the distributed paths. ``Table.scan`` point-reads a key on the driver
#: only while its candidate files total at most this much; above it the
#: read tasks read every candidate and callers filter rows.
SMALL_TABLE_BYTES = 64 << 20

#: a point read decodes the projection of the files holding its key on
#: the driver (about ``DECODED_BYTES_PER_FILE_BYTE`` times their bytes,
#: then filtered to the matching rows) only while they total at most
#: this much; above it those files go to read tasks whole and callers
#: filter rows. 4x the sub-block limit: compaction leaves each
#: ``merge_delta`` url in one ~1.5 MB file.
POINT_READ_BYTES = 4 << 20


def read_task_count(nbytes: int, floor: int) -> int:
    """Read tasks (or exchange blocks) for ``nbytes`` of manifest file
    bytes: one per ``READ_TASK_BYTES``, and at least ``floor``."""
    return max(nbytes // READ_TASK_BYTES + 1, floor)


@dataclass
class FileEntry:
    """One immutable data file (the manifest row; reference analog:
    the ``files`` doc with ``records_count``/``fields``)."""

    path: str
    rows: int
    bytes: int
    #: logical partition label (e.g. "lang=en/salt=3" or a zkey range id);
    #: compaction bins within a partition.
    partition: Optional[str] = None
    #: per-column {"col": [min, max]} (A6; Z-order pruning relies on it)
    stats: dict = field(default_factory=dict)
    #: per-column exact distinct-value sets for low-cardinality string
    #: columns ({"col": [sorted values]}, capped at write time) -- the
    #: Iceberg-style value-set stat: enables exact membership pruning
    #: where min/max ranges cannot ("de" BETWEEN min "ar" AND max "zh"
    #: overlaps, but {ar, zh} proves absence), and lets metadata-only
    #: jobs (clustering's dictionary-code collection) skip a data scan.
    distincts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(d: dict) -> "FileEntry":
        return FileEntry(**d)


@dataclass
class Snapshot:
    snapshot_id: int
    parent_id: Optional[int]
    timestamp: float
    operation: str
    schema_json: list  # [[name, type_str], ...] -- human-readable only
    files: list  # list[FileEntry]
    #: base64 Arrow IPC serialization of the schema -- the AUTHORITATIVE
    #: round trip. ``schema_json`` renders ``str(type)`` for humans, but
    #: str(type) is not parseable back for parameterized types
    #: (timestamp[us, tz=...], list<item: float>, decimal...), and a
    #: lossy fallback silently corrupted e.g. an IVF index table's
    #: ``embedding: list<float>`` to string on the next scan.
    schema_ipc: str = ""
    #: inputs this commit quarantined instead of ingesting, queryable
    #: per snapshot via ``python -m engine scan`` / ``history`` without
    #: replaying job logs. Only the CLI's ``ingest-csv`` sets it: one per
    #: CSV file it rejected at admission or could not parse (such a file
    #: has no knowable row count, hence "records", not "rows"). Every
    #: other commit writes 0. The reference analog is the persisted
    #: ``error`` state (``backend/app/services/file_service.py:66-81``).
    dead_letter_records: int = 0

    @property
    def total_rows(self) -> int:
        return sum(f.rows for f in self.files)

    def arrow_schema(self) -> Optional[pa.Schema]:
        """Schema of this already-parsed snapshot — use when the caller
        holds a Snapshot, so it does not pay a second full manifest
        parse via ``Table.arrow_schema()``."""
        if self.schema_ipc:
            return _schema_from_ipc(self.schema_ipc)
        return _schema_from_json(self.schema_json)


def _schema_to_json(schema: pa.Schema) -> list:
    return [[f.name, str(f.type)] for f in schema]


def _schema_to_ipc(schema: pa.Schema) -> str:
    import base64

    return base64.b64encode(schema.serialize().to_pybytes()).decode("ascii")


def _schema_from_ipc(b64: str) -> pa.Schema:
    import base64

    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(b64)))


def _schema_from_json(sj: list) -> Optional[pa.Schema]:
    """Legacy fallback for manifests written before ``schema_ipc``.

    Raises on any type outside the known map rather than guessing:
    silently mapping an unknown type to string corrupted data (bool ->
    "true"/"false" via align_to_schema) or failed the parquet read with
    a mismatched schema, both far worse than a loud error naming the
    manifest as pre-IPC."""
    if not sj:
        return None
    m = {
        "string": pa.string(),
        "large_string": pa.large_string(),
        "binary": pa.binary(),
        "large_binary": pa.large_binary(),
        "timestamp[us]": pa.timestamp("us"),
        "int64": pa.int64(),
        "int32": pa.int32(),
        "double": pa.float64(),
        "float": pa.float32(),
        "uint64": pa.uint64(),
    }
    unknown = [t for _, t in sj if t not in m]
    if unknown:
        raise ValueError(
            f"legacy manifest schema has types {unknown} outside the "
            "pre-schema_ipc round-trip map; rewrite the snapshot with a "
            "current engine commit()"
        )
    return pa.schema([(n, m[t]) for n, t in sj])


def unify_parquet_schemas(paths: list) -> pa.Schema:
    """Driver-side footer scan -> unified schema. Footers are metadata-only
    reads (no row groups), pooled so per-file open latency overlaps; for
    very many files fan this out with ``ray.remote`` -- at 10^6 files it
    is an embarrassingly parallel metadata pass."""
    from engine.writer import read_tables_parallel

    return pa.unify_schemas(read_tables_parallel(paths, 16, read=pq.read_schema))


def align_to_schema(batch: pa.Table, schema: pa.Schema) -> pa.Table:
    """Null-fill missing columns + reorder + cast: the engine's version of
    'new keys appended dynamically, missing keys simply absent'
    (``docs/processing-engine.md:147-154``; DictWriter empty-cell
    semantics ``file_service.py:16-21``)."""
    cols = []
    for f in schema:
        if f.name in batch.column_names:
            cols.append(batch.column(f.name).cast(f.type))
        else:
            cols.append(pa.nulls(len(batch), type=f.type))
    return pa.Table.from_arrays(cols, schema=schema)


class Table:
    """A manifest-tracked Parquet table rooted at a directory."""

    def __init__(self, root: str):
        self.root = root
        self.data_dir = os.path.join(root, "data")
        self.manifest_dir = os.path.join(root, "manifest")
        self.jobs_dir = os.path.join(self.manifest_dir, "jobs")

    # -- lifecycle --------------------------------------------------------

    @classmethod
    def create(cls, root: str, schema: Optional[pa.Schema] = None) -> "Table":
        t = cls(root)
        os.makedirs(t.data_dir, exist_ok=True)
        os.makedirs(t.jobs_dir, exist_ok=True)
        if t.current_snapshot_id() is None:
            t.commit("create", add_files=[], schema=schema)
        return t

    @classmethod
    def load(cls, root: str) -> "Table":
        t = cls(root)
        if t.current_snapshot_id() is None:
            raise FileNotFoundError(f"no table at {root}")
        return t

    # -- snapshot log ------------------------------------------------------

    def _snap_path(self, snapshot_id: int) -> str:
        return os.path.join(self.manifest_dir, f"snapshot-{snapshot_id:08d}.json")

    def current_snapshot_id(self) -> Optional[int]:
        cur = os.path.join(self.manifest_dir, "CURRENT")
        try:
            with open(cur) as f:
                name = f.read().strip()
            return int(name.split("-")[1].split(".")[0])
        except FileNotFoundError:
            return None

    def next_snapshot_id(self) -> int:
        """The id the next ``commit`` takes (0 on a table with no
        snapshot) -- for side files written before the commit and
        versioned by it."""
        cur = self.current_snapshot_id()
        return 0 if cur is None else cur + 1

    def snapshot_ids(self) -> list:
        if not os.path.isdir(self.manifest_dir):
            return []
        out = []
        for n in os.listdir(self.manifest_dir):
            if n.startswith("snapshot-") and n.endswith(".json"):
                out.append(int(n.split("-")[1].split(".")[0]))
        return sorted(out)

    def snapshot(self, snapshot_id: Optional[int] = None) -> Snapshot:
        sid = self.current_snapshot_id() if snapshot_id is None else snapshot_id
        with open(self._snap_path(sid)) as f:
            header = json.loads(f.readline())
            files = [FileEntry.from_json(json.loads(line)) for line in f if line.strip()]
        return Snapshot(
            snapshot_id=header["snapshot_id"],
            parent_id=header["parent_id"],
            timestamp=header["timestamp"],
            operation=header["operation"],
            schema_json=header["schema"],
            files=files,
            schema_ipc=header.get("schema_ipc", ""),
            dead_letter_records=header.get("dead_letter_records", 0),
        )

    def dead_letter_counts(self) -> dict:
        """{snapshot_id: dead_letter_records} for every committed snapshot
        (header-line reads only, like ``operation_snapshot`` -- never
        O(total manifest bytes)). Orphan snapshots past CURRENT are
        excluded: their commit never took effect."""
        cur = self.current_snapshot_id()
        out = {}
        for sid in self.snapshot_ids():
            if cur is None or sid > cur:
                continue
            with open(self._snap_path(sid)) as f:
                header = json.loads(f.readline())
            out[sid] = header.get("dead_letter_records", 0)
        return out

    def snapshot_header(self, snapshot_id: int) -> dict:
        """ONE header line of a snapshot -- operation, num_files,
        total_rows, dead_letter_records -- without deserializing the
        file list (O(1) vs O(manifest bytes); the ``engine history``
        path)."""
        with open(self._snap_path(snapshot_id)) as f:
            return json.loads(f.readline())

    def operation_snapshot(self, operation: str) -> Optional[int]:
        """Snapshot id of the commit with exactly this operation string,
        or None. Used to make job commits idempotent: a rerun of a job
        whose commit already landed (driver died AFTER committing) must
        be a no-op, not a second add of the same files.

        Reads ONLY each snapshot's header line -- deserializing every
        snapshot's full file list would be O(total manifest bytes) per
        idempotence check (quadratic as snapshots accumulate).

        Only snapshots at or below CURRENT count: commit() writes
        ``snapshot-N+1.json`` BEFORE swapping CURRENT, so a crash
        between the two leaves an orphan file whose commit never took
        effect -- treating it as already-committed would make the
        "resumable" rerun a silent no-op serving the pre-job table.
        (The orphan id is reused and overwritten by the next commit.)"""
        cur = self.current_snapshot_id()
        for sid in self.snapshot_ids():
            if cur is None or sid > cur:
                continue  # orphan from a crash before the CURRENT swap
            with open(self._snap_path(sid)) as f:
                header = json.loads(f.readline())
            if header["operation"] == operation:
                return sid
        return None

    def commit(
        self,
        operation: str,
        add_files: Iterable[FileEntry],
        remove_files: Iterable[str] = (),
        schema: Optional[pa.Schema] = None,
        timestamp: Optional[float] = None,
        dead_letter_records: int = 0,
    ) -> Snapshot:
        """Atomically append a snapshot: parent's files - removed + added.

        Single-writer (job driver). First line = header, then one JSON
        line per file entry so huge manifests stream.
        """
        parent_id = self.current_snapshot_id()
        if parent_id is not None:
            parent = self.snapshot(parent_id)
            removed = set(remove_files)
            files = [f for f in parent.files if f.path not in removed]
            if schema is not None:
                # UNION with the parent schema: a commit's schema arg
                # describes its own files; replacing wholesale let an
                # ingest of a narrower source silently drop previously
                # evolved columns from every subsequent scan while their
                # data stayed live. No engine operation legitimately
                # removes a column, so the manifest schema only widens;
                # a type conflict on a shared name raises (loud beats a
                # silently re-typed column).
                pschema = parent.arrow_schema()
                if pschema is not None and len(pschema) > 0:
                    schema = pa.unify_schemas([pschema, schema])
                schema_json, schema_ipc = _schema_to_json(schema), _schema_to_ipc(schema)
            else:
                schema_json, schema_ipc = parent.schema_json, parent.schema_ipc
        else:
            files = []
            schema_json = _schema_to_json(schema) if schema is not None else []
            schema_ipc = _schema_to_ipc(schema) if schema is not None else ""
        files = files + list(add_files)
        ts_val = time.time() if timestamp is None else timestamp
        sid = 0 if parent_id is None else parent_id + 1
        snap_path = self._snap_path(sid)
        tmp = snap_path + ".tmp"
        with open(tmp, "w") as f:
            f.write(
                json.dumps(
                    {
                        "snapshot_id": sid,
                        "parent_id": parent_id,
                        "timestamp": ts_val,
                        "operation": operation,
                        "schema": schema_json,
                        "schema_ipc": schema_ipc,
                        "num_files": len(files),
                        "total_rows": sum(fe.rows for fe in files),
                        "dead_letter_records": int(dead_letter_records),
                    }
                )
                + "\n"
            )
            for fe in files:
                f.write(json.dumps(fe.to_json()) + "\n")
        os.replace(tmp, snap_path)
        cur_tmp = os.path.join(self.manifest_dir, "CURRENT.tmp")
        with open(cur_tmp, "w") as f:
            f.write(os.path.basename(snap_path))
        os.replace(cur_tmp, os.path.join(self.manifest_dir, "CURRENT"))
        # build the returned Snapshot from what was just serialized --
        # self.snapshot(sid) would re-read and re-parse the ENTIRE child
        # manifest (O(manifest bytes) per commit, on top of the parent
        # parse above)
        return Snapshot(
            snapshot_id=sid,
            parent_id=parent_id,
            timestamp=ts_val,
            operation=operation,
            schema_json=schema_json,
            files=files,
            schema_ipc=schema_ipc,
            dead_letter_records=int(dead_letter_records),
        )

    # -- scan --------------------------------------------------------------

    def live_files(self, snapshot_id: Optional[int] = None) -> list:
        return self.snapshot(snapshot_id).files

    def scan(
        self,
        columns: Optional[list] = None,
        snapshot_id: Optional[int] = None,
        predicate_stats: Optional[dict] = None,
        override_num_blocks: Optional[int] = None,
    ) -> "ray.data.Dataset":
        """Exactly the files a snapshot references, planned from the
        manifest alone (reference analog: serve ``processed_fs_id``, S3
        in SURVEY 2.1).

        Read tasks are built from the ``FileEntry`` list and read with the
        manifest schema: planning opens no Parquet footer, and a file
        that lacks a schema-evolved column serves nulls for it. Default
        columns are the manifest's visible ones (``__``-internals are
        hidden); ``columns`` projects, pushed into each file's read.
        ``override_num_blocks`` pins the read-task count (merge's
        coalesced read); otherwise ``read_task_count``: one task per
        ~32 MB of file bytes, raised to ``min(files, CPUs)``.

        ``predicate_stats``: {"col": (lo, hi)} -- prune files whose
        manifest min/max range (or distinct set) does not intersect
        [lo, hi] before any task is launched. A point predicate
        (``lo == hi``) where some candidate records no distinct set for
        the column is then a point read (``_point_read``): while the
        candidates total at most ``SMALL_TABLE_BYTES``, the driver reads
        each one's key column(s) and drops the files without a match.
        While the files left total at most ``POINT_READ_BYTES``, it
        returns only their matching rows, in one block whatever
        ``override_num_blocks`` asks. Otherwise pruning is per file;
        callers still filter rows.

        Files left that total at most ``DataContext.target_min_block_size``
        of file bytes (and no pinned block count) are read here on the
        driver into one block: no read task runs. The gate counts
        compressed bytes, so the driver decodes about
        ``DECODED_BYTES_PER_FILE_BYTE`` times that (~5 MiB) at most;
        against one read task it took ``crawl_maintain`` lookups from
        76 to 49 ms (BASELINE.md, "Reads planned from the manifest").
        A driver-side read comes back already executed (``_executed``),
        so consuming it starts no streaming executor.

        Legacy manifests without a schema, or a projection naming a
        column the manifest does not record, take the schema from the
        files' footers.
        """
        snap = self.snapshot(snapshot_id)
        files = snap.files
        points = {}
        if predicate_stats:
            files = [f for f in files if _stats_overlap(f, predicate_stats)]
            points = {
                c: lo for c, (lo, hi) in predicate_stats.items() if lo is not None and lo == hi
            }
        schema = snap.arrow_schema()
        if schema is not None and len(schema) == 0:
            schema = None
        if files and (
            schema is None
            or (columns is not None and not set(columns) <= set(schema.names))
        ):
            footers = unify_parquet_schemas([f.path for f in files])
            schema = footers if schema is None else pa.unify_schemas([schema, footers])
        if schema is None:
            return ray.data.from_arrow(pa.table({}))
        names = (
            list(columns)
            if columns is not None
            else [n for n in schema.names if not n.startswith("__")]
        )
        # honor the projection on the empty path too: callers chain
        # schema-sensitive ops (unique, union) onto the result
        schema = pa.schema([schema.field(n) for n in names])
        nbytes = sum(f.bytes for f in files)
        tbl = None
        if (
            points
            and nbytes <= SMALL_TABLE_BYTES
            and any(c not in f.distincts for f in files for c in points)
        ):
            files, tbl = _point_read(files, points, schema)
            nbytes = sum(f.bytes for f in files)
        if tbl is None and not files:
            tbl = schema.empty_table()
        elif (
            tbl is None
            and override_num_blocks is None
            and nbytes <= ray.data.DataContext.get_current().target_min_block_size
        ):
            tbl = _read_files([f.path for f in files], schema)
        if tbl is not None:
            return _executed(tbl)
        if override_num_blocks is None:
            cpus = int(ray.cluster_resources().get("CPU", 1)) if ray.is_initialized() else 1
            override_num_blocks = read_task_count(nbytes, min(len(files), cpus))
        return ray.data.read_datasource(
            _ManifestFiles(files, schema), override_num_blocks=override_num_blocks
        )

    def arrow_schema(self, snapshot_id: Optional[int] = None) -> Optional[pa.Schema]:
        return self.snapshot(snapshot_id).arrow_schema()

    # -- expiration + GC (L3/L4) ------------------------------------------

    def expire_snapshots(
        self,
        ttl_seconds: float,
        now: Optional[float] = None,
        keep_last: int = 1,
    ) -> dict:
        """Drop snapshots older than TTL (always keeping the current one
        and at least ``keep_last``), then GC data files no longer
        referenced by any remaining snapshot.

        Ordering discipline from the reference (``file_repository.py:
        126-143``): remove metadata first, then blobs -- a crash between
        the two leaves only orphaned data files, never dangling metadata;
        orphans are re-collectable by a later sweep (gc_orphans).
        """
        now = time.time() if now is None else now
        current = self.current_snapshot_id()
        ids = self.snapshot_ids()
        keep = set(ids[-keep_last:]) | {current}
        expired = []
        for sid in ids:
            if sid in keep:
                continue
            snap = self.snapshot(sid)
            if now - snap.timestamp >= ttl_seconds:
                expired.append(sid)
        # refcount: files referenced by surviving snapshots
        survivors = [sid for sid in ids if sid not in expired]
        live = set()
        for sid in survivors:
            for fe in self.snapshot(sid).files:
                live.add(fe.path)
        doomed = set()
        for sid in expired:
            for fe in self.snapshot(sid).files:
                if fe.path not in live:
                    doomed.add(fe.path)
        # metadata first...
        for sid in expired:
            os.remove(self._snap_path(sid))
        # ...then data files (refcount == 0 only)
        for path in sorted(doomed):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        return {
            "expired_snapshots": expired,
            "deleted_files": sorted(doomed),
            "surviving_snapshots": survivors,
        }

    def gc_orphans(self, tmp_grace_seconds: float = 3600.0) -> list:
        """Delete data files referenced by NO snapshot AND NO job
        lineage log. The second condition is load-bearing: a crashed
        resumable job's committed partitions exist only in its JobLog
        until the final snapshot commit -- deleting them would make the
        job's later resume commit a snapshot pointing at missing files.

        A JobLog whose job has COMMITTED (some snapshot's operation is
        ``<kind>:<job_id>``) is obsolete -- the resume path
        short-circuits on ``operation_snapshot`` before ever reading
        it -- so its references no longer pin files and the log itself
        is pruned here; otherwise superseded outputs of re-planned
        partitions (e.g. stale compact bins) would leak FOREVER.

        Abandoned ``*.parquet.tmp-*`` files (a writer died between
        ``pq.write_table(tmp)`` and ``os.replace``) are removed once
        older than ``tmp_grace_seconds`` -- the grace keeps a
        concurrently-running write's tmp safe."""
        live = set()
        committed_ops = set()
        cur = self.current_snapshot_id()
        for sid in self.snapshot_ids():
            for fe in self.snapshot(sid).files:
                live.add(os.path.abspath(fe.path))
            if cur is not None and sid <= cur:
                with open(self._snap_path(sid)) as f:
                    committed_ops.add(json.loads(f.readline())["operation"])
        committed_jobs = {op.split(":", 1)[1] for op in committed_ops if ":" in op}
        if os.path.isdir(self.jobs_dir):
            for name in os.listdir(self.jobs_dir):
                if not name.endswith(".jsonl"):
                    continue
                job_id = name[: -len(".jsonl")]
                log_path = os.path.join(self.jobs_dir, name)
                if job_id in committed_jobs:
                    os.remove(log_path)  # obsolete: resume never reads it
                    continue
                with open(log_path) as f:
                    for line in f:
                        if not line.strip():
                            continue
                        entry = json.loads(line)
                        for out in entry.get("output_files", []):
                            p = out.get("path") if isinstance(out, dict) else out
                            if p:
                                live.add(os.path.abspath(p))
        removed = []
        now = time.time()
        for name in os.listdir(self.data_dir):
            p = os.path.abspath(os.path.join(self.data_dir, name))
            if p.endswith(".parquet") and p not in live:
                os.remove(p)
                removed.append(p)
            elif ".parquet.tmp-" in name:
                try:
                    if now - os.path.getmtime(p) >= tmp_grace_seconds:
                        os.remove(p)
                        removed.append(p)
                except FileNotFoundError:
                    pass
        return removed


def _stats_overlap(fe: FileEntry, predicate_stats: dict) -> bool:
    for col, (lo, hi) in predicate_stats.items():
        # exact membership pruning first: a recorded distinct set proves
        # absence even when the [min, max] range overlaps the predicate.
        # Fully-open bounds (None, None) mean "no constraint" and must
        # keep the file even when the set is empty (all-null column).
        dv = fe.distincts.get(col)
        if (
            dv is not None
            and not (lo is None and hi is None)
            and not any(
                (lo is None or v >= lo) and (hi is None or v <= hi)
                for v in dv
                if v is not None
            )
        ):
            return False
        rng = fe.stats.get(col)
        if rng is None:
            continue  # no stats -> cannot prune
        fmin, fmax = rng
        if fmin is None or fmax is None:
            continue
        if (hi is not None and fmin > hi) or (lo is not None and fmax < lo):
            return False
    return True


def _point_read(files: list, points: dict, schema: pa.Schema):
    """``(kept, rows)``: the files that hold the ``points`` values and
    their matching rows, read as ``schema`` on the driver (``_read_file``
    semantics). ``rows`` is None when the kept files total more than
    ``POINT_READ_BYTES``; the caller then reads them whole in read tasks.
    Each file decodes its key columns first and is dropped when no row
    matches (NULL never does; a file without a key column holds only
    nulls there); only a kept file decodes the rest of the projection.
    Min/max cannot prune a clustered key -- the Z-order interleaves
    ``url`` ranges, so most files' ranges span any one url. A value the
    column cannot be compared with keeps the file and all its rows."""
    from engine.writer import read_tables_parallel

    def probe(fe: FileEntry):
        pf = pq.ParquetFile(fe.path)
        if not set(pf.schema_arrow.names).issuperset(points):
            return None
        keys = pf.read(columns=list(points))
        mask = None
        for col, v in points.items():
            try:
                hit = pc.fill_null(pc.equal(keys.column(col), v), False)
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError, TypeError):
                continue
            mask = hit if mask is None else pc.and_(mask, hit)
        if mask is not None and not pc.any(mask).as_py():
            return None
        return fe, pf, keys, mask

    hits = [h for h in read_tables_parallel(files, read=probe) if h is not None]
    kept = [h[0] for h in hits]
    if sum(f.bytes for f in kept) > POINT_READ_BYTES:
        return kept, None

    def read(hit) -> pa.Table:
        _, pf, keys, mask = hit
        have = set(pf.schema_arrow.names)
        tbl = pf.read(columns=[n for n in schema.names if n in have and n not in points])
        for col in points:
            tbl = tbl.append_column(keys.field(col), keys.column(col))
        tbl = align_to_schema(tbl, schema)
        return tbl if mask is None else tbl.filter(mask)

    tables = read_tables_parallel(hits, read=read)
    return kept, pa.concat_tables(tables) if tables else schema.empty_table()


def _executed(tbl: pa.Table) -> ray.data.Dataset:
    """``tbl`` as a one-block Dataset that is already executed, so
    consuming it starts no streaming executor (for one in-memory block
    that costs ~20 ms: threads, a stats-actor round trip and a 10 ms
    output poll). It sets the plan's snapshot as ``ExecutionPlan.execute``
    does for in-memory sources, without that method's spilled-bytes
    lookup: ``materialize()`` runs the lookup twice, each a raylet
    ``FormatGlobalMemoryInfo`` RPC that fans out to every worker. The
    fields are Ray-internal (Ray 2.49); ``tests/test_scan_plan.py``
    pins that consuming the result starts no executor and no lookup."""
    ds = ray.data.from_blocks([tbl])
    plan, dag = ds._plan, ds._logical_plan.dag
    (plan._snapshot_bundle,) = dag.output_data()
    plan._snapshot_operator = dag
    plan._snapshot_stats = plan._in_stats
    return ds


def _read_file(path: str, schema: pa.Schema) -> pa.Table:
    """One data file as ``schema``: only its columns are decoded, a
    column it lacks comes back as nulls, and types are cast to the
    manifest's."""
    pf = pq.ParquetFile(path)
    have = set(pf.schema_arrow.names)
    return align_to_schema(pf.read(columns=[n for n in schema.names if n in have]), schema)


def _read_files(paths: list, schema: pa.Schema) -> pa.Table:
    from engine.writer import read_tables_parallel

    tables = read_tables_parallel(paths, read=lambda p: _read_file(p, schema))
    return tables[0] if len(tables) == 1 else pa.concat_tables(tables)


def _read_runs(paths: list, schema: pa.Schema):
    for i in range(0, len(paths), FILES_PER_RUN):
        yield _read_files(paths[i : i + FILES_PER_RUN], schema)


class _ManifestFiles(Datasource):
    """Read tasks over manifest file entries. Rows, bytes and schema come
    from the manifest, so building the tasks opens no file. Each task
    reads a contiguous run of files (balanced by bytes, in manifest
    order), ``FILES_PER_RUN`` files at a time; Ray's output buffer
    joins small runs into blocks of up to ``target_max_block_size``."""

    def __init__(self, files: list, schema: pa.Schema):
        self._files = files
        self._schema = schema

    def get_name(self) -> str:
        return "Manifest"

    def estimate_inmemory_data_size(self) -> int:
        return sum(f.bytes for f in self._files) * DECODED_BYTES_PER_FILE_BYTE

    def get_read_tasks(self, parallelism: int) -> list:
        files = self._files
        n = max(1, min(parallelism, len(files)))
        # group k starts at the first file whose byte offset reaches
        # k/n of the total, clamped so that every group holds a file
        starts, seen = [], 0
        for f in files:
            starts.append(seen)
            seen += f.bytes
        cuts = [0]
        for k in range(1, n):
            cut = bisect.bisect_left(starts, k * seen / n)
            cuts.append(min(max(cut, cuts[-1] + 1), len(files) - (n - k)))
        cuts.append(len(files))
        schema = self._schema
        tasks = []
        for lo, hi in zip(cuts, cuts[1:]):
            group = files[lo:hi]
            paths = [f.path for f in group]
            meta = BlockMetadata(
                num_rows=sum(f.rows for f in group),
                size_bytes=sum(f.bytes for f in group) * DECODED_BYTES_PER_FILE_BYTE,
                exec_stats=None,
                input_files=paths,
            )
            tasks.append(
                ReadTask(lambda paths=paths: _read_runs(paths, schema), meta, schema=schema)
            )
        return tasks


class JobLog:
    """Per-partition lineage log for idempotent resume (L1/L2).

    One JSON line per *committed* partition:
    ``{"partition_id", "input_files", "output_files", "rows", "state"}``.
    Resume = skip partitions already logged as committed (generalizes the
    ``processed_fs_id`` backfill check, ``file_service.py:113-118``).
    """

    def __init__(self, table: Table, job_id: str):
        self.path = os.path.join(table.jobs_dir, f"{job_id}.jsonl")

    def committed(self) -> dict:
        out = {}
        try:
            with open(self.path) as f:
                for line in f:
                    if line.strip():
                        e = json.loads(line)
                        if e.get("state") == "committed":
                            out[e["partition_id"]] = e
        except FileNotFoundError:
            pass
        return out

    def failed(self) -> dict:
        """Partitions whose LATEST entry is a failure (a later committed
        retry clears the failure)."""
        latest = {}
        try:
            with open(self.path) as f:
                for line in f:
                    if line.strip():
                        e = json.loads(line)
                        latest[e["partition_id"]] = e
        except FileNotFoundError:
            pass
        return {pid: e for pid, e in latest.items() if e.get("state") == "failed"}

    def record(self, partition_id, input_files, output_files, rows, state="committed", error=None):
        entry = {
            "partition_id": partition_id,
            "input_files": input_files,
            "output_files": output_files,
            "rows": rows,
            "state": state,
        }
        if error:
            entry["error"] = str(error)
        with open(self.path, "a") as f:
            f.write(json.dumps(entry) + "\n")
            f.flush()
            os.fsync(f.fileno())
        return entry
