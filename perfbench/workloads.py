"""The benchmark's workloads. Each drives the engine only through its
public functions (``engine.jobs``, ``engine.manifest.Table``,
``engine.stream.StreamingUpsert``), one client in a closed loop: the next
op starts when the previous one returned.

Every iteration is one write op, an expire, then reads:

- ``scan_full``: every row of the table, consumed batch by batch;
- ``scan_pruned``: ``lang = 'zh'``, pruned by the manifest's per-file
  value sets, consumed and filtered exactly;
- ``lookup``: ``Table.scan(predicate_stats={"url": (u, u)})``, filtered
  exactly, newest version checked.

Why each workload exists (see README.md for the layer map):

- ``crawl_maintain``: the headline chain, normalize + ingest -> merge ->
  compact -> cluster -> expire, on a table that stays under 64 MB, so
  merge and cluster take their single-task paths. Kernels dominate; the
  exchange is idle, so a change to it predicts no change here.
- ``merge_delta``: ``merge_into(source=delta)`` forces the
  hash-partitioned exchange; its per-bucket outputs give ``compact``
  real bins. A micro-batch ``StreamingUpsert.upsert`` lands before each
  merge, the append path the merge later folds. The only workload where
  the exchange, compaction and the streaming index run.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import gen
from perfbench.oracle import LwwOracle

#: sizes per workload; an iteration is the write op, then reads
CRAWL = {
    "rows": 32_768,
    "setup_rows": 8_192,  # one row per url: the table starts at steady state
    "files": 64,
    "url_space": 8_192,
    "cluster_rows_per_file": 1_024,
    "lookups": 12,
}
MERGE = {"base_rows": 16_384, "url_space": 8_192, "delta_rows": 8_192, "upsert_rows": 200, "lookups": 12}
#: full and pruned scans per iteration: a run makes few iterations, and
#: the scan medians need more samples than that
SCANS = 3
#: doc-id offset per seed; doc_id seconds past 2026 must stay inside
#: pandas' datetime64[ns] range (year 2262), which normalize passes through
SEED_STRIDE = 1 << 22


class OpFailed(Exception):
    """An op raised; the run stops because the table state is unknown."""


def _consume(ds, keep=None) -> pa.Table:
    """Pull every batch through the pipeline (a bare ``count()`` on
    Parquet is metadata-only) and keep the rows ``keep`` selects."""
    parts = []
    for batch in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        parts.append(batch if keep is None else batch.filter(keep(batch)))
    return pa.concat_tables(parts) if parts else pa.table({})


def _cfg(nproc: int):
    """Expire keeps only the current snapshot; merge buckets follow the
    config's own sizing rule, ~4 per core (the engine floors it at 8)."""
    from engine.config import EngineConfig

    return EngineConfig(snapshot_ttl_seconds=0.0, merge_buckets=4 * nproc)


def _data_files(table) -> dict:
    with os.scandir(table.data_dir) as it:
        return {e.name: e.stat().st_size for e in it if e.name.endswith(".parquet")}


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


class Workload:
    """Shared loop: set-up, timed iterations, checks against the DuckDB
    LWW oracle, space accounting."""

    name = ""
    url_space = 0
    lookups = 0

    def __init__(self, run):
        self.run = run
        self.seed = run.seed
        self.rng = np.random.default_rng([run.seed, 7])
        self.base_id = (run.seed % 1000) * SEED_STRIDE
        self.cfg = _cfg(run.nproc)
        self.table = None
        self.seen_files: dict = {}
        self.oracle = LwwOracle()

    # -- set-up ------------------------------------------------------------
    def setup(self, root: str) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed ops before the loop, so the worker pool has grown to
        what the loop needs and no timed op pays a worker start."""
        self.iteration()

    # -- accounting --------------------------------------------------------
    def note_written(self) -> None:
        """Add bytes of data files created since the last call to the
        written total (called before each expire, which deletes them)."""
        files = _data_files(self.table)
        self.run.bytes_written += sum(
            size for name, size in files.items() if name not in self.seen_files
        )
        self.seen_files.update(files)

    def start_loop(self) -> None:
        self.seen_files = _data_files(self.table)

    def expire(self) -> None:
        from engine import jobs

        self.note_written()
        with self.run.op("expire"):
            jobs.expire(self.table, self.cfg)

    def space_amp(self) -> float:
        from engine import jobs

        self.note_written()
        jobs.expire(self.table, self.cfg)
        live = sum(f.bytes for f in self.table.snapshot().files)
        return (_dir_bytes(self.table.data_dir) + _dir_bytes(self.table.manifest_dir)) / live

    # -- reads -------------------------------------------------------------
    def scan_full(self) -> pa.Table:
        with self.run.op("scan_full"):
            return _consume(self.table.scan())

    def scan_lang(self, lang: str) -> pa.Table:
        with self.run.op("scan_pruned"):
            return _consume(
                self.table.scan(predicate_stats={"lang": (lang, lang)}),
                lambda b: pc.equal(b.column("lang"), lang),
            )

    def lookup(self, url: str) -> pa.Table:
        with self.run.op("lookup"):
            return _consume(
                self.table.scan(predicate_stats={"url": (url, url)}),
                lambda b: pc.equal(b.column("url"), url),
            )

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.run.mismatch(what)

    def check_lookup(self, url: str, got: pa.Table, expected) -> None:
        """Newest version of ``url`` in ``got`` equals ``expected``
        ((ts_us, text) or None)."""
        if len(got) == 0:
            self.check(expected is None, f"lookup {url}: no row")
            return
        ts = pc.cast(pc.cast(got.column("warc_ts"), pa.timestamp("us")), pa.int64()).to_numpy()
        i = int(np.argmax(ts))
        self.check(
            (int(ts[i]), got.column("text")[i].as_py()) == expected,
            f"lookup {url}: newest version differs",
        )


    def reads(self) -> None:
        for _ in range(SCANS):
            full = self.scan_full()
            self.check(len(full) == self.oracle.count(), "full scan row count")
            zh = self.scan_lang("zh")
            self.check(len(zh) == self.oracle.count("zh"), "pruned scan row count")
        for u in self.rng.integers(0, self.url_space, self.lookups):
            url = gen.url(u)
            self.check_lookup(url, self.lookup(url), self.oracle.newest(url))

    def finish(self) -> None:
        n = self.oracle.mismatches(_consume(self.table.scan()))
        self.check(n == 0, f"final table: {n} rows differ from the DuckDB LWW oracle")
        self.oracle.close()


class CrawlMaintain(Workload):
    name = "crawl_maintain"
    url_space = CRAWL["url_space"]
    lookups = CRAWL["lookups"]

    def __init__(self, run):
        super().__init__(run)
        self.round = 0

    def _slice(self, n: int) -> tuple:
        """The next crawl slice, staged as undersized zstd input files."""
        ids = self.base_id + self.round * CRAWL["rows"] + np.arange(n, dtype=np.int64)
        rows = gen.pages(self.seed, ids, self.url_space)
        in_dir = os.path.join(self.run.work_dir, "input")
        os.makedirs(in_dir, exist_ok=True)
        for name in os.listdir(in_dir):
            os.remove(os.path.join(in_dir, name))
        per = -(-n // CRAWL["files"])
        paths = []
        for i in range(CRAWL["files"]):
            path = os.path.join(in_dir, f"part-{i:03d}.parquet")
            pq.write_table(rows.slice(i * per, per), path, compression="zstd")
            paths.append(path)
        self.round += 1
        return rows, paths

    def _maintain(self, paths: list) -> None:
        from engine import jobs

        ds = jobs.normalize_stage(jobs.evolved_read(paths), self.cfg, sanitize_cols=("text",))
        jobs.ingest(self.table, ds, self.cfg, sanitize_cols=())
        jobs.merge_into(self.table, self.cfg)
        jobs.compact(self.table, self.cfg)
        jobs.cluster(self.table, self.cfg, rows_per_file=CRAWL["cluster_rows_per_file"])

    def setup(self, root: str) -> None:
        from engine import jobs
        from engine.manifest import Table

        self.table = Table.create(root)
        self.round = 0
        self.oracle.close()
        self.oracle = LwwOracle()
        rows, paths = self._slice(CRAWL["setup_rows"])
        self._maintain(paths)
        jobs.expire(self.table, self.cfg)
        self.oracle.add(rows)

    def warm_up(self) -> None:
        self.reads()  # set-up already ran the write chain

    def iteration(self) -> None:
        rows, paths = self._slice(CRAWL["rows"])
        self.oracle.add(rows)
        self.run.input_rows += len(rows)
        self.run.input_bytes += rows.nbytes
        with self.run.op("write"):
            self._maintain(paths)
        self.expire()
        self.reads()


class MergeDelta(Workload):
    name = "merge_delta"
    url_space = MERGE["url_space"]
    lookups = MERGE["lookups"]

    def __init__(self, run):
        super().__init__(run)
        self.delta = 0
        self.front = None

    def _normalized(self, rows: pa.Table):
        import ray.data
        from engine import jobs

        return jobs.normalize_stage(ray.data.from_arrow(rows), self.cfg, sanitize_cols=("text",))

    def setup(self, root: str) -> None:
        from engine import jobs
        from engine.manifest import Table

        self.table = Table.create(root)
        self.delta = 0
        self.oracle.close()
        self.oracle = LwwOracle()
        n = MERGE["base_rows"]
        rows = gen.pages(self.seed, self.base_id + np.arange(n, dtype=np.int64), self.url_space)
        jobs.ingest(self.table, self._normalized(rows), self.cfg, sanitize_cols=())
        jobs.merge_into(self.table, self.cfg)
        jobs.cluster(self.table, self.cfg)
        jobs.expire(self.table, self.cfg)
        self.oracle.add(rows)
        self.front = None  # index actors start in the first (untimed) iteration

    def iteration(self) -> None:
        import ray
        from engine import jobs
        from engine.stream import StreamingUpsert

        if self.front is None:
            self.front = StreamingUpsert(self.table, self.cfg, num_shards=2)
        # doc ids of this iteration: the delta draws from 4x the url space,
        # the micro-batch from the next url space, so its rows are newest
        space = self.url_space
        start = self.base_id + MERGE["base_rows"] + self.delta * 5 * space
        self.delta += 1
        delta_ids = start + np.sort(self.rng.choice(4 * space, MERGE["delta_rows"], replace=False))
        micro_ids = start + 4 * space + np.sort(self.rng.choice(space, MERGE["upsert_rows"], replace=False))
        delta = gen.pages(self.seed, delta_ids.astype(np.int64), space)
        micro = gen.pages(self.seed, micro_ids.astype(np.int64), space)
        for rows in (delta, micro):  # oldest first, as the oracle requires
            self.oracle.add(rows)
            self.run.input_rows += len(rows)
            self.run.input_bytes += rows.nbytes
        # both normalized up front, so the ops time the upsert and the
        # merge, not the inputs' kernels
        batch = pa.concat_tables(ray.get(self._normalized(micro).materialize().to_arrow_refs()))
        source = self._normalized(delta).materialize()
        with self.run.op("upsert"):
            out = self.front.upsert(batch)
        self.check(out["appended"] == _fold_count(micro), "upsert appended row count")
        with self.run.op("write"):
            jobs.merge_into(self.table, self.cfg, source=source)
            jobs.compact(self.table, self.cfg)
        self.expire()
        self.reads()


def _fold_count(batch: pa.Table) -> int:
    """Rows one micro-batch appends: one per distinct non-empty url plus
    every NULL/empty-url row (passed through unmerged)."""
    urls = batch.column("url")
    missing = pc.or_(pc.is_null(urls), pc.equal(pc.fill_null(urls, ""), ""))
    keyed = urls.filter(pc.invert(missing))
    return len(pc.unique(keyed)) + (len(batch) - len(keyed))


WORKLOADS = {w.name: w for w in (CrawlMaintain, MergeDelta)}
