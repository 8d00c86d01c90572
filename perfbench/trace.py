"""Spans around the engine's public functions, for the traced run.

A span is ``(name, start, end, parent, op)`` on the system-wide monotonic
clock, so spans from Ray worker processes line up with the driver's.
Driver spans nest by call stack; the benchmark opens one root span per
timed op. Worker kernels (fold, curve key, sanitize, normalize,
``write_block``) run lazily inside Ray Data tasks, so a driver span
around ``write_files`` covers the whole upstream; they are wrapped
inside the workers by :func:`worker_setup`, a Ray
``worker_process_setup_hook``. A worker appends each span to its own
``w-<pid>.jsonl`` as it closes, because Ray kills idle workers at
shutdown without running exit handlers. :func:`account` later hangs each
worker span under the innermost driver span that covers it.

A function is wrapped at every ``engine.*`` module attribute bound to
it: ``from x import f`` makes a second binding that patching ``x.f``
alone would miss.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, sink=None):
        self.spans: list = []
        self._stack: list = []
        self.op = None
        self.counts: dict = {}
        self._sink = sink

    def open(self, name: str, op=None) -> int:
        span = {
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op if op is None else op,
            "pid": os.getpid(),
        }
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span["end"] = time.monotonic()
        if attrs:
            span["attrs"] = attrs
        self._stack.pop()
        if self._sink is not None:
            self._sink.write(json.dumps(span) + "\n")
            self._sink.flush()
            self.spans.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = None
                if attrs is not None and result is not None:
                    extra = attrs(args, kwargs, result)
                self.close(idx, extra)

        return traced


def rebind(orig, new) -> int:
    """Point every ``engine.*`` module attribute bound to ``orig`` at ``new``."""
    n = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "engine" or name.startswith("engine.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
                n += 1
    return n


def _wrap_function(tracer: Tracer, module, attr: str, name: str, attrs=None) -> None:
    orig = getattr(module, attr)
    rebind(orig, tracer.wrap(name, orig, attrs))


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, attrs=None) -> None:
    setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), attrs))


def _import_engine() -> None:
    import engine.compact  # noqa: F401
    import engine.dedup  # noqa: F401
    import engine.jobs  # noqa: F401
    import engine.langid  # noqa: F401
    import engine.manifest  # noqa: F401
    import engine.merge  # noqa: F401
    import engine.sanitize  # noqa: F401
    import engine.stream  # noqa: F401
    import engine.textstats  # noqa: F401
    import engine.writer  # noqa: F401
    import engine.zorder  # noqa: F401


def install_worker(tracer: Tracer) -> None:
    """Wrap the kernels that run inside Ray tasks."""
    _import_engine()
    import engine.dedup as dedup
    import engine.merge as merge
    import engine.sanitize as sanitize
    import engine.writer as writer
    import engine.zorder as zorder
    from engine.langid import LangId
    from engine.textstats import TextStats

    _wrap_method(tracer, TextStats, "__call__", "textstats.stats")
    _wrap_method(tracer, LangId, "__call__", "langid.langid")
    _wrap_function(tracer, dedup, "simhash_texts", "dedup.simhash")
    _wrap_function(tracer, sanitize, "sanitize_batch", "sanitize.batch")
    _wrap_function(tracer, zorder, "add_cluster_key", "zorder.cluster_key")
    _wrap_function(
        tracer, merge, "merge_fold_passthrough_arrow", "merge.fold",
        lambda a, k, r: {"rows": len(a[0])},
    )
    _wrap_function(
        tracer, writer, "write_block", "writer.write_block",
        lambda a, k, r: {"bytes": r["bytes"]},
    )


def install_driver(tracer: Tracer) -> None:
    """Wrap the public functions the benchmark's ops call on the driver."""
    _import_engine()
    import engine.compact as compact
    import engine.jobs as jobs
    import engine.manifest as manifest
    import engine.merge as merge
    import engine.writer as writer
    import engine.zorder as zorder
    from engine.manifest import Table
    from engine.stream import StreamingUpsert

    for fn in ("ingest", "merge_into", "compact", "cluster", "expire"):
        _wrap_function(tracer, jobs, fn, f"jobs.{fn}")
    _wrap_function(tracer, merge, "merge_datasets", "merge.datasets")
    _wrap_function(tracer, zorder, "cluster_dataset", "zorder.cluster_dataset")
    _wrap_function(
        tracer, compact, "plan_bins", "compact.plan",
        lambda a, k, r: {
            "bins": len(r[0]),
            "bytes": sum(fe.bytes for b in r[0] for fe in b),
        },
    )
    _wrap_function(tracer, writer, "write_files", "writer.write_files")
    # the upsert front-end folds its micro-batch on the driver
    _wrap_function(
        tracer, merge, "merge_fold_arrow", "merge.fold",
        lambda a, k, r: {"rows": len(a[0])},
    )
    _wrap_method(
        tracer, Table, "snapshot", "manifest.snapshot_parse",
        lambda a, k, r: {"entries": len(r.files)},
    )
    _wrap_method(
        tracer, Table, "commit", "manifest.commit",
        lambda a, k, r: {
            "entries": len(r.files),
            "bytes": os.path.getsize(a[0]._snap_path(r.snapshot_id)),
        },
    )
    _wrap_method(
        tracer, Table, "expire_snapshots", "manifest.expire",
        lambda a, k, r: {"deleted": len(r["deleted_files"])},
    )
    _wrap_method(tracer, StreamingUpsert, "upsert", "stream.upsert")

    overlap = manifest._stats_overlap

    def counted_overlap(fe, predicate_stats):
        kept = overlap(fe, predicate_stats)
        tracer.count("scan.considered")
        tracer.count("scan.kept", int(kept))
        return kept

    rebind(overlap, counted_overlap)
    scan = Table.scan

    @functools.wraps(scan)
    def traced_scan(self, *args, **kwargs):
        before = (tracer.counts.get("scan.considered", 0), tracer.counts.get("scan.kept", 0))
        idx = tracer.open("manifest.scan_plan")
        try:
            return scan(self, *args, **kwargs)
        finally:
            attrs = None
            if kwargs.get("predicate_stats", args[2] if len(args) > 2 else None):
                attrs = {
                    "considered": tracer.counts.get("scan.considered", 0) - before[0],
                    "kept": tracer.counts.get("scan.kept", 0) - before[1],
                }
            tracer.close(idx, attrs)

    Table.scan = traced_scan


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace kernels in this worker."""
    span_dir = os.environ.get(SPAN_DIR_ENV)
    if not span_dir:
        return
    sink = open(os.path.join(span_dir, f"w-{os.getpid()}.jsonl"), "a")
    install_worker(Tracer(sink=sink))


def load_worker_spans(span_dir: str) -> list:
    spans = []
    for name in sorted(os.listdir(span_dir)):
        if name.startswith("w-") and name.endswith(".jsonl"):
            with open(os.path.join(span_dir, name)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def _union(intervals: list) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def account(driver_spans: list, worker_spans: list) -> list:
    """Join worker spans to the driver tree and compute self times.

    Returns every span (driver then worker) with ``op``, ``parent`` and
    ``self`` (seconds) set. A worker span's parent is the innermost
    driver span of the op covering its start; spans outside every op
    (set-up) keep ``op`` None. The root span of an op keeps the time no
    child covers: that is ``driver.other``."""
    # driver parents are indices into driver_spans; every wrapper closes
    # its span in a finally, so the list is complete
    spans = [dict(s) for s in driver_spans]
    roots = sorted(
        (i for i, s in enumerate(spans) if s["parent"] is None and s["name"].startswith("op.")),
        key=lambda i: spans[i]["start"],
    )
    by_op: dict = {}
    for i, s in enumerate(spans):
        by_op.setdefault(s["op"], []).append(i)
    for w in sorted(worker_spans, key=lambda s: s["start"]):
        w = dict(w)
        w["parent"], w["op"] = None, None
        for r in roots:
            root = spans[r]
            if root["start"] <= w["start"] <= root["end"]:
                w["op"] = root["op"]
                best = r
                for i in by_op.get(root["op"], []):
                    s = spans[i]
                    if s["start"] <= w["start"] <= s["end"] and s["start"] >= spans[best]["start"]:
                        best = i
                w["parent"] = best
                break
        spans.append(w)
    children: dict = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)
    for i, s in enumerate(spans):
        covered = [
            (max(spans[c]["start"], s["start"]), min(spans[c]["end"], s["end"]))
            for c in children.get(i, [])
        ]
        covered = [(lo, hi) for lo, hi in covered if hi > lo]
        s["self"] = (s["end"] - s["start"]) - _union(covered)
    return spans


def self_time_table(spans: list) -> dict:
    """{op kind: {span name: mean self ms per op}}; an op root's own self
    time is listed as ``driver.other``. The entries of one kind sum to
    the mean wall time of that kind."""
    ops: dict = {}
    for s in spans:
        if s["parent"] is None and s["name"].startswith("op.") and s["op"] is not None:
            ops[s["op"]] = s["name"][3:]
    totals: dict = {}
    n_ops: dict = {}
    for kind in ops.values():
        n_ops[kind] = n_ops.get(kind, 0) + 1
    for s in spans:
        if s["op"] not in ops:
            continue
        kind = ops[s["op"]]
        name = "driver.other" if (s["parent"] is None and s["name"].startswith("op.")) else s["name"]
        row = totals.setdefault(kind, {})
        row[name] = row.get(name, 0.0) + s["self"] * 1000.0
    return {
        kind: {k: v / n_ops[kind] for k, v in sorted(row.items(), key=lambda kv: -kv[1])}
        for kind, row in totals.items()
    }


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
