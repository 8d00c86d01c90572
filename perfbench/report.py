"""Turn a run's samples and spans into the metrics BENCHMARK.json names."""

from __future__ import annotations

import math
import statistics

from perfbench.trace import _union, median_or_zero, self_time_table

#: the worker-side normalize kernels of the ingest path
KERNELS = ("textstats.stats", "langid.langid", "dedup.simhash", "sanitize.batch", "zorder.cluster_key", "merge.fold")


#: fixed tail percentiles, so a run that makes more ops reports the same
#: percentile: lookups (12 an iteration and 5 or more iterations a run, so
#: at least 15 above p75) and write ops
LOOKUP_TAIL_PCT = 75
WRITE_TAIL_PCT = 90


def percentile(values: list, pct: int) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    vals = sorted(values)
    if not vals:
        return 0.0
    return vals[max(1, math.ceil(pct / 100 * len(vals))) - 1]


def end_to_end(run) -> dict:
    s = run.samples
    timed_write_s = sum(sum(s.get(kind, [])) for kind in ("write", "upsert", "expire")) / 1000.0
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (run.rss_peak_mb, "MB"),
        "rows_per_s": (run.input_rows / timed_write_s if timed_write_s else 0.0, "1/s"),
        "write_op_ms_p50": (median_or_zero(s.get("write", [])), "ms"),
        "scan_full_ms": (median_or_zero(s.get("scan_full", [])), "ms"),
        "scan_pruned_ms": (median_or_zero(s.get("scan_pruned", [])), "ms"),
        "lookup_ms_p50": (median_or_zero(s.get("lookup", [])), "ms"),
        f"lookup_ms_p{LOOKUP_TAIL_PCT}": (percentile(s.get("lookup", []), LOOKUP_TAIL_PCT), "ms"),
        "write_amp": (run.bytes_written / run.input_bytes if run.input_bytes else 0.0, "ratio"),
        "space_amp": (run.space_amp, "ratio"),
    }


def _by_name(spans: list, name: str, traced_ops: set) -> list:
    return [sp for sp in spans if sp["name"] == name and sp["op"] in traced_ops]


def _descendants(spans: list, children: dict, i: int):
    todo = list(children.get(i, []))
    while todo:
        j = todo.pop()
        yield spans[j]
        todo.extend(children.get(j, []))


def per_layer(run, spans: list) -> dict:
    """Per-call medians of each layer's span durations over the traced
    ops, plus counts. A layer the workload never calls reads 0."""
    ops = {sp["op"] for sp in spans if sp["parent"] is None and sp["name"].startswith("op.")}
    n_ops = max(1, len(ops))
    n_writes = max(1, sum(1 for sp in spans if sp["name"] == "op.write"))
    children: dict = {}
    for i, sp in enumerate(spans):
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(i)

    def dur_ms(name):
        return median_or_zero((sp["end"] - sp["start"]) * 1000.0 for sp in _by_name(spans, name, ops))

    def attr(name, key):
        return [sp.get("attrs", {}).get(key, 0) for sp in _by_name(spans, name, ops)]

    def route(job, marker):
        calls = [i for i, sp in enumerate(spans) if sp["name"] == job and sp["op"] in ops]
        hit = sum(1 for i in calls if any(d["name"] == marker for d in _descendants(spans, children, i)))
        return hit / len(calls) if calls else 0.0

    skew, exchange = [], []
    for i, sp in enumerate(spans):
        if sp["name"] != "jobs.merge_into" or sp["op"] not in ops:
            continue
        desc = list(_descendants(spans, children, i))
        rows = [d.get("attrs", {}).get("rows", 0) for d in desc if d["name"] == "merge.fold"]
        if rows and statistics.median(rows) > 0:
            skew.append(max(rows) / statistics.median(rows))
        # merge wall time minus the kernel, write and manifest work under it
        work = [
            (d["start"], d["end"])
            for d in desc
            if d["name"] in KERNELS or d["name"] == "writer.write_block" or d["name"].startswith("manifest.")
        ]
        exchange.append((sp["end"] - sp["start"] - _union(work)) * 1000.0)

    # only scans with a predicate prune; the others read every live file
    scans = [sp for sp in _by_name(spans, "manifest.scan_plan", ops) if "considered" in sp.get("attrs", {})]
    considered = sum(sp.get("attrs", {}).get("considered", 0) for sp in scans)
    kept = sum(sp.get("attrs", {}).get("kept", 0) for sp in scans)
    written = attr("writer.write_block", "bytes")
    roots = [sp for sp in spans if sp["parent"] is None and sp["name"].startswith("op.") and sp["op"] in ops]
    untraced = run.untraced_samples.get("write", [])
    traced = run.samples.get("write", [])
    metrics = {
        "manifest.commit_ms": dur_ms("manifest.commit"),
        "manifest.commit_bytes": median_or_zero(attr("manifest.commit", "bytes")),
        "manifest.snapshot_parse_ms": dur_ms("manifest.snapshot_parse"),
        "manifest.snapshot_parses_per_op": len(_by_name(spans, "manifest.snapshot_parse", ops)) / n_ops,
        "manifest.live_entries": median_or_zero(attr("manifest.commit", "entries")),
        "manifest.expire_ms": dur_ms("manifest.expire"),
        "manifest.gc_files_deleted": median_or_zero(attr("manifest.expire", "deleted")),
        "manifest.scan_plan_ms": dur_ms("manifest.scan_plan"),
        "manifest.files_kept_ratio": kept / considered if considered else 0.0,
        "jobs.ingest_ms": dur_ms("jobs.ingest"),
        "jobs.merge_into_ms": dur_ms("jobs.merge_into"),
        "jobs.compact_ms": dur_ms("jobs.compact"),
        "jobs.cluster_ms": dur_ms("jobs.cluster"),
        "jobs.expire_ms": dur_ms("jobs.expire"),
        "jobs.merge_route": route("jobs.merge_into", "merge.datasets"),
        "jobs.cluster_route": route("jobs.cluster", "zorder.cluster_dataset"),
        "textstats.stats_ms": dur_ms("textstats.stats"),
        "langid.langid_ms": dur_ms("langid.langid"),
        "dedup.simhash_ms": dur_ms("dedup.simhash"),
        "sanitize.batch_ms": dur_ms("sanitize.batch"),
        "zorder.cluster_key_ms": dur_ms("zorder.cluster_key"),
        "merge.fold_ms": dur_ms("merge.fold"),
        "merge.bucket_rows_max_over_median": median_or_zero(skew),
        "merge.exchange_ms": median_or_zero(exchange),
        "compact.plan_ms": dur_ms("compact.plan"),
        "compact.bins": median_or_zero(attr("compact.plan", "bins")),
        "compact.bytes_rewritten": median_or_zero(attr("compact.plan", "bytes")),
        "writer.write_block_ms": dur_ms("writer.write_block"),
        "writer.files_written": len(written) / n_writes,
        "writer.bytes_written": sum(written) / n_writes,
        "writer.file_bytes_p50": median_or_zero(written),
        "stream.index_ms": median_or_zero(sp["self"] * 1000.0 for sp in _by_name(spans, "stream.upsert", ops)),
        "driver.other_ms": median_or_zero(sp["self"] * 1000.0 for sp in roots),
        f"write_op_ms_p{WRITE_TAIL_PCT}": percentile(traced, WRITE_TAIL_PCT),
        "setup.ray_start_s": run.ray_start_s,
        "setup.seed_s": statistics.median(run.setup_s),
        "trace.overhead_ratio": (
            statistics.median(traced) / statistics.median(untraced) if traced and untraced else 0.0
        ),
    }
    return metrics


PER_LAYER_UNITS = {
    "manifest.commit_bytes": "bytes",
    "manifest.snapshot_parses_per_op": "count",
    "manifest.live_entries": "count",
    "manifest.gc_files_deleted": "count",
    "manifest.files_kept_ratio": "ratio",
    "jobs.merge_route": "ratio",
    "jobs.cluster_route": "ratio",
    "merge.bucket_rows_max_over_median": "ratio",
    "compact.bins": "count",
    "compact.bytes_rewritten": "bytes",
    "writer.files_written": "count",
    "writer.bytes_written": "bytes",
    "writer.file_bytes_p50": "bytes",
    "setup.ray_start_s": "s",
    "setup.seed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "ms")


def dominant_layers(spans: list) -> dict:
    """Per op kind, self time grouped into the layers the workloads are
    built to isolate: manifest, kernels, exchange+orchestration,
    write_block, stream.index and driver.other."""
    out = {}
    for kind, row in self_time_table(spans).items():
        groups: dict = {}
        for name, ms in row.items():
            if name.startswith("manifest."):
                g = "manifest"
            elif name in KERNELS:
                g = "kernels"
            elif name == "writer.write_block":
                g = "write_block"
            elif name == "driver.other":
                g = "driver.other"
            elif name == "stream.upsert":
                g = "stream.index"
            else:
                g = "exchange+orchestration"
            groups[g] = groups.get(g, 0.0) + ms
        out[kind] = dict(sorted(groups.items(), key=lambda kv: -kv[1]))
    return out
