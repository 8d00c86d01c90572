"""Command-line entry point for maintenance jobs, the shape you'd hand
to ``ray job submit`` on a real cluster::

    ray job submit -- python -m engine maintain --table /data/pages \\
        --input 's3://.../crawl/*.parquet'
    python -m engine ingest  --table T --input f1.parquet f2.parquet
    python -m engine merge   --table T
    python -m engine compact --table T --target-mb 128 --job-id nightly
    python -m engine cluster --table T --curve zorder|hilbert
    python -m engine expire  --table T --ttl-hours 24
    python -m engine scan    --table T [--limit 10]
    python -m engine ingest-csv --table T --input *.csv [--id-field url]
    python -m engine quantiles --table T --column n_chars --q 0.5 0.9 [--by lang]
    python -m engine topk    --table T --order warc_ts --k 10 [--by lang] [--tie url]
    python -m engine top-terms --table T [--k 5]
    python -m engine reindex --table T [--retrain] [--vec-col embedding]
    python -m engine dedup-lines --table T [--key-col url]
    python -m engine history --table T [--limit 20]

This is the only module besides bench.py and the test fixture that owns
a Ray session (guarded: respects an already-initialised Ray).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="engine", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--table", required=True)
        return sp

    sp = add("ingest")
    sp.add_argument("--input", nargs="+", required=True)
    sp.add_argument("--job-id", default=None)
    sp.add_argument("--shard-files", type=int, default=16)
    sp.add_argument("--no-sanitize", action="store_true")

    sp = add("ingest-csv")
    sp.add_argument("--input", nargs="+", required=True)
    sp.add_argument("--id-field", default=None)

    sp = add("merge")
    sp.add_argument("--key", default="url")
    sp.add_argument("--ts", default="warc_ts")

    sp = add("compact")
    sp.add_argument("--target-mb", type=int, default=128)
    sp.add_argument("--job-id", default=None)

    sp = add("cluster")
    sp.add_argument("--curve", choices=["zorder", "hilbert"], default="zorder")

    sp = add("expire")
    sp.add_argument("--ttl-hours", type=float, default=24.0)

    sp = add("maintain")
    sp.add_argument("--input", nargs="+", required=True)
    sp.add_argument("--target-mb", type=int, default=128)

    sp = add("scan")
    sp.add_argument("--limit", type=int, default=10)
    sp.add_argument("--columns", nargs="*", default=None)

    sp = add("quantiles")
    sp.add_argument("--column", required=True)
    sp.add_argument("--q", nargs="+", type=float, default=[0.5])
    sp.add_argument("--by", default=None)

    sp = add("topk")
    sp.add_argument("--order", required=True)
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--by", default=None)
    sp.add_argument("--tie", nargs="*", default=[])
    sp.add_argument("--asc", action="store_true")

    sp = add("top-terms")
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--lang-col", default="lang")

    sp = add("history")
    sp.add_argument("--limit", type=int, default=20)

    sp = add("dedup-lines")
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--key-col", default="url")

    sp = add("reindex")
    sp.add_argument("--id-col", default="vec_id")
    sp.add_argument("--vec-col", default="embedding")
    sp.add_argument("--retrain", action="store_true")
    sp.add_argument("--n-centroids", type=int, default=None)

    args = p.parse_args(argv)
    _ensure_ray()

    from engine.config import EngineConfig
    from engine.manifest import Table
    from engine import jobs

    cfg = EngineConfig()

    if args.cmd == "maintain":
        out = jobs.full_maintenance(
            args.table, list(args.input), cfg, target_bytes=args.target_mb << 20
        )
    elif args.cmd == "ingest":
        t = Table.create(args.table)
        import uuid as _uuid

        # a CONSTANT default job_id would make a second ingest on the
        # same table a silent already-committed no-op; resumability is
        # opted into by passing an explicit --job-id
        out = jobs.ingest_sharded(
            t,
            list(args.input),
            cfg,
            job_id=args.job_id or f"cli-{_uuid.uuid4().hex[:8]}",
            shard_files=args.shard_files,
            sanitize_cols=() if args.no_sanitize else ("text",),
        )
    elif args.cmd == "ingest-csv":
        from engine.csv_ingest import ingest_csv, validate_csv_paths
        from engine.writer import write_files

        accepted, rejected = validate_csv_paths(list(args.input))
        t = Table.create(args.table)
        ds, fields, errors = ingest_csv(accepted, id_field=args.id_field)
        # durable quarantine records (the reference's persisted ``error``
        # state): rejected admissions + decode failures land in the job
        # log, not just the process output
        if rejected or errors:
            from engine.manifest import JobLog

            qlog = JobLog(t, "ingest-csv-quarantine")
            for p, reason in rejected:
                qlog.record(p, input_files=[p], output_files=[], rows=0,
                            state="quarantined", error=reason)
            for path, msg in errors:
                qlog.record(path, input_files=[path], output_files=[],
                            rows=0, state="quarantined", error=msg)
        entries = write_files(ds, t.data_dir, prefix="csv", stats_cols=())
        from engine.jobs import _entries_schema

        snap = t.commit(
            "ingest-csv", add_files=entries, schema=_entries_schema(entries),
            dead_letter_records=len(rejected) + len(errors),
        )
        out = {
            "snapshot_id": snap.snapshot_id,
            "rows": snap.total_rows,
            "fields": fields,
            "rejected": rejected,
            "quarantined": errors,
        }
    elif args.cmd == "merge":
        t = Table.load(args.table)
        c = EngineConfig(merge_key=args.key, merge_ts=args.ts)
        out = jobs.merge_into(t, c)
    elif args.cmd == "compact":
        t = Table.load(args.table)
        out = jobs.compact(t, cfg, target_bytes=args.target_mb << 20, job_id=args.job_id)
    elif args.cmd == "cluster":
        t = Table.load(args.table)
        out = jobs.cluster(t, EngineConfig(cluster_curve=args.curve))
    elif args.cmd == "expire":
        t = Table.load(args.table)
        out = jobs.expire(t, EngineConfig(snapshot_ttl_seconds=args.ttl_hours * 3600))
    elif args.cmd == "scan":
        t = Table.load(args.table)
        rows = t.scan(columns=args.columns).limit(args.limit).take_all()
        snap = t.snapshot()
        dl = t.dead_letter_counts()
        out = {
            "rows": rows,
            "total": snap.total_rows,
            "dead_letters": snap.dead_letter_records,
            "dead_letters_total": sum(dl.values()),
        }
    elif args.cmd == "history":
        t = Table.load(args.table)
        cur = t.current_snapshot_id()
        # slice the (cheap, sorted-int) id list FIRST: parsing every
        # snapshot's full file list to keep the last N would be
        # O(total manifest bytes) on a long-lived table
        sids = [s for s in t.snapshot_ids() if cur is None or s <= cur]
        sids = sids[-args.limit :] if args.limit > 0 else []
        out = []
        for sid in sids:
            h = t.snapshot_header(sid)
            out.append(
                {
                    "snapshot_id": sid,
                    "operation": h["operation"],
                    "files": h["num_files"],
                    "rows": h["total_rows"],
                    "dead_letters": h.get("dead_letter_records", 0),
                    "timestamp": h["timestamp"],
                }
            )
    elif args.cmd == "dedup-lines":
        t = Table.load(args.table)
        out = jobs.dedup_lines(t, cfg, text_col=args.text_col, key_col=args.key_col)
    elif args.cmd == "reindex":
        from engine.similarity import reindex_ivf

        t = Table.load(args.table)
        _, out = reindex_ivf(
            t, id_col=args.id_col, vec_col=args.vec_col,
            retrain=args.retrain, n_centroids=args.n_centroids,
        )
        out["snapshot_id"] = t.current_snapshot_id()
    elif args.cmd == "quantiles":
        t = Table.load(args.table)
        if args.by:
            from engine.quantiles import grouped_quantile_disc

            df = grouped_quantile_disc(
                t.scan(columns=[args.by, args.column]), args.by, args.column, args.q
            )
            out = df.to_dict(orient="records")
        else:
            from engine.quantiles import quantile_disc

            vals = quantile_disc(t.scan(columns=[args.column]), args.column, args.q)
            out = dict(zip((f"q_{q}" for q in args.q), vals))
    elif args.cmd == "topk":
        from engine.aggregates import global_topk, grouped_topk

        t = Table.load(args.table)
        cols = [c for c in {args.order, args.by, *args.tie} if c]
        ds = t.scan(columns=sorted(cols))
        if args.by:
            res = grouped_topk(
                ds, args.by, args.order, args.k,
                tie_cols=tuple(args.tie), descending=not args.asc,
            )
        else:
            res = global_topk(
                ds, args.order, args.k,
                tie_cols=tuple(args.tie), descending=not args.asc,
            )
        out = res.to_pandas().to_dict(orient="records")
    elif args.cmd == "top-terms":
        from engine.terms import top_terms_per_lang

        t = Table.load(args.table)
        df = top_terms_per_lang(
            t.scan(columns=[args.text_col, args.lang_col]),
            k=args.k, text_col=args.text_col, lang_col=args.lang_col,
        ).to_pandas()
        out = df.to_dict(orient="records")
    else:  # pragma: no cover
        p.error(f"unknown command {args.cmd}")

    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
