#!/usr/bin/env python
"""Micro-benchmark of the fused normalize stage function and its
kernels on one perfbench page batch, with no Ray session.

The stage function is timed as the stage runs it: the batch is handed
over in the format ``jobs.normalize_stage`` asks Ray for (a pandas
frame pays its ``to_pandas`` inside the timing, and a pandas result is
converted back to Arrow), with the stage's own ``fn_kwargs``
(``sanitize_cols=("text",)``, as ingest runs it). Each kernel --
``TextStats``, ``LangId``, ``simhash_texts`` and ``sanitize_batch`` --
is also timed alone, on a batch already in that format.

Run:
    python BENCH/normalize_kernels.py [--reps 9] [--rows 16384] [--seed 1]
    python BENCH/normalize_kernels.py --ab OLD_CHECKOUT NEW_CHECKOUT [--reps 9]

The first form times the checkout given by ``--root`` (default: this
one). ``--ab`` runs the two checkouts interleaved, one fresh process
per checkout and rep, alternating which goes first, and reports each
side's median and quartile distance, the median of the paired
new/old ratios and the number of pairs the new side won. Prints one
JSON document with the host fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
KEYS = ("stage", "textstats", "langid", "simhash", "sanitize")


def _host() -> dict:
    import numpy
    import pyarrow

    from perfbench.run import _nproc

    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i % 7
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "calibration_s": round(time.perf_counter() - t0, 4),
    }


class _Capture:
    """Stands in for a Dataset: records what ``map_batches`` is asked to run."""

    def map_batches(self, fn, **kw):
        self.fn, self.kw = fn, kw
        return self


def measure(root: str, rows: int, seed: int, reps: int) -> dict:
    """Median ms of the stage function and of each kernel in ``root``."""
    sys.path.insert(0, root)
    import numpy as np
    import pyarrow as pa

    import engine.jobs as jobs
    from engine.dedup import simhash_texts
    from engine.langid import LangId
    from engine.sanitize import sanitize_batch
    from engine.textstats import TextStats
    from perfbench import gen

    table = gen.pages(seed, np.arange(rows), 8192)
    cap = jobs.normalize_stage(_Capture(), sanitize_cols=("text",))
    fmt, kwargs = cap.kw["batch_format"], cap.kw.get("fn_kwargs", {})
    given = table.to_pandas() if fmt == "pandas" else table
    ts, li = TextStats(), LangId()

    def stage():
        out = cap.fn(table.to_pandas() if fmt == "pandas" else table, **kwargs)
        return out if isinstance(out, pa.Table) else pa.Table.from_pandas(out, preserve_index=False)

    fns = {
        "stage": stage,
        "textstats": lambda: ts(given),
        "langid": lambda: li(given),
        "simhash": lambda: simhash_texts(table.column("text")),
        "sanitize": lambda: sanitize_batch(table, columns=("text",)),
    }
    runs = {k: [] for k in KEYS}
    for k in KEYS:
        fns[k]()  # warm: per-process state, first-touch pages
    for _ in range(reps):
        for k in KEYS:
            t0 = time.perf_counter()
            fns[k]()
            runs[k].append((time.perf_counter() - t0) * 1e3)
    return {
        "root": root,
        "batch_format": fmt,
        "rows": rows,
        "text_bytes": int(pa.compute.sum(pa.compute.binary_length(table.column("text"))).as_py()),
        "median_ms": {k: round(statistics.median(v), 2) for k, v in runs.items()},
        "runs_ms": {k: [round(x, 2) for x in v] for k, v in runs.items()},
    }


def _quartile_gap(xs: list) -> float:
    q = statistics.quantiles(xs, n=4)
    return round(q[2] - q[0], 2)


def ab(old: str, new: str, rows: int, seed: int, reps: int) -> dict:
    """Interleaved old/new pairs, one fresh process per side and rep."""
    sides = {old: [], new: []}
    for i in range(reps):
        for root in (old, new) if i % 2 == 0 else (new, old):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--root", root,
                 "--rows", str(rows), "--seed", str(seed), "--reps", "1"],
                capture_output=True, text=True, check=True,
            ).stdout
            sides[root].append(json.loads(out)["median_ms"])
    summary = {}
    for k in KEYS:
        a = [r[k] for r in sides[old]]
        b = [r[k] for r in sides[new]]
        summary[k] = {
            "old_median_ms": round(statistics.median(a), 2),
            "old_quartile_gap_ms": _quartile_gap(a),
            "new_median_ms": round(statistics.median(b), 2),
            "new_quartile_gap_ms": _quartile_gap(b),
            "paired_ratio_median": round(statistics.median(y / x for x, y in zip(a, b)), 3),
            "new_wins": sum(y < x for x, y in zip(a, b)),
            "pairs": reps,
        }
    return {"old": old, "new": new, "rows": rows, "seed": seed, "summary": summary,
            "runs_ms": {"old": sides[old], "new": sides[new]}}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=HERE)
    ap.add_argument("--ab", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--rows", type=int, default=16384)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=9)
    args = ap.parse_args()
    if args.ab:
        out = ab(os.path.abspath(args.ab[0]), os.path.abspath(args.ab[1]), args.rows, args.seed, args.reps)
    else:
        out = measure(os.path.abspath(args.root), args.rows, args.seed, args.reps)
    out["host"] = _host()
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
