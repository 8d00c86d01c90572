"""Lakehouse maintenance benchmark.

    python3 perfbench/run.py --workload crawl_maintain --seed 1 --seconds 20 --trace 0

Runs one workload (see perfbench/workloads.py) in a private Ray session
sized to this host's CPUs, for ``--seconds`` of closed-loop ops after
set-up, checks every output against an independent oracle and prints
one JSON object as the last line of stdout. ``--trace 1`` runs the
first third of the time untraced, then wraps the engine's public
functions and prints per-layer metrics instead. A details file (host
fingerprint, calibration, every sample, route decisions, spans) is
written under ``.perfbench/details/``.

Exit codes: 0 correct run; 1 an op failed or an output was wrong;
2 the engine or a dependency cannot be imported; 3 a process outlived
the Ray shutdown and had to be killed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: set-ups per run; setup_s is their median (the first pays cold workers)
SETUP_REPS = 3
#: seconds to wait for Ray's processes after ray.shutdown()
TEARDOWN_WAIT_S = 60.0


class Run:
    """Samples, counters and failures of one benchmark run."""

    def __init__(self, seed: int, work_dir: str):
        from perfbench.session import tree_rss_mb

        self._rss = tree_rss_mb
        self.seed = seed
        self.work_dir = work_dir
        self.samples: dict = {}
        self.untraced_samples: dict = {}
        self.attempted = 0
        self.failed_ops: list = []
        self.mismatches: list = []
        self.rss_peak_mb = 0.0
        self.input_rows = 0
        self.input_bytes = 0
        self.bytes_written = 0
        self.space_amp = 0.0
        self.setup_s: list = []
        self.ray_start_s = 0.0
        self.tracer = None
        self.metrics: dict = {}
        self.nproc = _nproc()
        self.phases_s: dict = {}
        self._phase_t0 = time.perf_counter()

    def phase(self, name: str) -> None:
        """Record the wall time since the previous phase ended."""
        now = time.perf_counter()
        self.phases_s[name] = now - self._phase_t0
        self._phase_t0 = now

    def sample_rss(self) -> None:
        self.rss_peak_mb = max(self.rss_peak_mb, self._rss())

    @contextlib.contextmanager
    def op(self, kind: str):
        """Time one op; an exception fails the op and ends the run."""
        from perfbench.workloads import OpFailed

        self.attempted += 1
        op_id = self.attempted
        tracer = self.tracer
        if tracer is not None:
            tracer.op = op_id
            idx = tracer.open(f"op.{kind}", op=op_id)
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:
            self.failed_ops.append({"op": kind, "id": op_id, "error": repr(exc)})
            raise OpFailed(f"op {op_id} ({kind}) failed: {exc!r}") from exc
        finally:
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            if tracer is not None:
                tracer.close(idx)
                tracer.op = None
        self.samples.setdefault(kind, []).append(elapsed_ms)
        self.sample_rss()

    def mismatch(self, what: str) -> None:
        self.mismatches.append({"after_op": self.attempted, "check": what})
        print(f"perfbench: check failed after op {self.attempted}: {what}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.failed_ops) + len(self.mismatches)


def _nproc() -> int:
    """What GNU ``nproc`` prints: the CPUs this process may run on,
    lowered by ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        head = os.environ.get(var, "").split(",")[0].strip()
        if head.isdigit() and int(head) > 0:
            n = min(n, int(head)) if var == "OMP_THREAD_LIMIT" else int(head)
    return n


def _fingerprint() -> dict:
    import duckdb
    import pyarrow
    import ray

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                head = f.read().strip()
        commit = head
    except OSError:
        pass
    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i % 7
    calib = time.perf_counter() - t0
    return {
        "nproc": _nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
        "git_commit": commit,
        "calibration_s": calib,
    }


def set_up(run: Run, wl, reps: int = SETUP_REPS) -> None:
    """Build the workload's table ``reps`` times, each in a fresh
    directory; the loop uses the last one."""
    for rep in range(reps):
        t0 = time.perf_counter()
        wl.setup(os.path.join(run.work_dir, f"table{rep}"))
        run.setup_s.append(time.perf_counter() - t0)
        run.sample_rss()
        if rep:
            shutil.rmtree(os.path.join(run.work_dir, f"table{rep - 1}"))


def _loop(run: Run, wl, seconds: float, trace: bool, span_dir: str | None):
    """Closed-loop iterations for ``seconds``; a traced run wraps the
    engine after the first third and times the rest traced."""
    from perfbench.trace import Tracer, install_driver

    # untimed warm-up first: the first op of a kind pays one-off costs
    # (worker starts and their imports, caches) that later ops do not
    wl.start_loop()
    wl.warm_up()
    run.samples = {}
    run.input_rows = run.input_bytes = run.bytes_written = 0
    wl.start_loop()
    # keep the harness's own long-lived state (oracle, model, Ray client)
    # out of the collector's full passes, which otherwise add pauses
    # proportional to it to whichever op they land in
    gc.collect()
    gc.freeze()
    run.phase("warm_up")
    start = time.monotonic()
    tracer = None
    traced_from = start + seconds / 3.0 if trace else None
    while time.monotonic() - start < seconds:
        if traced_from is not None and tracer is None and time.monotonic() >= traced_from:
            run.untraced_samples, run.samples = run.samples, {}
            tracer = Tracer()
            install_driver(tracer)
            run.tracer = tracer
        wl.iteration()
    return tracer


def _abort_on_sigterm(dirs: tuple) -> None:
    """Ray installs its own SIGTERM handler at init, and an exception
    raised from a handler can surface inside Ray's C++ calls, so the
    handler tears down directly: stop every descendant, remove the run
    directories, exit."""
    from perfbench.session import wait_descendants

    def handler(signum, frame):
        wait_descendants(0.0)
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def _execute(args, run: Run, ray_dir: str, span_dir: str | None) -> dict:
    """Set up, loop, check. Returns the details dict."""
    from perfbench import report, trace as trace_mod
    from perfbench.session import start_ray
    from perfbench.workloads import WORKLOADS

    run.ray_start_s = start_ray(ray_dir, run.nproc, span_dir)
    _abort_on_sigterm((run.work_dir, ray_dir))
    run.phase("ray_start")
    wl = WORKLOADS[args.workload](run)
    set_up(run, wl)
    run.phase("setup")
    tracer = _loop(run, wl, args.seconds, bool(args.trace), span_dir)
    run.phase("loop")
    wl.finish()
    run.space_amp = wl.space_amp()
    run.phase("checks")
    details = {
        "samples_ms": run.samples,
        "setup_s": run.setup_s,
        "ray_start_s": run.ray_start_s,
        "sample_counts": {kind: len(v) for kind, v in run.samples.items()},
    }
    if tracer is None:
        run.metrics = {k: {"value": v, "unit": u} for k, (v, u) in report.end_to_end(run).items()}
        details["metrics"] = {k: m["value"] for k, m in run.metrics.items()}
        return details
    spans = trace_mod.account(tracer.spans, trace_mod.load_worker_spans(span_dir))
    layer = report.per_layer(run, spans)
    run.metrics = {k: {"value": v, "unit": report.unit(k)} for k, v in layer.items()}
    details.update(
        untraced_samples_ms=run.untraced_samples,
        metrics=layer,
        self_time_ms_per_op=trace_mod.self_time_table(spans),
        layers_ms_per_op=report.dominant_layers(spans),
        routes=[
            {
                "job": sp["name"],
                "op": sp["op"],
                "path": "distributed" if any(
                    c["parent"] == i and c["name"] in ("merge.datasets", "zorder.cluster_dataset")
                    for c in spans
                ) else "single_task",
            }
            for i, sp in enumerate(spans)
            if sp["name"] in ("jobs.merge_into", "jobs.cluster") and sp["op"] is not None
        ],
        spans=spans,
    )
    return details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import duckdb  # noqa: F401
        import ray  # noqa: F401

        import engine.jobs  # noqa: F401
        import engine.manifest  # noqa: F401
        import engine.stream  # noqa: F401
        import engine.writer  # noqa: F401
        from perfbench import session
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the engine or a dependency: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    session.prepare_env(ROOT)
    session.make_subreaper()
    # tables, inputs and spans live in the checkout; Ray's session
    # (logs and sockets, whose paths must fit 107 bytes) in a short
    # directory of its own under the system temp dir
    work_dir = os.path.join(ROOT, f".pb{os.getpid()}")
    os.makedirs(work_dir)
    ray_dir = tempfile.mkdtemp(prefix="pb")
    span_dir = None
    if args.trace:
        span_dir = os.path.join(work_dir, "spans")
        os.makedirs(span_dir)
    run = Run(args.seed, work_dir)
    details: dict = {}
    error = None
    killed: list = []
    try:
        details = _execute(args, run, ray_dir, span_dir)
    except Exception as exc:  # the run's boundary: report, then clean up
        error = exc
        traceback.print_exc(file=sys.stderr)
    finally:
        try:
            import ray

            ray.shutdown()
        finally:
            killed = session.wait_descendants(TEARDOWN_WAIT_S)
            shutil.rmtree(work_dir, ignore_errors=True)
            shutil.rmtree(ray_dir, ignore_errors=True)
            run.phase("teardown")
    if error is not None and not run.failed_ops:
        run.failed_ops.append({"op": "setup_or_check", "id": run.attempted, "error": repr(error)})
    for f in run.failed_ops:
        print(f"perfbench: failed op {f['id']} ({f['op']}): {f['error']}", file=sys.stderr)
    if killed:
        print(f"perfbench: killed processes that outlived ray.shutdown(): {killed}", file=sys.stderr)

    correct = error is None and run.failed == 0 and not killed
    if error is not None:
        run.metrics = {}
    details.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        host=_fingerprint(),
        attempted=run.attempted,
        failed_ops=run.failed_ops,
        mismatches=run.mismatches,
        killed_processes=killed,
        phases_s=run.phases_s,
    )
    out_dir = os.path.join(ROOT, ".perfbench", "details")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(details, f, default=str)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics,
    }))
    sys.stdout.flush()
    if killed:
        return 3
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
