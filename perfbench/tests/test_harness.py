"""Self-tests of the benchmark harness (not of the engine).

    python -m pytest perfbench/tests -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import gen, session  # noqa: E402
from perfbench.run import Run, set_up  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _tagged_processes(tag: str) -> list:
    """Pids whose environment carries ``PERFBENCH_TEST_TAG=tag``."""
    needle = f"PERFBENCH_TEST_TAG={tag}".encode()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                if needle in f.read().split(b"\0"):
                    out.append(int(name))
        except OSError:
            continue
    return out


def test_injected_failure_exits_nonzero_and_clean():
    """compact raising inside merge_delta's timed write op: non-zero
    exit, the op reported, no Ray process and no run or Ray directory
    left."""
    tag = uuid.uuid4().hex
    driver = (
        "import os, runpy, sys\n"
        f"sys.path.insert(0, {ROOT!r})\n"
        "import engine.jobs\n"
        "def boom(*a, **k):\n"
        "    raise RuntimeError('injected failure')\n"
        "engine.jobs.compact = boom\n"
        "sys.argv = ['run.py', '--workload', 'merge_delta', '--seed', '3', '--seconds', '5', '--trace', '0']\n"
        f"runpy.run_path(os.path.join({ROOT!r}, 'perfbench', 'run.py'), run_name='__main__')\n"
    )
    runs_before = {n for n in os.listdir(ROOT) if n.startswith(".pb")}
    ray_dirs_before = {n for n in os.listdir(tempfile.gettempdir()) if n.startswith("pb")}
    proc = subprocess.run(
        [sys.executable, "-c", driver],
        cwd=ROOT,
        env={**os.environ, "PERFBENCH_TEST_TAG": tag},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode != 0
    assert "failed op" in proc.stderr and "(write)" in proc.stderr
    assert "injected failure" in proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert _tagged_processes(tag) == []
    assert {n for n in os.listdir(ROOT) if n.startswith(".pb")} == runs_before
    assert {n for n in os.listdir(tempfile.gettempdir()) if n.startswith("pb")} <= ray_dirs_before


def test_missing_engine_fails_fast(tmp_path):
    """A directory holding only the benchmark: exit non-zero, no result."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl_maintain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


def test_same_seed_same_inputs():
    ids = pa.array(range(1000, 3000)).to_numpy()
    a, b = gen.pages(5, ids, 512), gen.pages(5, ids, 512)
    sink_a, sink_b = pa.BufferOutputStream(), pa.BufferOutputStream()
    for t, sink in ((a, sink_a), (b, sink_b)):
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t)
    assert sink_a.getvalue().to_pybytes() == sink_b.getvalue().to_pybytes()
    assert not gen.pages(6, ids, 512).equals(a)


@pytest.fixture(scope="module")
def ray_session():
    import ray

    session.prepare_env(ROOT)
    session.make_subreaper()
    tmp = tempfile.mkdtemp(prefix="pbt")
    session.start_ray(tmp, 1, None)
    try:
        yield tmp
    finally:
        ray.shutdown()
        killed = session.wait_descendants(60.0)
        shutil.rmtree(tmp, ignore_errors=True)
        assert killed == []


def _short_run(ray_session, workload: str, seed: int, iterations: int):
    work = tempfile.mkdtemp(prefix="w", dir=ray_session)
    run = Run(seed, work)
    wl = WORKLOADS[workload](run)
    set_up(run, wl, reps=1)
    wl.start_loop()
    for _ in range(iterations):
        wl.iteration()
    return run, wl


#: merge_delta's exchange emits bucket outputs in arrival order and the
#: writer names files with random uuids, which compact then sorts by path,
#: so the same rows compress to slightly different bytes from run to run
#: (measured 3.5%); the single-task paths of the other two are exact
AMP_TOLERANCE = {"merge_delta": 0.05}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_counts(ray_session, workload):
    """Two runs of the same seed and op count: identical inputs and
    counts, the same written and stored bytes; every check passes."""
    seen = []
    for _ in range(2):
        run, wl = _short_run(ray_session, workload, 9, 2)
        wl.finish()
        run.space_amp = wl.space_amp()
        assert run.failed == 0, run.mismatches + run.failed_ops
        seen.append(run)
    a, b = seen
    assert (a.attempted, a.input_rows, a.input_bytes) == (b.attempted, b.input_rows, b.input_bytes)
    tol = AMP_TOLERANCE.get(workload, 0.0)
    assert b.bytes_written == pytest.approx(a.bytes_written, rel=tol, abs=0)
    # a snapshot header stores its commit time as a float, whose printed
    # length varies by a byte or two
    assert b.space_amp == pytest.approx(a.space_amp, rel=max(tol, 1e-5), abs=0)


def test_corrupted_table_is_caught(ray_session):
    """Rewrite one live file with one text value changed: the final
    oracle check must fail."""
    run, wl = _short_run(ray_session, "merge_delta", 4, 1)
    assert run.failed == 0
    victim = wl.table.snapshot().files[0].path
    t = pq.read_table(victim)
    texts = t.column("text").to_pylist()
    texts[0] = (texts[0] or "") + " corrupted"
    t = t.set_column(t.schema.get_field_index("text"), "text", pa.array(texts, t.schema.field("text").type))
    pq.write_table(t, victim, compression="zstd")
    assert pc.sum(pc.equal(pq.read_table(victim).column("text"), texts[0])).as_py() >= 1
    wl.finish()
    assert run.failed >= 1
    assert any("differ" in m["check"] for m in run.mismatches)
