"""The benchmark's own Ray session and process-tree bookkeeping.

The run starts a private local Ray cluster and must leave no process
behind. ``ray.shutdown()`` returns before every Ray process has exited,
and Ray workers outlive their raylet for a few seconds, so the run makes
itself a child subreaper (orphaned descendants are re-parented to it
rather than to init, where they could no longer be found) and, after
shutdown, waits for every descendant to exit. A descendant that must
be killed is an error: the caller exits non-zero.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

PR_SET_CHILD_SUBREAPER = 36
#: AF_UNIX socket paths are limited to 107 bytes
UNIX_PATH_MAX = 107


def ray_socket_path_len(temp_dir: str) -> int:
    """Length of Ray's longest socket path under ``temp_dir`` when this
    process starts the session:
    <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store"""
    session = f"session_2026-01-01_00-00-00_000000_{os.getpid()}"
    return len(os.path.join(temp_dir, session, "sockets", "plasma_store"))


def make_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _proc_table() -> dict:
    """{pid: (ppid, state)} for every process visible in /proc."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # comm may hold spaces and parens: fields resume after the last ')'
        fields = stat[stat.rfind(")") + 2 :].split()
        out[int(name)] = (int(fields[1]), fields[0])
    return out


def descendants(root: int | None = None) -> list:
    """Live (non-zombie) descendants of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    table = _proc_table()
    children: dict = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], list(children.get(root, []))
    while todo:
        pid = todo.pop()
        if table[pid][1] != "Z":
            out.append(pid)
        todo.extend(children.get(pid, []))
    return sorted(out)


def tree_rss_mb() -> float:
    """Summed resident set size of this process and its descendants."""
    total_kb = 0
    for pid in [os.getpid()] + descendants():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def reap_zombies() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def wait_descendants(timeout_s: float) -> list:
    """Wait until no descendant is alive; kill what outlives ``timeout_s``.
    Returns the pids that had to be killed (empty on a clean exit)."""
    deadline = time.monotonic() + timeout_s
    while True:
        reap_zombies()
        alive = descendants()
        if not alive:
            return []
        if time.monotonic() >= deadline:
            break
        time.sleep(0.1)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in alive:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        end = time.monotonic() + 5.0
        while time.monotonic() < end and descendants():
            reap_zombies()
            time.sleep(0.1)
        if not descendants():
            break
    reap_zombies()
    return alive


def prepare_env(root: str) -> None:
    """Environment the Ray processes inherit: no stray cluster address,
    no usage stats, and the checkout on the workers' import path (they
    import the engine and the span hook from it)."""
    import logging

    logging.getLogger("ray").setLevel(logging.ERROR)
    os.environ.pop("RAY_ADDRESS", None)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)


def start_ray(temp_dir: str, num_cpus: int, span_dir: str | None) -> float:
    """Start a private local Ray session; return its start-up seconds.

    ``span_dir`` turns on the worker-side span hook (traced runs)."""
    import ray

    if ray_socket_path_len(temp_dir) > UNIX_PATH_MAX:
        raise ValueError(f"Ray temp dir {temp_dir!r} too long for AF_UNIX socket paths")
    runtime_env = None
    if span_dir is not None:
        os.environ["PERFBENCH_SPAN_DIR"] = span_dir
        runtime_env = {"worker_process_setup_hook": "perfbench.trace.worker_setup"}
    t0 = time.perf_counter()
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 << 20,
        _temp_dir=temp_dir,
        runtime_env=runtime_env,
        # keep idle workers: by default the raylet kills workers beyond
        # num_cpus after 1 s idle and restarts them for the next task, so
        # ops would pay a worker start (imports included) at random
        _system_config={"idle_worker_killing_time_threshold_ms": 3_600_000},
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return time.perf_counter() - t0
