"""The default server runs every query on the resident worker pool.

A real ``python -m repro.serve`` with no ``REPRO_*`` configuration gets
a run of queries; the process tree is sampled throughout.  Supervision
must not start a process per request: the server's only children stay
the pool's workers (plus the multiprocessing resource tracker, which
starts no kernel), and ``/stats`` ``pool.calls`` grows by exactly one
per query.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tests.serve.harness import einsum_query, http_request

REPO = Path(__file__).resolve().parents[2]
QUERIES = 20

pytestmark = pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task").exists(),
    reason="needs /proc to list child processes",
)


def _children(pid: int) -> set:
    found = set()
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found.update(int(c) for c in (task / "children").read_text().split())
        except OSError:
            pass
    return found


def _is_resource_tracker(pid: int) -> bool:
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    return b"resource_tracker" in cmdline


def _boot(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_KERNEL_CACHE_DIR"] = str(tmp_path / "kcache")
    env["REPRO_SERVE_PORT"] = "0"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    limit = time.monotonic() + 30
    while time.monotonic() < limit:
        line = proc.stdout.readline()
        if not line:
            break
        if "REPRO_SERVE_READY" in line:
            return proc, int(line.strip().rsplit(":", 1)[1])
    proc.kill()
    proc.wait(timeout=10)
    raise AssertionError("server never announced readiness")


def test_default_server_serves_queries_on_pool_workers_without_forking(tmp_path):
    proc, port = _boot(tmp_path)
    try:
        docs = [einsum_query(seed=s) for s in range(QUERIES // 2)]
        docs += [einsum_query("ij,j->i", seed=s) for s in range(QUERIES // 2)]
        for doc in docs[:: QUERIES // 2]:  # compile both kernels, start the pool
            assert http_request(port, "POST", "/query", doc, timeout=60).status == 200
        before = http_request(port, "GET", "/stats").json["pool"]
        workers = set(before["worker_pids"])
        assert workers and before["busy"] == 0
        helpers = _children(proc.pid) - workers
        assert all(_is_resource_tracker(p) for p in helpers), helpers

        seen, stop = set(), threading.Event()

        def sample():
            while not stop.is_set():
                seen.update(_children(proc.pid))
                time.sleep(0.0005)

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            for doc in docs:
                assert http_request(port, "POST", "/query", doc).status == 200
        finally:
            stop.set()
            sampler.join()

        after = http_request(port, "GET", "/stats").json["pool"]
        assert after["calls"] - before["calls"] == QUERIES
        assert set(after["worker_pids"]) == workers
        assert after["spawned"] == before["spawned"]
        assert after["fork_fallbacks"] == 0
        assert seen - helpers == workers, "a process was started per request"

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert not any(Path(f"/proc/{p}").exists() for p in workers)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
