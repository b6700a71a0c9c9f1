"""Chaos: crashing kernels behind the full serving stack.

The fault hook sabotages the recipe of every *einsum* kernel the
server builds for the poisoned spec, so the pool workers that rebuild
and run it genuinely segfault — the same path production traffic takes.
The expected ladder:

request 1: crash → one replay on the retry loop → crash → 500
request 2: crash → breaker trips at the threshold → the in-flight
           retry transparently serves the pure-Python fallback → 200
request 3+: rejected at admission — 503 + Retry-After, no compile,
           no dispatch (the breaker gate fires on the cache key alone)
"""

from __future__ import annotations

import time

from tests.faults.crash_kernels import FaultyRecipe, sabotage_recipe
from tests.serve.harness import einsum_query

POISON_SPEC = "ij,jk->ik"
HEALTHY_SPEC = "i,i->"


def _poison_hook(kernel):
    if kernel.name.startswith("einsum_ij_jk") and not isinstance(
            kernel.recipe, FaultyRecipe):
        sabotage_recipe(kernel, "segfault")


def test_crash_ladder_to_breaker_rejection(make_server, monkeypatch):
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "3")
    server = make_server(
        fault_hook=_poison_hook, deadline=10.0, retries=2, qps=0.0,
    )

    # request 1: crash + one replay = two crashes, then a typed 500
    first = server.query(einsum_query(POISON_SPEC), timeout=30)
    assert first.status == 500
    assert first.json["type"] == "KernelCrashError"

    # request 2: third crash trips the breaker mid-retry; the replay
    # lands on an open breaker and serves the Python fallback
    second = server.query(einsum_query(POISON_SPEC), timeout=30)
    assert second.status == 200
    assert second.json["result"]["kind"] == "tensor"

    # request 3: shed at admission with the breaker's own ETA
    t0 = time.monotonic()
    third = server.query(einsum_query(POISON_SPEC), timeout=10)
    shed_ms = (time.monotonic() - t0) * 1e3
    assert third.status == 503
    assert third.retry_after is not None and third.retry_after >= 1
    assert "breaker" in third.json["error"]
    # rejection happens pre-compile/pre-dispatch: it must be near-instant
    assert shed_ms < 500

    # a different kernel is unaffected by the quarantined one
    healthy = server.query(einsum_query(HEALTHY_SPEC), timeout=30)
    assert healthy.status == 200

    stats = server.request("GET", "/stats").json
    assert any(rec["open"] for rec in stats["breaker"].values())


def test_degrade_fallback_serves_python_twin(make_server, monkeypatch):
    """REPRO_SERVE_DEGRADE=fallback admits quarantined kernels and lets
    Kernel.run serve the memory-safe twin instead of shedding."""
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "1")
    server = make_server(
        fault_hook=_poison_hook, degrade="fallback", retries=1,
    )
    first = server.query(einsum_query(POISON_SPEC), timeout=30)
    assert first.status == 200      # crash trips breaker; replay → fallback
    follow = server.query(einsum_query(POISON_SPEC), timeout=30)
    assert follow.status == 200
    stats = server.request("GET", "/stats").json
    assert stats["counters"]["rejected"] == 0


def test_crashes_do_not_leak_processes_or_shm(make_server, monkeypatch):
    import multiprocessing
    from pathlib import Path

    def shm_litter():
        shm = Path("/dev/shm")
        if not shm.exists():
            return set()
        return {p.name for p in shm.glob("repro_*")}

    before = shm_litter()
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "2")
    server = make_server(fault_hook=_poison_hook, retries=1)
    for _ in range(3):
        server.query(einsum_query(POISON_SPEC), timeout=30)
    clean = server.stop()
    assert clean is True
    deadline = time.monotonic() + 10
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    assert shm_litter() <= before
