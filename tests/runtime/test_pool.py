"""The persistent worker pool: warm-up, reuse, health, eviction,
shutdown, and the ``pool`` shard executor end to end.

Fault-side behavior (crashes, deadlines, typed errors crossing the
pipe) lives in ``tests/faults/test_pool_faults.py``; this file covers
the happy-path lifecycle and the zero-copy dispatch plumbing.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.compiler import resilience
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.runtime import pool as pool_mod
from repro.runtime import shm
from repro.semirings import FLOAT
from repro.workloads import dense_vector, sparse_matrix

N = 32


def spmv_kernel(n=N, seed=11, name="pool_spmv"):
    A = sparse_matrix(n, n, 0.3, attrs=("i", "j"), seed=seed)
    x = dense_vector(n, attr="j", seed=seed + 1)
    ctx = TypeContext(Schema.of(i=None, j=None),
                      {"A": {"i", "j"}, "x": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (n,)),
        semiring=FLOAT, backend="python", name=name)
    return kernel, {"A": A, "x": x}


def expected(tensors, n=N):
    A, x = tensors["A"], tensors["x"]
    dense = np.zeros((n, n))
    pos, crd, vals = A.pos[1], A.crd[1], A.vals
    for i in range(n):
        for p in range(int(pos[i]), int(pos[i + 1])):
            dense[i, int(crd[p])] = vals[p]
    return dense @ np.asarray(x.vals)


@pytest.fixture
def small_pool():
    pool = pool_mod.WorkerPool(2)
    yield pool
    pool.shutdown()


def _call(pool, kernel, tensors, **kw):
    key = pool_mod.pool_key(kernel)
    pool.register_recipe(key, kernel.recipe)
    refs = {name: shm.describe_tensor(t, shm.export_tensor(t, 0))
            for name, t in tensors.items()}
    dims = tuple(kernel.output.dims)
    return pool.run_call(key, refs, dims, None, False, None, **kw)


def test_run_call_returns_correct_result(small_pool):
    kernel, tensors = spmv_kernel()
    result, seconds, pid = _call(small_pool, kernel, tensors)
    np.testing.assert_allclose(np.asarray(result.vals), expected(tensors))
    assert seconds >= 0
    assert pid != os.getpid()


def test_kernel_is_warmed_once_and_stays_resident(small_pool):
    """After the first call the key is marked warm on the worker; the
    recipe is not re-shipped, and repeated calls keep succeeding."""
    kernel, tensors = spmv_kernel()
    key = pool_mod.pool_key(kernel)
    _call(small_pool, kernel, tensors)
    warmed = {w.wid for w in small_pool._idle if key in w.warmed}
    assert warmed, "no worker recorded the key as warm"
    for _ in range(3):
        result, _s, _p = _call(small_pool, kernel, tensors)
        np.testing.assert_allclose(np.asarray(result.vals),
                                   expected(tensors))
    assert small_pool.stats.calls == 4
    assert small_pool.stats.crashes == 0


def test_register_recipe_prewarms_idle_workers(small_pool):
    """With warming on (the default), registering a recipe broadcasts
    it to every idle worker before any call lands."""
    kernel, _tensors = spmv_kernel()
    key = pool_mod.pool_key(kernel)
    small_pool.register_recipe(key, kernel.recipe)
    assert all(key in w.warmed for w in small_pool._idle)


def test_pool_key_is_content_addressed():
    k1, _ = spmv_kernel(seed=11, name="pool_key_a")
    k2, _ = spmv_kernel(seed=11, name="pool_key_a")
    assert pool_mod.pool_key(k1) == pool_mod.pool_key(k2)

    class NoRecipe:
        name = "bare"
        cache_key = None
        recipe = None

    with pytest.raises(pool_mod.PoolUnavailableError):
        pool_mod.pool_key(NoRecipe())


def test_health_check_replaces_dead_idle_worker(small_pool):
    victim = small_pool._idle[0]
    victim.proc.kill()
    victim.proc.join(5.0)
    report = small_pool.health_check()
    assert report[victim.wid] is False
    assert small_pool.stats.replaced == 1
    # the pool is whole again and still serves calls
    assert len(small_pool._idle) == 2
    kernel, tensors = spmv_kernel()
    result, _s, _p = _call(small_pool, kernel, tensors)
    np.testing.assert_allclose(np.asarray(result.vals), expected(tensors))


def test_acquire_skips_and_replaces_dead_worker(small_pool):
    """A worker that died while idle is never handed to a caller."""
    for w in list(small_pool._idle):
        w.proc.kill()
        w.proc.join(5.0)
    kernel, tensors = spmv_kernel()
    result, _s, _p = _call(small_pool, kernel, tensors)
    np.testing.assert_allclose(np.asarray(result.vals), expected(tensors))
    assert small_pool.stats.replaced >= 1


def test_idle_ttl_eviction(small_pool, monkeypatch):
    """Workers idle beyond the TTL are retired — but one always stays
    warm."""
    monkeypatch.setenv(resilience.ENV_POOL_IDLE_TTL, "0.01")
    kernel, tensors = spmv_kernel()
    _call(small_pool, kernel, tensors)
    time.sleep(0.05)
    _call(small_pool, kernel, tensors)  # release path runs the sweep
    assert small_pool.stats.evicted >= 1
    assert len(small_pool._idle) >= 1


def test_grow_only_raises(small_pool):
    small_pool.grow(3)
    assert small_pool.max_workers == 3
    assert len(small_pool._idle) == 3
    small_pool.grow(1)  # never shrinks
    assert small_pool.max_workers == 3


def test_shutdown_is_idempotent_and_final(small_pool):
    procs = [w.proc for w in small_pool._idle]
    small_pool.shutdown()
    small_pool.shutdown()
    assert all(not p.is_alive() for p in procs)
    with pytest.raises(pool_mod.PoolUnavailableError):
        small_pool._acquire(timeout=0.1)


def test_shared_pool_singleton_grows_not_duplicates():
    p1 = pool_mod.get_shared_pool(1)
    p2 = pool_mod.get_shared_pool(2)
    assert p1 is p2
    assert p2.max_workers == 2
    pool_mod.shutdown_shared_pool()
    p3 = pool_mod.get_shared_pool(1)
    assert p3 is not p1
    pool_mod.shutdown_shared_pool()


def test_snapshot_reports_pool_and_breaker(small_pool):
    kernel, tensors = spmv_kernel()
    _call(small_pool, kernel, tensors)
    snap = small_pool.snapshot()
    assert snap["max_workers"] == 2
    assert snap["idle"] + snap["busy"] == 2
    assert snap["recipes"] == 1
    assert snap["stats"].calls == 1
    assert isinstance(snap["breaker"], dict)


# ----------------------------------------------------------------------
# the pool executor end to end
# ----------------------------------------------------------------------
def test_run_sharded_pool_executor_matches_serial():
    kernel, tensors = spmv_kernel(name="pool_shard_spmv")
    serial = kernel.run_sharded(tensors, executor="serial", shards=3)
    pooled = kernel.run_sharded(tensors, executor="pool", shards=3,
                                workers=2)
    assert serial.to_dict() == pooled.to_dict()


def test_run_sharded_pool_contracted_split():
    """⊕-merge over pool shards: dot product, contracted split."""
    from repro.data import Tensor

    m = 40
    u = Tensor.from_entries(("j",), ("sparse",), (m,),
                            {(j,): float(j % 5 + 1)
                             for j in range(0, m, 3)}, FLOAT)
    v = Tensor.from_entries(("j",), ("dense",), (m,),
                            {(j,): float(j + 1) for j in range(m)}, FLOAT)
    ctx = TypeContext(Schema.of(j=None), {"u": {"j"}, "v": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("u") * Var("v")), ctx, {"u": u, "v": v}, None,
        semiring=FLOAT, backend="python", name="pool_dot")
    tensors = {"u": u, "v": v}
    serial = kernel.run_sharded(tensors, executor="serial", shards=4)
    pooled = kernel.run_sharded(tensors, executor="pool", shards=4,
                                workers=2)
    assert serial == pooled


def test_run_batch_pool_executor():
    from repro.runtime.api import run_batch

    kernel, tensors = spmv_kernel(name="pool_batch_spmv")
    runs = [tensors] * 4
    serial = run_batch(kernel, runs, executor="serial")
    pooled = run_batch(kernel, runs, executor="pool", workers=2)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in pooled]


def test_pooled_supervised_routing():
    """Supervised runs of recipe kernels go through the pool; the
    result matches the in-process run and the pool records the call."""
    from repro.runtime.supervisor import run_supervised

    kernel, tensors = spmv_kernel(name="pool_sup_spmv")
    direct = kernel._run_single(tensors)
    pooled = run_supervised(kernel, tensors)
    assert direct.to_dict() == pooled.to_dict()
    assert pool_mod.get_shared_pool().stats.calls >= 1
    pool_mod.shutdown_shared_pool()


def test_shared_pool_follows_mem_cap_change(monkeypatch):
    """Pool workers apply ``RLIMIT_AS`` once, at spawn: a change of
    ``REPRO_KERNEL_MEM_MB`` retires the shared pool and the next call
    runs on workers spawned under the new cap."""
    from repro.runtime.supervisor import run_supervised

    monkeypatch.delenv(resilience.ENV_KERNEL_MEM_MB, raising=False)
    kernel, tensors = spmv_kernel(name="pool_sup_mem")
    first = pool_mod.get_shared_pool()
    assert first.mem_mb is None
    monkeypatch.setenv(resilience.ENV_KERNEL_MEM_MB, "2048")
    result = run_supervised(kernel, tensors)
    np.testing.assert_allclose(np.asarray(result.vals), expected(tensors))
    capped = pool_mod.get_shared_pool()
    assert capped is not first and first.closed
    assert capped.mem_mb == 2048 and capped.stats.calls == 1
    with open(f"/proc/{capped.counters()['worker_pids'][0]}/limits") as f:
        limits = f.read()
    assert str(2048 << 20) in limits
    # the same cap keeps the same pool
    assert pool_mod.get_shared_pool() is capped
    pool_mod.shutdown_shared_pool()
