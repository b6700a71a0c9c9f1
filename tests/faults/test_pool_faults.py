"""Fault injection against the persistent worker pool.

The pool rebuilds kernels from their *recipes* inside the workers, so
in-memory sabotage of a built kernel never crosses the boundary.  The
honest injection vector is the recipe itself: :class:`FaultRecipe`
builds a kernel that dies — or raises — in a specific way *inside the
worker*, exactly where a real miscompiled kernel would (the compiled
kernels of ``test_supervisor.py`` use the same vector through
``crash_kernels.sabotage_recipe``).

The contract under test: a dead worker never kills the pool (the call
that observed the death gets its typed error, a replacement takes the
slot), typed errors cross the pipe with their metadata, the parent's
deadline kills a wedged worker, and no ``/dev/shm`` segment survives
any of it.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import gc

import pytest

from repro.errors import CapacityError, KernelCrashError, KernelTimeoutError
from repro.runtime import pool as pool_mod
from repro.runtime import shm
from repro.runtime.supervisor import can_supervise, run_supervised

pytestmark = pytest.mark.skipif(
    not can_supervise(object()), reason="needs a fork-capable platform"
)


def shm_entries():
    try:
        return sorted(f for f in os.listdir("/dev/shm")
                      if f.startswith("repro_"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


@pytest.fixture(autouse=True)
def no_orphaned_segments():
    """Every fault in this file must leave /dev/shm as it found it."""
    before = shm_entries()
    yield
    shm.release_all_exports()
    gc.collect()
    assert shm_entries() == before


# ----------------------------------------------------------------------
# recipe-borne faults (picklable, importable from spawn-fresh workers)
# ----------------------------------------------------------------------
@dataclass
class FaultRecipe:
    """Builds a :class:`FaultKernel` — the pool's honest sabotage."""

    mode: str

    def build(self):
        if self.mode == "slow_build":
            time.sleep(SLOW_BUILD_S)
        return FaultKernel(self.mode)


#: build time of the ``slow_build`` recipe, seconds
SLOW_BUILD_S = 1.5


class FaultKernel:
    """Duck-typed kernel whose run dies (or raises) on demand."""

    output = None

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.name = f"fault_{mode}"
        self.recipe = FaultRecipe(mode)
        self.cache_key = f"fault:{mode}"

    def _run_single(self, tensors, capacity=None, *, auto_grow=False,
                    max_capacity=None):
        if self.mode == "sigsegv":
            ctypes.memset(8, 0, 1)  # store through the null page
        if self.mode == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        if self.mode == "sleep":
            while True:
                time.sleep(0.005)
        if self.mode == "capacity":
            raise CapacityError("pooled output too small",
                                needed=128, capacity=64)
        return 42.0


def _call(pool, kernel, **kw):
    key = pool_mod.pool_key(kernel)
    pool.register_recipe(key, kernel.recipe)
    return pool.run_call(key, {}, None, None, False, None, **kw)


@pytest.fixture
def pool():
    p = pool_mod.WorkerPool(1)
    yield p
    p.shutdown()


# ----------------------------------------------------------------------
# death, deadline, typed errors
# ----------------------------------------------------------------------
def test_sigsegv_in_worker_is_typed_and_replaced(pool):
    with pytest.raises(KernelCrashError) as err:
        _call(pool, FaultKernel("sigsegv"))
    assert err.value.signal == signal.SIGSEGV
    assert pool.stats.crashes == 1
    assert pool.stats.replaced == 1
    # the replacement serves the next call — the pool survived
    result, _s, _p = _call(pool, FaultKernel("ok"))
    assert result == 42.0


def test_sigkill_mid_call_is_typed_and_replaced(pool):
    with pytest.raises(KernelCrashError) as err:
        _call(pool, FaultKernel("sigkill"))
    assert err.value.signal == signal.SIGKILL
    assert pool.stats.failures["fault:sigkill"] == 1
    result, _s, _p = _call(pool, FaultKernel("ok"))
    assert result == 42.0


def test_wedged_worker_misses_deadline(pool):
    with pytest.raises(KernelTimeoutError) as err:
        _call(pool, FaultKernel("sleep"), deadline=0.3)
    assert err.value.deadline == pytest.approx(0.3)
    assert pool.stats.timeouts == 1
    assert pool.stats.replaced == 1
    result, _s, _p = _call(pool, FaultKernel("ok"))
    assert result == 42.0


def test_typed_error_crosses_the_pipe_with_metadata(pool):
    with pytest.raises(CapacityError) as err:
        _call(pool, FaultKernel("capacity"))
    assert err.value.needed == 128
    assert err.value.capacity == 64
    # a typed error is NOT a worker death: same worker, no replacement
    assert pool.stats.replaced == 0
    assert pool.stats.crashes == 0
    result, _s, _p = _call(pool, FaultKernel("ok"))
    assert result == 42.0


def test_replacement_worker_is_rewarmed(pool):
    """A replacement spawned after a crash re-warms with every recipe
    the pool has seen — the 'recipe ships once' contract holds across
    worker generations."""
    ok_key = pool_mod.pool_key(FaultKernel("ok"))
    pool.register_recipe(ok_key, FaultRecipe("ok"))
    with pytest.raises(KernelCrashError):
        _call(pool, FaultKernel("sigkill"))
    assert len(pool._idle) == 1
    assert ok_key in pool._idle[0].warmed


def test_pooled_supervised_crash_is_typed():
    """Supervised runs of recipe kernels go to the pool: a worker death
    comes back as the same typed error a forked child's death raises."""
    with pytest.raises(KernelCrashError) as err:
        run_supervised(FaultKernel("sigsegv"), {})
    assert err.value.signal == signal.SIGSEGV
    result = run_supervised(FaultKernel("ok"), {})
    assert result == 42.0
    pool_mod.shutdown_shared_pool()


def test_healthy_call_completes_while_a_replacement_warms():
    """The pool lock guards bookkeeping only: while a crashed worker's
    replacement is spawned and re-warmed with a recipe whose build takes
    seconds, a call on the healthy worker completes without waiting."""
    pool = pool_mod.WorkerPool(2)
    try:
        slow = FaultKernel("slow_build")
        pool.register_recipe(pool_mod.pool_key(slow), slow.recipe)
        errors = []

        def crash():
            try:
                _call(pool, FaultKernel("sigkill"))
            except KernelCrashError as exc:
                errors.append(exc)

        crasher = threading.Thread(target=crash)
        crasher.start()
        limit = time.monotonic() + 60
        while pool.stats.spawned < 3 and time.monotonic() < limit:
            time.sleep(0.005)
        assert pool.stats.spawned == 3  # the replacement is warming
        t0 = time.monotonic()
        result, _s, _p = _call(pool, FaultKernel("ok"))
        elapsed = time.monotonic() - t0
        crasher.join(60)
        assert result == 42.0
        assert elapsed < SLOW_BUILD_S / 2
        assert len(errors) == 1 and errors[0].signal == signal.SIGKILL
        assert len(pool._idle) == 2
    finally:
        pool.shutdown()


def test_crash_unlinks_the_result_segment(pool, tmp_path):
    """The parent chose the result-segment name before dispatch; after
    a mid-call death it reaps that name unconditionally (covered by the
    module's no-orphan fixture; this asserts the immediate state)."""
    with pytest.raises(KernelCrashError):
        _call(pool, FaultKernel("sigkill"))
    assert not [e for e in shm_entries() if "_r" in e]


# ----------------------------------------------------------------------
# interpreter-exit hygiene (the teardown-ordering satellite)
# ----------------------------------------------------------------------
def test_interpreter_exit_leaves_no_warnings_or_segments(tmp_path):
    """A script that uses shared pools/executors and simply exits must
    not print BrokenProcessPool / leaked-semaphore warnings, and must
    leave /dev/shm clean — the atexit-managed drain joins everything
    before interpreter teardown."""
    script = tmp_path / "exit_script.py"
    script.write_text(
        "import sys\n"
        f"sys.path[:0] = {[str(p) for p in sys.path]!r}\n"
        # the __main__ guard matters: spawn workers re-import this file
        "if __name__ == '__main__':\n"
        "    from tests.faults.test_pool_faults import FaultKernel\n"
        "    from repro.runtime import pool as pool_mod\n"
        "    from repro.runtime.api import run_sharded  # noqa: F401\n"
        "    pool = pool_mod.get_shared_pool(2)\n"
        "    key = pool_mod.pool_key(FaultKernel('ok'))\n"
        "    pool.register_recipe(key, FaultKernel('ok').recipe)\n"
        "    r, _s, _p = pool.run_call(key, {}, None, None, False, None)\n"
        "    assert r == 42.0\n"
        "    print('done')\n"
        # no shutdown on purpose: atexit must handle it
    )
    before = shm_entries()
    env = dict(os.environ)
    env["REPRO_KERNEL_CACHE_DIR"] = str(tmp_path / "kcache")
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=120, env=env, cwd="/root/repo",
    )
    assert proc.returncode == 0, proc.stderr
    assert "done" in proc.stdout
    for marker in ("BrokenProcessPool", "leaked semaphore",
                   "leaked shared_memory", "resource_tracker",
                   "Traceback"):
        assert marker not in proc.stderr, proc.stderr
    assert shm_entries() == before
