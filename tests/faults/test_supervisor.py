"""Supervised execution: crash containment, deadline, circuit breaker.

These tests sabotage built kernels with the injected-crash backends of
:mod:`tests.faults.crash_kernels` and assert the containment contract
of :mod:`repro.runtime.supervisor`: the host survives, the failure
comes back as a typed error with its metadata, and kernels that keep
dying are quarantined behind the circuit breaker, which serves the
pure-Python fallback until a backoff re-probe succeeds.

Recipe-carrying kernels run supervised on pool workers, so their faults
ride in the recipe (:func:`~tests.faults.crash_kernels.sabotage_recipe`)
and fire inside the worker that production traffic would use.  The
fork-per-call path is covered by recipe-less (``FunctionInput``)
kernels, whose in-memory sabotage the forked child inherits.
"""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.compiler import Op, TFLOAT, TINT
from repro.compiler.formats import FunctionInput
from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.compiler import resilience
from repro.compiler.scalars import scalar_ops_for
from repro.errors import (
    CapacityError,
    KernelCrashError,
    KernelRuntimeError,
    KernelTimeoutError,
)
from repro.runtime import breaker as breaker_mod
from repro.runtime import pool as pool_mod
from repro.runtime import supervisor as sup_mod
from repro.runtime.supervisor import can_supervise, run_supervised
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.semirings import FLOAT
from repro.workloads import sparse_matrix
from repro.verification import check_supervised_parity

from tests.faults.conftest import (
    expected_spmv,
    repro_records,
    requires_toolchain,
    spmv_problem,
    copy_problem,
)
from tests.faults.crash_kernels import (
    SegfaultKernel,
    SpinKernel,
    sabotage,
    sabotage_recipe,
)

pytestmark = pytest.mark.skipif(
    not can_supervise(object()), reason="needs a fork-capable platform"
)


@pytest.fixture(autouse=True)
def clean_breaker():
    """Breaker state is process-global and keyed by cache key; the same
    problem rebuilt in another test must start with a closed circuit."""
    breaker_mod.breaker.reset()
    yield
    breaker_mod.breaker.reset()


def _build(problem=spmv_problem, backend="python", **kw):
    ctx, expr, out, tensors = problem()
    kernel = compile_kernel(
        expr, ctx, tensors, out, backend=backend,
        name=f"sup_{problem.__name__}", **kw,
    )
    return kernel, tensors


# ----------------------------------------------------------------------
# the healthy path: supervision is pure relocation
# ----------------------------------------------------------------------
def test_supervised_parity_python_backend():
    kernel, tensors = _build()
    assert check_supervised_parity(kernel, tensors)


@requires_toolchain
def test_supervised_parity_c_backend():
    kernel, tensors = _build(backend="c")
    assert check_supervised_parity(kernel, tensors)


def test_supervised_sparse_output_parity():
    kernel, tensors = _build(copy_problem)
    assert check_supervised_parity(kernel, tensors)


# ----------------------------------------------------------------------
# crash decoding: SIGSEGV, memory cap, deadline
# ----------------------------------------------------------------------
def test_sigsegv_becomes_typed_error():
    kernel, tensors = _build()
    sabotage_recipe(kernel, "segfault")
    with pytest.raises(KernelCrashError) as err:
        kernel.run(tensors, parallel=False, supervised=True)
    assert err.value.signal == signal.SIGSEGV
    assert err.value.signal_name == "SIGSEGV"
    assert "SIGSEGV" in str(err.value)
    assert isinstance(err.value, KernelRuntimeError)


@requires_toolchain
def test_compiled_c_out_of_bounds_store_is_contained():
    kernel, tensors = _build(backend="c")
    sabotage_recipe(kernel, "c_oob")
    with pytest.raises(KernelCrashError) as err:
        kernel.run(tensors, parallel=False, supervised=True)
    assert err.value.signal == signal.SIGSEGV


def test_memory_cap_kill_is_decoded(monkeypatch):
    """An OOM-killed child is decoded to a typed error naming SIGKILL.

    Ported onto the consolidated ``REPRO_FAULT`` hook: the
    ``supervised_child`` site delivers a genuine SIGKILL at the top of
    the pool worker's call (the workers inherit the env), modelling the
    OOM killer without a sabotage kernel.  The real-rlimit variant
    lives in :func:`test_rlimit_memory_cap_kill_is_decoded`."""
    monkeypatch.setenv(resilience.ENV_FAULT, "supervised_child:sigkill")
    resilience.reset_fault_counters()
    kernel, tensors = _build()
    with pytest.raises(KernelCrashError) as err:
        kernel.run(tensors, parallel=False, supervised=True)
    assert err.value.signal == signal.SIGKILL
    assert err.value.signal_name == "SIGKILL"


def test_rlimit_memory_cap_kill_is_decoded(monkeypatch):
    monkeypatch.setenv(resilience.ENV_KERNEL_MEM_MB, "1024")
    kernel, tensors = _build()
    sabotage_recipe(kernel, "oom")
    with pytest.raises(KernelCrashError) as err:
        kernel.run(tensors, parallel=False, supervised=True)
    assert err.value.signal == signal.SIGKILL
    assert err.value.signal_name == "SIGKILL"


def test_injected_child_fault_raise_mode_is_contained(monkeypatch):
    """``raise`` mode at the supervised_child site escapes the worker's
    reporting machinery (the fault fires before the try block), so the
    worker exits nonzero — which the parent decodes to a typed
    KernelCrashError, not a hang or a silent success."""
    monkeypatch.setenv(resilience.ENV_FAULT, "supervised_child:raise")
    resilience.reset_fault_counters()
    kernel, tensors = _build()
    with pytest.raises(KernelCrashError):
        kernel.run(tensors, parallel=False, supervised=True)


def test_infinite_loop_misses_deadline(monkeypatch):
    monkeypatch.setenv(resilience.ENV_KERNEL_DEADLINE, "1.0")
    kernel, tensors = _build()
    sabotage_recipe(kernel, "spin")
    with pytest.raises(KernelTimeoutError) as err:
        kernel.run(tensors, parallel=False, supervised=True)
    assert err.value.deadline == pytest.approx(1.0)


def test_typed_child_error_crosses_the_pipe():
    """A CapacityError raised inside the child re-raises in the parent
    with its sizing metadata intact (pickling keeps __dict__)."""
    kernel, tensors = _build(copy_problem)
    with pytest.raises(CapacityError) as err:
        run_supervised(kernel, tensors, capacity=1)
    assert err.value.needed is not None and err.value.needed > 1
    assert err.value.capacity == 1


# ----------------------------------------------------------------------
# the supervision policy
# ----------------------------------------------------------------------
def test_policy_resolution(monkeypatch):
    kernel, _ = _build()
    # start from a clean slate (the chaos CI job exports REPRO_SUPERVISE=1)
    monkeypatch.delenv(resilience.ENV_SUPERVISE, raising=False)
    # python-backed, lint-clean: auto policy says in-process
    assert kernel._resolve_supervised(None) is False
    assert kernel._resolve_supervised(True) is True
    # environment forces it on / off
    monkeypatch.setenv(resilience.ENV_SUPERVISE, "1")
    assert kernel._resolve_supervised(None) is True
    monkeypatch.setenv(resilience.ENV_SUPERVISE, "0")
    assert kernel._resolve_supervised(None) is False
    monkeypatch.setenv(resilience.ENV_SUPERVISE, "1")
    # the call argument outranks the environment
    assert kernel._resolve_supervised(False) is False
    # the kernel stamp outranks the environment too
    monkeypatch.delenv(resilience.ENV_SUPERVISE)
    kernel.supervised = True
    assert kernel._resolve_supervised(None) is True


@requires_toolchain
def test_needs_guard_c_kernels_auto_supervise(monkeypatch):
    """The auto policy: a C-backed kernel with unproven output stores
    routes through the supervisor with no opt-in at all."""
    kernel, tensors = _build(copy_problem, backend="c")
    if not kernel.needs_guard:  # force the lint verdict if it proved all
        class _Unproven:
            proven = False
        kernel.capacity_findings = [_Unproven()]
    calls = []
    real = sup_mod.run_supervised

    def recording(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(sup_mod, "run_supervised", recording)
    kernel.run(tensors, parallel=False)
    assert calls, "needs_guard C kernel should have been supervised"


# ----------------------------------------------------------------------
# the circuit breaker
# ----------------------------------------------------------------------
def test_breaker_opens_and_serves_python_fallback(monkeypatch, caplog):
    monkeypatch.setenv(resilience.ENV_BREAKER_THRESHOLD, "2")
    kernel, tensors = _build()
    oracle = kernel._run_single(tensors)  # the healthy serial result
    sabotage_recipe(kernel, "segfault")
    with caplog.at_level("WARNING", logger="repro"):
        for _ in range(2):
            with pytest.raises(KernelCrashError):
                kernel.run(tensors, parallel=False, supervised=True)
        assert breaker_mod.breaker.decide(kernel.cache_key) == breaker_mod.OPEN
        # the quarantined kernel now degrades transparently — and the
        # fallback result is the serial oracle's, bit for bit
        result = kernel.run(tensors, parallel=False, supervised=True)
    assert np.array_equal(np.asarray(result.vals), np.asarray(oracle.vals))
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert any("circuit breaker OPEN" in r.message for r in repro_records(caplog))


def test_probe_failure_degrades_transparently(monkeypatch, caplog):
    monkeypatch.setenv(resilience.ENV_BREAKER_THRESHOLD, "1")
    kernel, tensors = _build()
    oracle = kernel._run_single(tensors)
    sabotage_recipe(kernel, "segfault")
    with pytest.raises(KernelCrashError):
        kernel.run(tensors, parallel=False, supervised=True)
    key = kernel.cache_key
    assert breaker_mod.breaker.decide(key) == breaker_mod.OPEN
    # wind the clock past the backoff: the next call is the re-probe;
    # the kernel is still broken, but the caller gets a result anyway
    breaker_mod.breaker._records[key].opened_at -= 1e6
    assert breaker_mod.breaker.decide(key) == breaker_mod.HALF_OPEN
    with caplog.at_level("WARNING", logger="repro"):
        result = kernel.run(tensors, parallel=False, supervised=True)
    assert np.array_equal(np.asarray(result.vals), np.asarray(oracle.vals))
    assert breaker_mod.breaker.decide(key) == breaker_mod.OPEN
    rec = breaker_mod.breaker._records[key]
    assert rec.probes == 1  # the failed probe doubled the backoff
    assert any("re-probe failed" in r.message for r in repro_records(caplog))


def test_probe_success_closes_the_breaker(monkeypatch, caplog):
    monkeypatch.setenv(resilience.ENV_BREAKER_THRESHOLD, "1")
    kernel, tensors = _build()
    oracle = kernel._run_single(tensors)
    healthy = sabotage_recipe(kernel, "segfault")
    with pytest.raises(KernelCrashError):
        kernel.run(tensors, parallel=False, supervised=True)
    key = kernel.cache_key
    # the kernel recovers: its healthy build replaces the resident
    # faulty one in a fresh pool
    kernel.recipe = healthy
    pool_mod.shutdown_shared_pool()
    breaker_mod.breaker._records[key].opened_at -= 1e6
    with caplog.at_level("WARNING", logger="repro"):
        result = kernel.run(tensors, parallel=False, supervised=True)
    assert np.array_equal(np.asarray(result.vals), np.asarray(oracle.vals))
    assert breaker_mod.breaker.decide(key) == breaker_mod.CLOSED
    assert any("CLOSED" in r.message for r in repro_records(caplog))


def test_breaker_state_survives_a_restart(monkeypatch):
    """The on-disk kbrk record re-quarantines without fresh crashes."""
    monkeypatch.setenv(resilience.ENV_BREAKER_THRESHOLD, "1")
    kernel, tensors = _build()
    sabotage_recipe(kernel, "segfault")
    with pytest.raises(KernelCrashError):
        kernel.run(tensors, parallel=False, supervised=True)
    fresh = breaker_mod.CircuitBreaker()  # simulates a new process
    assert fresh.decide(kernel.cache_key) == breaker_mod.OPEN


# ----------------------------------------------------------------------
# sharded runs: per-shard failover
# ----------------------------------------------------------------------
def test_crashing_shard_fails_over_per_shard(monkeypatch):
    monkeypatch.setenv(resilience.ENV_BREAKER_THRESHOLD, "1000")
    kernel, tensors = _build()
    sabotage_recipe(kernel, "segfault")
    stats = []
    result = kernel.run_sharded(
        tensors, executor="thread", shards=2, supervised=True,
        stats_out=stats,
    )
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert len(stats) == 2
    assert all(s.failover and s.worker == "fallback" for s in stats)
    assert [s.failover for s in kernel.last_shard_stats] == [True, True]


# ----------------------------------------------------------------------
# recipe-less kernels: the fork-per-call child
# ----------------------------------------------------------------------
def _function_input_kernel():
    """A kernel bound to a Python callable: no recipe, so supervision
    forks a child per call (a callable cannot reach a fresh worker)."""
    ops = scalar_ops_for(FLOAT)
    even = Op(
        "even", (TINT,), TFLOAT,
        spec=lambda j: 1.0 if j % 2 == 0 else 0.0,
        c_expr=lambda j: f"(({j}) % 2 == 0 ? 1.0 : 0.0)",
    )
    n = 16
    A = sparse_matrix(n, n, 0.3, attrs=("i", "j"), seed=5)
    ctx = TypeContext(Schema.of(i=None, j=None),
                      {"A": {"i", "j"}, "p": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("p")), ctx,
        {"A": A, "p": FunctionInput("p", ("j",), even, ops)},
        OutputSpec(("i",), ("dense",), (n,)),
        semiring=FLOAT, backend="python", name="sup_fninput",
    )
    assert kernel.recipe is None
    return kernel, {"A": A}


def test_recipe_less_kernel_runs_in_a_fork_child():
    kernel, tensors = _function_input_kernel()
    oracle = kernel._run_single(tensors)
    result = kernel.run(tensors, parallel=False, supervised=True)
    assert np.array_equal(np.asarray(result.vals), np.asarray(oracle.vals))
    # no pool was involved
    assert pool_mod.shared_pool_counters()["calls"] == 0


@pytest.mark.parametrize("fake, error", [
    (SegfaultKernel, KernelCrashError),
    (SpinKernel, KernelTimeoutError),
])
def test_recipe_less_fault_is_typed(monkeypatch, fake, error):
    monkeypatch.setenv(resilience.ENV_KERNEL_DEADLINE, "1.0")
    kernel, tensors = _function_input_kernel()
    sabotage(kernel, fake())
    with pytest.raises(error):
        kernel.run(tensors, parallel=False, supervised=True)


def test_unavailable_pool_falls_back_to_fork_and_counts(monkeypatch):
    """The one degradation of the pooled path: a pool that cannot start
    a worker sends the call to a fork child, and the named counter
    records it."""
    def no_spawn(self):
        raise pool_mod.PoolUnavailableError("spawn refused")

    monkeypatch.setattr(pool_mod.WorkerPool, "_spawn", no_spawn)
    kernel, tensors = _build()
    before = sup_mod.fork_fallbacks
    result = run_supervised(kernel, tensors)
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert sup_mod.fork_fallbacks == before + 1
