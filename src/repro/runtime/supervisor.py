"""Supervised kernel execution: crash containment in a resource-capped
process.

The Etch pipeline ultimately ``dlopen``s generated ``.so`` kernels into
the host interpreter via ctypes, so one bad kernel — a segfault from an
out-of-contract write, a runaway skip loop, an allocation blow-up —
takes down or wedges the whole process.  The static half of the defense
is PR 3's capacity lint (``Kernel.needs_guard``); this module is the
runtime half: :func:`run_supervised` executes one kernel invocation
outside the host so that the worst a kernel can do is return a typed
error.

Containment contract:

* the kernel runs under POSIX rlimits — ``RLIMIT_AS`` from
  ``REPRO_KERNEL_MEM_MB`` caps the address space;
* the parent enforces a wall-clock deadline (``REPRO_KERNEL_DEADLINE``,
  default 60 s) and kills the process when it is missed →
  :class:`~repro.errors.KernelTimeoutError`;
* death by signal is decoded from the exit status →
  :class:`~repro.errors.KernelCrashError` carrying the signal number
  and name;
* a typed error raised *inside* the process (``CapacityError``,
  ``ShapeError``, ...) crosses the pipe and re-raises in the parent
  exactly as an in-process run would have raised it.

Where it runs: every kernel with a :class:`~repro.compiler.kernel.
KernelRecipe` runs on a resident, pre-warmed worker of the shared
:mod:`repro.runtime.pool` — rlimits, process start and kernel load are
paid once per worker, operands travel over shared memory.  A
recipe-less kernel (one bound to a ``FunctionInput`` callable) cannot
reach a worker that was started fresh, so it runs in a child forked
per call, which inherits the loaded kernel and its callables by memory
copy; ``RLIMIT_CPU`` backstops a busy loop there.  The fork child is
also the one degradation of the pooled path: when the pool cannot serve
a call (a worker cannot be spawned), the call falls back to it and
:data:`fork_fallbacks` counts it.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Optional

from repro.compiler import resilience
from repro.compiler.resilience import logger
from repro.errors import KernelCrashError, KernelTimeoutError

try:  # POSIX-only; Windows children run uncapped (deadline still applies)
    import resource
except ImportError:  # pragma: no cover - non-POSIX platform
    resource = None  # type: ignore[assignment]

#: extra seconds of RLIMIT_CPU on top of the wall deadline — the parent
#: timer fires first in the healthy case; the rlimit is the backstop
_CPU_SLACK = 2.0

#: how long the parent keeps polling the result pipe after child exit
_DRAIN_TIMEOUT = 5.0


def _apply_rlimits(mem_mb: Optional[int], cpu_seconds: Optional[float]) -> None:
    """Cap the child's address space and CPU time.  Failures to set a
    limit are logged, not fatal — supervision still decodes signals and
    enforces the parent-side deadline."""
    if resource is None:  # pragma: no cover - non-POSIX platform
        return
    if mem_mb is not None:
        limit = int(mem_mb) << 20
        try:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (OSError, ValueError) as exc:  # pragma: no cover - exotic env
            logger.warning("could not set RLIMIT_AS=%dMiB (%s)", mem_mb, exc)
    if cpu_seconds is not None:
        soft = max(1, int(cpu_seconds + _CPU_SLACK))
        try:
            resource.setrlimit(resource.RLIMIT_CPU, (soft, soft + 2))
        except (OSError, ValueError) as exc:  # pragma: no cover - exotic env
            logger.warning("could not set RLIMIT_CPU=%ds (%s)", soft, exc)


def _child_entry(
    conn,
    kernel,
    tensors,
    capacity,
    auto_grow,
    max_capacity,
    mem_mb,
    cpu_seconds,
) -> None:
    """Forked-child body: apply rlimits, run, report through the pipe.

    The arguments are inherited by memory copy, not pickled — the
    compiled ctypes handle and any bound callables travel for free.
    The report is ``("ok", result)`` or ``("err", exc)``; anything that
    escapes both (a segfault, an rlimit kill) leaves its mark in the
    exit status instead, which the parent decodes.
    """
    try:
        import faulthandler

        # a crash in this child is *expected* containment, reported by
        # the parent's exit-status decoding; an inherited faulthandler
        # (pytest enables one) would spray C tracebacks on shared stderr
        faulthandler.disable()
    except Exception:  # pragma: no cover - faulthandler always importable
        pass
    _apply_rlimits(mem_mb, cpu_seconds)
    # chaos hook: REPRO_FAULT=supervised_child:sigkill models a child
    # OOM-killed before it produced anything — the env reaches a forked
    # child for free, no crash kernel required
    resilience.fault_point("supervised_child")
    try:
        result = kernel._run_single(
            tensors, capacity, auto_grow=auto_grow, max_capacity=max_capacity
        )
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - forwarded, not swallowed
        try:
            conn.send(("err", exc))
        except Exception:
            # unpicklable exception: degrade to the message alone
            conn.send(("err", RuntimeError(f"{type(exc).__name__}: {exc}")))
    finally:
        conn.close()


def can_supervise(kernel) -> bool:
    """Whether this kernel can run supervised on this platform: a
    recipe-carrying kernel always (the pool rebuilds it in a worker);
    a recipe-less one only where ``fork`` exists."""
    if getattr(kernel, "recipe", None) is not None:
        return True
    return "fork" in multiprocessing.get_all_start_methods()


#: supervised calls of recipe kernels the pool could not serve, run in
#: a fork-per-call child instead (serve's ``/stats``
#: ``pool.fork_fallbacks``)
fork_fallbacks = 0
_fallback_lock = threading.Lock()


def run_supervised(
    kernel,
    tensors,
    capacity: Optional[int] = None,
    *,
    auto_grow: bool = False,
    max_capacity: Optional[int] = None,
    deadline: Optional[float] = None,
):
    """Run one kernel invocation in a supervised, resource-capped
    process: a pool worker for recipe kernels, a forked child for
    recipe-less ones.

    Returns the result (the output tensor or scalar).  Raises:

    * :class:`~repro.errors.KernelTimeoutError` — the wall-clock
      ``deadline`` (default ``REPRO_KERNEL_DEADLINE``) passed and the
      parent killed the process;
    * :class:`~repro.errors.KernelCrashError` — the process died by
      signal (or exited without reporting a result);
    * whatever typed error the kernel itself raised
      (``CapacityError`` with its sizing metadata, ``ShapeError``, ...),
      re-raised in the parent.
    """
    global fork_fallbacks
    if getattr(kernel, "recipe", None) is not None:
        from repro.runtime import pool as pool_mod

        try:
            return pool_mod.run_pooled(
                kernel, tensors, capacity, auto_grow=auto_grow,
                max_capacity=max_capacity, deadline=deadline,
            )
        except pool_mod.PoolUnavailableError as exc:
            with _fallback_lock:
                fork_fallbacks += 1
            logger.warning(
                "kernel %r: worker pool unavailable (%s); falling back to "
                "a fork-per-call child", kernel.name, exc,
            )
    # a child forked per call: the only path for a recipe-less kernel,
    # whose bound callables cannot reach a worker started fresh — the
    # fork inherits them, and the loaded kernel, by memory copy
    if "fork" not in multiprocessing.get_all_start_methods():
        raise KernelCrashError(
            f"kernel {kernel.name!r} cannot run supervised: no worker "
            "pool and no fork on this platform"
        )
    deadline = deadline if deadline is not None else resilience.kernel_deadline()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_child_entry,
        args=(send, kernel, tensors, capacity, auto_grow, max_capacity,
              resilience.kernel_mem_mb(), deadline),
        daemon=True,
    )
    start = time.monotonic()
    proc.start()
    send.close()  # the child's end lives on in the child
    try:
        payload = _await_result(proc, recv, deadline, kernel.name)
    finally:
        recv.close()
        proc.join(0.1)
        if proc.is_alive():  # pragma: no cover - kill path timing
            proc.kill()
            proc.join()
    status, value = payload
    elapsed = time.monotonic() - start
    if status == "ok":
        logger.debug(
            "kernel %r: supervised run ok in %.1f ms (pid %s)",
            kernel.name, elapsed * 1e3, proc.pid,
        )
        return value
    raise value


def _await_result(proc, recv, deadline: float, name: str):
    """Poll the result pipe up to ``deadline``; decode timeout/crash.

    The pipe is read *before* joining the child: a large result blocks
    the child's ``send`` until the parent drains it, so join-first would
    deadlock exactly on the biggest outputs.
    """
    limit = time.monotonic() + deadline
    while True:
        remaining = limit - time.monotonic()
        if remaining <= 0:
            proc.kill()
            proc.join()
            raise KernelTimeoutError(
                f"supervised kernel {name!r} missed its {deadline:.1f}s "
                f"deadline and was killed",
                deadline=deadline,
            )
        try:
            if recv.poll(min(remaining, 0.05)):
                return recv.recv()
        except (EOFError, OSError):
            break  # child died with the pipe open
        if not proc.is_alive():
            # the child exited; drain any result that raced the exit
            try:
                if recv.poll(0.05):
                    return recv.recv()
            except (EOFError, OSError):
                pass
            break
    proc.join(_DRAIN_TIMEOUT)
    code = proc.exitcode
    if code is not None and code < 0:
        raise KernelCrashError(
            f"supervised kernel {name!r} crashed",
            signal=-code, exitcode=code,
        )
    raise KernelCrashError(
        f"supervised kernel {name!r} exited (status {code}) without "
        f"reporting a result",
        exitcode=code,
    )


__all__ = ["run_supervised", "can_supervise"]
