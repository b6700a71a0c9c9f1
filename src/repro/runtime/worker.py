"""Process-pool worker side of the sharded runtime.

Everything here must be importable and picklable from a spawn-fresh
interpreter: no closures, no compiled-kernel handles.  A worker
receives a :class:`~repro.compiler.kernel.KernelRecipe` plus concrete
shard tensors, rebuilds the kernel through the ordinary
:class:`~repro.compiler.kernel.KernelBuilder` path — which lands on
the two-tier cache: the worker's in-memory memo after the first task,
the parent's on-disk payload/``.so`` tier before that — and runs the
shard.  Concurrent first-touch rebuilds across workers serialize on
the cache's per-key file locks, so exactly one worker compiles and the
rest read its artifact.

Two worker flavors live here:

* :func:`run_shard_task` — the stateless task of the classic
  ``ProcessPoolExecutor`` backend: recipe + pickled tensors per call.
* :func:`pool_worker_main` — the resident message loop of the
  persistent :class:`~repro.runtime.pool.WorkerPool`: kernels are
  *warmed* once per cache key and kept resident, operands arrive as
  :class:`~repro.runtime.shm.TensorRef` descriptors over shared
  memory, and rlimits are applied once at worker start so the sandbox
  cost is amortized across thousands of calls.
"""

from __future__ import annotations

import os
import time
from typing import Mapping, Optional, Sequence, Tuple

from repro.data.tensor import Tensor


def init_worker(cache_dir: str, env: Mapping[str, str]) -> None:
    """Pool initializer: pin the parent's ``REPRO_*`` configuration.

    The kernel cache directory is the load-bearing knob — without it a
    worker would rebuild into its own default location and every shard
    would recompile from scratch.
    """
    for key, value in env.items():
        os.environ.setdefault(key, value)
    os.environ["REPRO_KERNEL_CACHE_DIR"] = cache_dir


def run_shard_task(
    recipe,
    tensors: Mapping[str, Tensor],
    output_dims: Optional[Sequence[int]],
    capacity: Optional[int],
    auto_grow: bool,
    max_capacity: Optional[int],
) -> Tuple[object, float, int]:
    """Rebuild the kernel from its recipe and run one shard.

    Returns ``(result, seconds, pid)`` — the pid lets the caller's
    per-shard stats show which worker ran what.
    """
    kernel = recipe.build()
    if output_dims is not None:
        kernel = kernel.with_output_dims(output_dims)
    start = time.perf_counter()
    result = kernel._run_single(
        tensors, capacity, auto_grow=auto_grow, max_capacity=max_capacity
    )
    return result, time.perf_counter() - start, os.getpid()


# ----------------------------------------------------------------------
# persistent pool worker: warm once, run many
# ----------------------------------------------------------------------
def _picklable(exc: BaseException) -> BaseException:
    """An exception safe to send over the pipe (degrade to the message
    when the original cannot pickle)."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def pool_worker_main(
    conn,
    cache_dir: str,
    env: Mapping[str, str],
    mem_mb: Optional[int],
) -> None:
    """Resident worker loop of :class:`~repro.runtime.pool.WorkerPool`.

    Strict request/response protocol — every message gets exactly one
    reply (except ``exit``):

    * ``("warm", key, recipe)`` → ``("warmed", key)``: build the kernel
      (a disk-cache read in the common case) and keep it resident under
      its cache key.
    * ``("run", key, recipe?, refs, output_dims, capacity, auto_grow,
      max_capacity, result_name, threshold)`` →
      ``("ok", payload, seconds, pid)``: reconstruct operand tensors as
      shared-memory views, run the resident kernel, and return the
      result inline or packed into the parent-named ``result_name``
      segment.  The optional recipe covers a key the worker has not
      seen (a replacement worker mid-stream); None for warmed keys —
      the "recipe ships once" contract.
    * ``("ping", token)`` → ``("pong", token, pid)``: health check.
    * ``("exit",)``: drain attachments and leave.

    Typed kernel errors reply ``("err", exc, seconds)``; anything that
    escapes the interpreter (segfault, rlimit kill) is decoded by the
    parent from the exit status.  ``RLIMIT_AS`` is applied **once**
    here, not per call — that is the amortization the pool exists for.
    ``RLIMIT_CPU`` is deliberately not set: a resident worker's CPU
    time accumulates across calls, so a per-call budget must come from
    the parent's wall-clock deadline instead.
    """
    try:
        import faulthandler

        faulthandler.disable()  # worker crashes are decoded by the parent
    except Exception:  # pragma: no cover - faulthandler always importable
        pass
    init_worker(cache_dir, env)
    from repro.compiler import resilience
    from repro.runtime import shm
    from repro.runtime.supervisor import _apply_rlimits

    _apply_rlimits(mem_mb, None)
    kernels: dict = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "exit":
                break
            if kind == "ping":
                conn.send(("pong", msg[1], os.getpid()))
                continue
            if kind == "warm":
                _, key, recipe = msg
                try:
                    kernels[key] = recipe.build()
                    conn.send(("warmed", key))
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    conn.send(("err", _picklable(exc), 0.0))
                continue
            if kind == "run":
                (_, key, recipe, refs, output_dims, capacity, auto_grow,
                 max_capacity, rname, threshold) = msg
                # chaos hook: REPRO_FAULT=supervised_child:sigkill models
                # a worker OOM-killed mid-call; ``raise`` mode escapes the
                # loop, so the worker exits without a reply
                resilience.fault_point("supervised_child")
                start = time.perf_counter()
                try:
                    kernel = kernels.get(key)
                    if kernel is None:
                        if recipe is None:
                            raise RuntimeError(
                                f"pool worker has no kernel for key "
                                f"{key!r} and no recipe was shipped"
                            )
                        kernel = kernels[key] = recipe.build()
                    if output_dims is not None and (
                        kernel.output is None
                        or tuple(kernel.output.dims) != tuple(output_dims)
                    ):
                        kernel = kernel.with_output_dims(output_dims)
                    tensors = {n: shm.open_ref(r) for n, r in refs.items()}
                    result = kernel._run_single(
                        tensors, capacity, auto_grow=auto_grow,
                        max_capacity=max_capacity,
                    )
                    payload = shm.export_result(result, rname, threshold)
                    conn.send(
                        ("ok", payload, time.perf_counter() - start,
                         os.getpid())
                    )
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    conn.send(
                        ("err", _picklable(exc), time.perf_counter() - start)
                    )
                continue
            conn.send(("err", RuntimeError(f"unknown message {kind!r}"), 0.0))
    finally:
        try:
            from repro.runtime import shm

            shm.close_attachments()
        except Exception:
            pass
        try:
            conn.close()
        except Exception:
            pass
