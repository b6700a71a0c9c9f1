"""Persistent, pre-warmed kernel worker pool.

The classic ``process`` executor pays a worker spawn plus a recipe +
operand pickle on *every* call — BENCH_PR4/BENCH_PR5 measured that at
3–30× the kernel's own runtime.  This pool keeps a fixed set of worker
processes resident (pre-forked at construction), holds each compiled
kernel loaded in the workers under its cache key (warmed once: the
recipe crosses the pipe one time, the ``.so`` is dlopen'd one time,
then reused for thousands of calls), and moves operand/result arrays
through the :mod:`repro.runtime.shm` zero-copy data plane instead of
pickle.

Supervision lives *inside* the pool: workers run under ``RLIMIT_AS``
applied once at start, the parent enforces per-call wall deadlines on
the reply pipe, and death-by-signal is decoded from the exit status.
:func:`run_pooled` is the supervised path of every recipe-carrying
kernel (:func:`repro.runtime.supervisor.run_supervised` routes there),
so the sandbox cost is paid once per worker, not per call.  A dead
worker never kills the pool: the call that observed the death raises
its typed error and a fresh replacement (re-warmed with every recipe
the pool has seen) takes the dead worker's slot.

Worker lifecycle state machine::

    spawn ──▶ idle ──acquire──▶ busy ──release──▶ idle
               │                 │
               │ idle > TTL      │ crash / deadline
               ▼                 ▼
             evict            kill + replace ──▶ idle (fresh worker)

Health checks: acquisition re-verifies liveness (a worker that died
idle is replaced before it is ever handed out), and :meth:`
WorkerPool.health_check` pings every idle worker on demand.  The
circuit breaker of :mod:`repro.runtime.breaker` keys off the same
failures this pool observes — :meth:`WorkerPool.snapshot` exposes the
per-key counters next to the breaker's state snapshot, and
:func:`shared_pool_counters` the JSON-ready lifecycle counters serve's
``/stats`` reports.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compiler import resilience
from repro.compiler.resilience import logger
from repro.errors import KernelCrashError, KernelTimeoutError
from repro.runtime import shm


class PoolUnavailableError(RuntimeError):
    """The pool cannot serve calls (failed spawn, closed pool) — the
    caller should degrade to a non-pooled path."""


def pool_key(kernel) -> str:
    """The worker-side memo key for a kernel: its content-addressed
    cache key, else a digest of the recipe itself (cache disabled)."""
    key = getattr(kernel, "cache_key", None)
    if key:
        return key
    recipe = getattr(kernel, "recipe", None)
    if recipe is None:
        raise PoolUnavailableError(
            f"kernel {getattr(kernel, 'name', '?')!r} has no rebuild "
            "recipe; it cannot cross the pool boundary"
        )
    return "recipe:" + hashlib.sha1(pickle.dumps(recipe)).hexdigest()


@dataclass
class PoolStats:
    """Counters the circuit breaker and benchmarks key off."""

    spawned: int = 0
    replaced: int = 0
    evicted: int = 0
    calls: int = 0
    crashes: int = 0
    timeouts: int = 0
    #: cumulative pool machinery overhead: wall time inside
    #: :meth:`WorkerPool.run_call` minus the worker-reported kernel
    #: seconds (worker acquisition, pipe round-trip, shm adoption) —
    #: the *measured* per-dispatch cost the autotuner's calibration
    #: prices shard plans with
    overhead_s: float = 0.0
    #: typed failures per pool key — same keying as the circuit breaker
    failures: Dict[str, int] = field(default_factory=dict)

    def record_failure(self, key: str, *, timeout: bool) -> None:
        self.failures[key] = self.failures.get(key, 0) + 1
        if timeout:
            self.timeouts += 1
        else:
            self.crashes += 1

    @property
    def avg_overhead_s(self) -> float:
        """Mean dispatch overhead per completed call (0.0 before any)."""
        return self.overhead_s / self.calls if self.calls else 0.0


class _Worker:
    """One resident worker process and its duplex pipe."""

    __slots__ = ("proc", "conn", "warmed", "last_used", "wid")

    def __init__(self, proc, conn, wid: int) -> None:
        self.proc = proc
        self.conn = conn
        self.warmed: set = set()
        self.last_used = time.monotonic()
        self.wid = wid


class WorkerPool:
    """A fixed-size pool of resident kernel workers.

    ``workers`` defaults to ``REPRO_POOL_WORKERS`` (else
    ``REPRO_WORKERS``, else the CPU count); the start method follows
    ``REPRO_MP_START``; ``mem_mb`` (default ``REPRO_KERNEL_MEM_MB``)
    caps each worker's address space once, at spawn.

    ``_lock`` guards bookkeeping only — the idle list, the busy set, the
    recipe table and the count of slots reserved for workers still
    starting.  Spawning, warming, pinging and joining a worker all run
    outside it, so a replacement re-warming every recipe the pool has
    seen never stalls calls on the healthy workers.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        start_method: Optional[str] = None,
        mem_mb: Optional[int] = None,
        warm: Optional[bool] = None,
    ) -> None:
        # an explicit size wins; the env knobs only fill the default
        self.max_workers = (
            workers if workers is not None else resilience.pool_workers()
        )
        self._ctx = multiprocessing.get_context(
            start_method or resilience.mp_start_method()
        )
        self.mem_mb = mem_mb if mem_mb is not None else resilience.kernel_mem_mb()
        self._warm = (
            warm if warm is not None else resilience.pool_warm_enabled()
        )
        self._lock = threading.Lock()
        self._have_idle = threading.Condition(self._lock)
        self._idle: List[_Worker] = []
        self._busy: set = set()
        #: slots reserved for workers being spawned and warmed
        self._starting = 0
        self._recipes: Dict[str, object] = {}
        self._next_wid = 0
        self._closed = False
        self.stats = PoolStats()
        from repro.compiler.cache import default_cache_dir

        self._cache_dir = str(default_cache_dir())
        self._env = resilience.repro_env()
        # pre-fork the full complement so first calls find warm pipes
        try:
            self._fill()
        except PoolUnavailableError:
            self.shutdown()
            raise

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _size(self) -> int:
        """Workers held or being started (caller holds the lock)."""
        return len(self._idle) + len(self._busy) + self._starting

    def _spawn(self) -> _Worker:
        """Start one worker and re-warm it with every recipe the pool
        has seen when warming is on (runs without the lock)."""
        from repro.runtime import worker as worker_mod

        with self._lock:
            wid = self._next_wid
            self._next_wid += 1
            recipes = dict(self._recipes) if self._warm else {}
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        try:
            proc = self._ctx.Process(
                target=worker_mod.pool_worker_main,
                args=(child_conn, self._cache_dir, self._env, self.mem_mb),
                daemon=True,
                name=f"repro-pool-{wid}",
            )
            proc.start()
        except Exception as exc:
            parent_conn.close()
            raise PoolUnavailableError(f"could not spawn pool worker: {exc}")
        finally:
            child_conn.close()
        w = _Worker(proc, parent_conn, wid)
        with self._lock:
            self.stats.spawned += 1
        # a recipe registered after the snapshot ships lazily with the
        # worker's first call for its key
        for key, recipe in recipes.items():
            if not self._warm_one(w, key, recipe):
                break
        return w

    def _start_reserved(self, *, busy: bool) -> _Worker:
        """Spawn a worker into a slot the caller reserved under the lock
        (``_starting``) and hand it to the busy set (the caller's) or
        the idle list.  The reservation is released in the same
        critical section that places the worker, so the pool never
        holds more than ``max_workers``."""
        w = None
        try:
            w = self._spawn()
        finally:
            with self._lock:
                self._starting -= 1
                placed = w is not None and not self._closed
                if placed and busy:
                    self._busy.add(w)
                elif placed:
                    self._idle.append(w)
                self._have_idle.notify()
        if not placed:  # shut down while this worker was starting
            self._retire(w)
            raise PoolUnavailableError("worker pool is shut down")
        return w

    def _fill(self) -> None:
        """Start idle workers until the pool holds ``max_workers``."""
        while True:
            with self._lock:
                if self._closed or self._size() >= self.max_workers:
                    return
                self._starting += 1
            self._start_reserved(busy=False)

    def _warm_one(self, w: _Worker, key: str, recipe) -> bool:
        """Ship one recipe to one worker and await the ack."""
        try:
            w.conn.send(("warm", key, recipe))
            reply = w.conn.recv()
        except (EOFError, OSError, BrokenPipeError):
            return False
        if reply[0] == "warmed":
            w.warmed.add(key)
            return True
        logger.warning(
            "pool worker %d could not warm kernel key %.24s…: %s",
            w.wid, key, reply[1],
        )
        return True  # worker is healthy, the build just failed

    @staticmethod
    def _reap(w: _Worker) -> None:
        """Kill one worker and join it."""
        try:
            w.conn.close()
        except Exception:
            pass
        if w.proc.is_alive():
            w.proc.kill()
        w.proc.join(5.0)

    def _destroy(self, w: _Worker, *, replace: bool) -> None:
        """Kill one worker and optionally start a replacement in its
        slot.  Takes the lock for the bookkeeping only; the kill, the
        join and the replacement's spawn + warm-up run outside it (the
        caller must not hold it)."""
        with self._lock:
            self._busy.discard(w)
            if w in self._idle:
                self._idle.remove(w)
            replace = replace and not self._closed
            if replace:
                self._starting += 1
                self.stats.replaced += 1
        self._reap(w)
        if replace:
            try:
                self._start_reserved(busy=False)
            except PoolUnavailableError as exc:
                logger.warning("pool replacement spawn failed: %s", exc)

    def _acquire(self, timeout: Optional[float] = None) -> _Worker:
        deadline = None if timeout is None else time.monotonic() + timeout
        dead = None
        with self._lock:
            while True:
                if self._closed:
                    raise PoolUnavailableError("worker pool is shut down")
                if self._idle:
                    w = self._idle.pop()  # LIFO keeps hot workers hot
                    if w.proc.is_alive():
                        self._busy.add(w)
                        return w
                    # died while idle: its slot goes to a replacement,
                    # started below for this caller
                    dead = w
                    self.stats.replaced += 1
                    self._starting += 1
                    break
                if self._size() < self.max_workers:
                    self._starting += 1
                    break
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise PoolUnavailableError(
                        "no pool worker became available in time"
                    )
                self._have_idle.wait(
                    0.1 if remaining is None else min(remaining, 0.1)
                )
        if dead is not None:
            self._reap(dead)
        return self._start_reserved(busy=True)

    def _release(self, w: _Worker) -> None:
        with self._lock:
            self._busy.discard(w)
            closed = self._closed
            if not closed:
                w.last_used = time.monotonic()
                self._idle.append(w)
                self._have_idle.notify()
                stale = self._take_stale()
        if closed:
            self._reap(w)
            return
        for old in stale:
            self._retire(old)

    def _take_stale(self) -> List[_Worker]:
        """Unlist idle workers beyond the TTL, always keeping one warm
        (caller holds the lock and retires them after releasing it).
        ``_idle`` is LIFO — the front of the list is the coldest
        worker."""
        ttl = resilience.pool_idle_ttl()
        if ttl is None:
            return []
        now = time.monotonic()
        stale = []
        while len(self._idle) > 1 and now - self._idle[0].last_used > ttl:
            stale.append(self._idle.pop(0))
            self.stats.evicted += 1
        return stale

    def _retire(self, w: _Worker) -> None:
        """Polite shutdown of one worker: exit message, then join."""
        try:
            w.conn.send(("exit",))
        except Exception:
            pass
        try:
            w.conn.close()
        except Exception:
            pass
        w.proc.join(2.0)
        if w.proc.is_alive():
            w.proc.kill()
            w.proc.join(5.0)

    def _claim_idle(self, key: Optional[str] = None) -> List[_Worker]:
        """Move idle workers (those not yet warm for ``key``, when
        given) to the busy set, so the caller can talk to them without
        the lock; each goes back through :meth:`_release` or
        :meth:`_destroy`."""
        with self._lock:
            claimed = [w for w in self._idle
                       if key is None or key not in w.warmed]
            for w in claimed:
                self._idle.remove(w)
                self._busy.add(w)
        return claimed

    # ------------------------------------------------------------------
    # the public call surface
    # ------------------------------------------------------------------
    def register_recipe(self, key: str, recipe) -> None:
        """Record a recipe for warm-up; broadcast it to idle workers
        when proactive warming is on."""
        with self._lock:
            if key in self._recipes:
                return
            self._recipes[key] = recipe
            if not self._warm:
                return
        for w in self._claim_idle(key):
            if self._warm_one(w, key, recipe):
                self._release(w)
            else:
                self._destroy(w, replace=True)

    def run_call(
        self,
        key: str,
        refs: Mapping[str, shm.TensorRef],
        output_dims: Optional[Sequence[int]],
        capacity: Optional[int],
        auto_grow: bool,
        max_capacity: Optional[int],
        deadline: Optional[float] = None,
        threshold: Optional[int] = None,
    ) -> Tuple[object, float, int]:
        """Run one warmed kernel call on a pool worker.

        Returns ``(result, seconds, pid)`` like the classic shard task.
        Raises the worker's typed kernel error, or
        :class:`~repro.errors.KernelTimeoutError` /
        :class:`~repro.errors.KernelCrashError` after killing and
        replacing the worker.
        """
        threshold = (
            resilience.shm_threshold() if threshold is None else threshold
        )
        t_enter = time.monotonic()
        w = self._acquire()
        self.stats.calls += 1
        rname = shm.result_name()
        dead = False
        try:
            recipe = None if key in w.warmed else self._recipes.get(key)
            try:
                w.conn.send((
                    "run", key, recipe, dict(refs), output_dims, capacity,
                    auto_grow, max_capacity, rname, threshold,
                ))
            except (OSError, BrokenPipeError) as exc:
                dead = True
                raise self._worker_died(w, key, rname, cause=str(exc))
            try:
                reply = self._await_reply(w, deadline, key, rname)
            except (KernelCrashError, KernelTimeoutError):
                dead = True
                raise
            if reply[0] == "ok":
                _tag, payload, seconds, pid = reply
                w.warmed.add(key)
                result = shm.adopt_result(payload)
                self.stats.overhead_s += max(
                    0.0, (time.monotonic() - t_enter) - seconds
                )
                return result, seconds, pid
            _tag, exc, _seconds = reply
            shm.unlink_by_name(rname)
            raise exc
        finally:
            if not dead:
                self._release(w)

    def _await_reply(self, w: _Worker, deadline: Optional[float],
                     key: str, rname: str):
        """Poll the worker's pipe; decode deadline/crash exactly like
        the fork-per-call supervisor, then kill + replace."""
        limit = None if deadline is None else time.monotonic() + deadline
        while True:
            if limit is not None and time.monotonic() >= limit:
                self._destroy(w, replace=True)
                shm.unlink_by_name(rname)
                self.stats.record_failure(key, timeout=True)
                raise KernelTimeoutError(
                    f"pooled kernel call missed its {deadline:.1f}s "
                    f"deadline; worker {w.wid} was killed and replaced",
                    deadline=deadline,
                )
            try:
                if w.conn.poll(0.05):
                    return w.conn.recv()
            except (EOFError, OSError):
                raise self._worker_died(w, key, rname)
            if not w.proc.is_alive():
                # drain a reply that raced the exit
                try:
                    if w.conn.poll(0.05):
                        return w.conn.recv()
                except (EOFError, OSError):
                    pass
                raise self._worker_died(w, key, rname)

    def _worker_died(
        self, w: _Worker, key: Optional[str], rname: Optional[str],
        cause: Optional[str] = None,
    ) -> KernelCrashError:
        """Decode a worker death into a typed error; kill + replace."""
        w.proc.join(2.0)
        code = w.proc.exitcode
        self._destroy(w, replace=True)
        if rname is not None:
            shm.unlink_by_name(rname)
        self.stats.record_failure(key or "<unknown>", timeout=False)
        if code is not None and code < 0:
            return KernelCrashError(
                f"pool worker {w.wid} died running a kernel",
                signal=-code, exitcode=code,
            )
        detail = f" ({cause})" if cause else ""
        return KernelCrashError(
            f"pool worker {w.wid} exited (status {code}) without "
            f"reporting a result{detail}",
            exitcode=code,
        )

    # ------------------------------------------------------------------
    # health & stats
    # ------------------------------------------------------------------
    def health_check(self) -> Dict[int, bool]:
        """Ping every idle worker; dead ones are replaced.  Returns
        ``{worker id: alive}`` for the workers checked."""
        report: Dict[int, bool] = {}
        for w in self._claim_idle():
            ok = False
            try:
                w.conn.send(("ping", w.wid))
                if w.conn.poll(5.0):
                    reply = w.conn.recv()
                    ok = reply[0] == "pong" and reply[1] == w.wid
            except (EOFError, OSError, BrokenPipeError):
                ok = False
            report[w.wid] = ok
            if ok:
                self._release(w)
            else:
                self._destroy(w, replace=True)
        return report

    def snapshot(self) -> Dict[str, object]:
        """Pool + breaker state for observability; the breaker keys off
        the same per-key failure counters recorded here."""
        from repro.runtime import breaker as breaker_mod

        with self._lock:
            idle = len(self._idle)
            busy = len(self._busy)
            warmed = {w.wid: len(w.warmed) for w in self._idle}
        return {
            "max_workers": self.max_workers,
            "idle": idle,
            "busy": busy,
            "warmed_keys_per_idle_worker": warmed,
            "recipes": len(self._recipes),
            "stats": self.stats,
            "avg_dispatch_overhead_s": self.stats.avg_overhead_s,
            "breaker": breaker_mod.breaker.snapshot(),
        }

    def counters(self) -> Dict[str, object]:
        """JSON-ready lifecycle and dispatch counters."""
        with self._lock:
            idle, busy = list(self._idle), list(self._busy)
        return _counters(self.stats, idle, busy)

    # ------------------------------------------------------------------
    def grow(self, workers: int) -> None:
        """Raise the pool size (never shrinks below current)."""
        with self._lock:
            if self._closed or workers <= self.max_workers:
                return
            self.max_workers = workers
        try:
            self._fill()
        except PoolUnavailableError as exc:
            logger.warning("pool growth spawn failed: %s", exc)

    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self, *, wait: float = 5.0) -> None:
        """Drain and join every worker; idempotent.

        Idle workers get a polite ``exit`` and a join; busy and
        still-starting workers are given ``wait`` seconds to come home,
        then killed.  After this the pool raises
        :class:`PoolUnavailableError` on use.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
            self._have_idle.notify_all()
        for w in idle:
            self._retire(w)
        limit = time.monotonic() + wait
        while True:
            with self._lock:
                pending = bool(self._busy) or self._starting > 0
            if not pending or time.monotonic() >= limit:
                break
            time.sleep(0.02)
        with self._lock:
            busy = list(self._busy)
            self._busy.clear()
        for w in busy:
            self._reap(w)


def run_pooled(
    kernel,
    tensors,
    capacity: Optional[int] = None,
    *,
    auto_grow: bool = False,
    max_capacity: Optional[int] = None,
    deadline: Optional[float] = None,
) -> object:
    """One supervised kernel run on the shared pool.

    Raises ``KernelTimeoutError`` when the deadline passes,
    ``KernelCrashError`` on a worker's death by signal, and re-raises
    the kernel's own typed errors; the sandbox — resident worker,
    rlimits at spawn, warmed kernel, shm operands — is paid once, not
    per call.
    """
    pool = get_shared_pool()
    key = pool_key(kernel)
    recipe = getattr(kernel, "recipe", None)
    if recipe is None:
        raise PoolUnavailableError(
            f"kernel {kernel.name!r} has no rebuild recipe"
        )
    pool.register_recipe(key, recipe)
    threshold = resilience.shm_threshold()
    refs: Dict[str, shm.TensorRef] = {}
    for name, t in tensors.items():
        export = shm.export_tensor(t, threshold)
        refs[name] = shm.describe_tensor(t, export)
    dims = tuple(kernel.output.dims) if kernel.output is not None else None
    deadline = resilience.kernel_deadline() if deadline is None else deadline
    result, _seconds, _pid = pool.run_call(
        key, refs, dims, capacity, auto_grow, max_capacity,
        deadline=deadline, threshold=threshold,
    )
    return result


# ----------------------------------------------------------------------
# the process-wide shared pool
# ----------------------------------------------------------------------
_shared: Optional[WorkerPool] = None
_shared_lock = threading.Lock()


def _counters(stats: PoolStats, idle: List[_Worker],
              busy: List[_Worker]) -> Dict[str, object]:
    return {
        "worker_pids": sorted(w.proc.pid for w in idle + busy),
        "idle": len(idle),
        "busy": len(busy),
        "spawned": stats.spawned,
        "replaced": stats.replaced,
        "evicted": stats.evicted,
        "calls": stats.calls,
        "crashes": stats.crashes,
        "timeouts": stats.timeouts,
        "avg_dispatch_overhead_ms": round(stats.avg_overhead_s * 1e3, 3),
    }


def shared_pool_counters() -> Dict[str, object]:
    """:meth:`WorkerPool.counters` of the process-wide pool, all zero
    before its first use — reading them never starts a worker."""
    pool = _shared
    if pool is None or pool.closed:
        return _counters(PoolStats(), [], [])
    return pool.counters()


def get_shared_pool(workers: Optional[int] = None) -> WorkerPool:
    """The process-wide pool, created on first use.

    A later request for more workers grows the existing pool rather
    than building a second one — warmed kernels live in the workers, so
    one pool concentrates the warmth.  Workers are pinned to the
    ``REPRO_*`` configuration they spawned under (``RLIMIT_AS`` from
    ``REPRO_KERNEL_MEM_MB`` among it), so a pool whose configuration no
    longer matches the environment is retired and replaced: a changed
    memory cap, auto-grow bound or cache directory reaches every later
    call, as it would a child forked per call.
    """
    global _shared
    from repro.runtime import executor as executor_mod

    stale = None
    with _shared_lock:
        if _shared is not None and _shared._env != resilience.repro_env():
            stale, _shared = _shared, None
        if _shared is None or _shared.closed:
            _shared = WorkerPool(workers)
            executor_mod.register_runtime_shutdown()
        elif workers is not None and workers > _shared.max_workers:
            _shared.grow(workers)
        pool = _shared
    if stale is not None:
        stale.shutdown()
    return pool


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (tests; interpreter exit)."""
    global _shared
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.shutdown()


__all__ = [
    "PoolStats",
    "PoolUnavailableError",
    "WorkerPool",
    "get_shared_pool",
    "pool_key",
    "run_pooled",
    "shared_pool_counters",
    "shutdown_shared_pool",
]
