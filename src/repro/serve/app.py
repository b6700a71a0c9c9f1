"""The asyncio HTTP server: admission → coalesce → execute → respond.

One event loop owns admission, coalescing, and all socket I/O; the
blocking work (query canonicalization, kernel builds, supervised runs)
happens on a bounded thread-pool executor, and the resident worker pool
under it runs every kernel and enforces the real deadlines.  The request path::

    POST /query
      │ parse JSON, canonicalize (executor)        → 400 on bad input
      │ admission: drain / in-flight / rate / breaker
      │                                            → 429/503 + Retry-After
      │ single-flight coalesce (identical queries share one run)
      │ micro-batch window (compatible queries share one dispatch)
      │ retry loop: transient errors only, budget-charged backoff
      │ Kernel.run(..., deadline=budget.remaining())
      ▼
    200 JSON · 200 chunked NDJSON stream · 504 deadline · 500 typed error

Error mapping is taxonomy-driven: client mistakes are 400s, shed load
is 429/503 with an honest ``Retry-After``, a missed deadline is 504,
and everything else surfaces as a typed 500 naming the error class.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Set

from repro.compiler.resilience import logger
from repro.errors import (
    KernelTimeoutError,
    ReproError,
    ShapeError,
    StreamPropertyError,
)
from repro.serve.admission import AdmissionController
from repro.serve.coalesce import Batcher, SingleFlight
from repro.serve.config import ServeConfig
from repro.serve.deadline import request_budget
from repro.serve.lifecycle import Lifecycle
from repro.serve.query import QueryError, prepare_request
from repro.serve.retrying import RetryPolicy, run_with_retry
from repro.serve.stream import (
    HttpError,
    SlowClientError,
    read_request,
    send_json,
    send_partial_marker,
    stream_result,
)

def _validation_body(exc: BaseException) -> Dict[str, Any]:
    """The 400 response body for a request-validation failure.

    A :class:`StreamPropertyError` carries blame records naming the
    offending AST node; its :meth:`diagnostic` *is* the body.  Other
    validation errors keep the plain ``{error, type}`` shape.
    """
    if isinstance(exc, StreamPropertyError):
        return exc.diagnostic()
    return {"error": str(exc), "type": type(exc).__name__}


#: idle keep-alive read budget per request, seconds
IDLE_TIMEOUT = 30.0
#: extra slack the event loop grants past the request budget before it
#: abandons the executor future (the supervised kill should fire first)
DEADLINE_GRACE = 1.0


class ContractionServer:
    """One serving instance: sockets, executor, and resilience state."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig.from_env()
        self.lifecycle = Lifecycle()
        self.admission = AdmissionController(self.config)
        self.single_flight = SingleFlight()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="serve",
        )
        self.batcher: Optional[Batcher] = None
        if self.config.batch_window > 0:
            self.batcher = Batcher(
                self.config.batch_window, self.config.batch_max,
                self._in_executor, fault_hook=self.config.fault_hook,
            )
        self._policy = RetryPolicy(self.config.retries, self.config.retry_base)
        self._rng = random.Random()
        self._server: Optional[asyncio.AbstractServer] = None
        self._query_tasks: Set[asyncio.Task] = set()
        self._latencies: deque = deque(maxlen=8192)
        self.port: Optional[int] = None

    async def _in_executor(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        try:
            # reclaim journals of jobs abandoned past their TTL; a crash
            # here must never stop the server from booting
            from repro.runtime.jobs import gc_jobs

            swept = gc_jobs()
            if swept:
                logger.warning(
                    "serve: swept %d stale job journal(s)", len(swept))
        except Exception as exc:
            logger.warning("serve: job-journal sweep failed (%s)", exc)
        self._server = await asyncio.start_server(
            self._client, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.lifecycle.mark_ready()
        logger.warning(
            "serve: listening on %s:%d (deadline=%.1fs, max_inflight=%d, "
            "qps=%s, degrade=%s)",
            self.config.host, self.port, self.config.deadline,
            self.config.max_inflight,
            self.config.qps or "unlimited", self.config.degrade,
        )

    async def stop(self) -> bool:
        """Graceful shutdown: stop admitting, drain, cancel stragglers,
        reclaim every runtime resource.  True on a clean drain."""
        if self._server is not None:
            self._server.close()
        clean = await self.lifecycle.drain(self.config.drain)
        if not clean:
            for task in list(self._query_tasks):
                task.cancel()
            await asyncio.gather(*self._query_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        self._executor.shutdown(wait=True, cancel_futures=True)
        from repro.runtime import pool as pool_mod
        from repro.runtime.executor import shutdown_shared_executors

        pool_mod.shutdown_shared_pool()
        shutdown_shared_executors()
        logger.warning("serve: stopped (%s drain)",
                       "clean" if clean else "forced")
        return clean

    # -- connection loop ----------------------------------------------
    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await read_request(
                    reader, self.config.max_body, IDLE_TIMEOUT)
                if request is None:
                    break
                keep_alive = await self._dispatch(writer, *request)
                if not keep_alive:
                    break
        except HttpError as exc:
            try:
                await send_json(
                    writer, exc.status, {"error": str(exc)}, close=True)
            except (ConnectionError, OSError):
                pass
        except (SlowClientError, ConnectionError,
                asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, writer, method: str, target: str,
                        headers: Dict[str, str], body: bytes) -> bool:
        target = target.split("?", 1)[0]
        if method == "GET":
            if target == "/healthz":
                await send_json(writer, 200, {"ok": True})
                return True
            if target == "/readyz":
                if self.lifecycle.ready:
                    await send_json(writer, 200, {"ready": True})
                    return True
                await send_json(
                    writer, 503,
                    {"ready": False, "state": self.lifecycle.state},
                    retry_after=1.0, close=True,
                )
                return False
            if target == "/stats":
                await send_json(writer, 200, self._stats())
                return True
            await send_json(writer, 404, {"error": f"no route {target}"})
            return True
        if method != "POST" or target != "/query":
            await send_json(
                writer, 405, {"error": f"{method} {target} unsupported"})
            return True
        return await self._query(writer, body)

    # -- the query path ------------------------------------------------
    async def _query(self, writer, body: bytes) -> bool:
        self.lifecycle.bump("requests")
        if self.lifecycle.draining:
            self.lifecycle.bump("rejected")
            await send_json(
                writer, 503, {"error": "server is draining"},
                retry_after=self.config.drain, close=True,
            )
            return False
        try:
            doc = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            await send_json(writer, 400, {"error": f"bad JSON: {exc}"})
            return True
        try:
            prepared = await self._in_executor(
                prepare_request, doc, self.config.tune)
        except (QueryError, ShapeError, StreamPropertyError, ValueError) as exc:
            await send_json(writer, 400, _validation_body(exc))
            return True

        rejection = self.admission.admit(prepared, self.lifecycle.inflight)
        if rejection is not None:
            self.lifecycle.bump("rejected")
            await send_json(
                writer, rejection.status, {"error": rejection.reason},
                retry_after=rejection.retry_after,
            )
            return True

        self.lifecycle.bump("admitted")
        budget = request_budget(prepared.deadline_ms, self.config.deadline)
        self.lifecycle.request_started()
        task = asyncio.current_task()
        self._query_tasks.add(task)
        t0 = time.monotonic()
        try:
            result, led = await self.single_flight.run(
                prepared.coalesce_key,
                lambda: self._execute(prepared, budget),
            )
        except asyncio.CancelledError:
            # drain-deadline cancellation: tell the client explicitly.
            # A durable query's journal survives the cancel, so the
            # marker carries the job_id the client can resume under.
            self.lifecycle.bump("cancelled")
            await send_partial_marker_or_json(
                writer, "cancelled during server drain",
                self.config.write_timeout,
                extra=self._job_fields(prepared),
            )
            return False
        except (KernelTimeoutError, asyncio.TimeoutError):
            self.lifecycle.bump("timed_out")
            await send_json(
                writer, 504,
                {"error": "deadline exceeded", "budget_s": budget.total},
                retry_after=self.config.deadline,
            )
            return True
        except (QueryError, ShapeError, StreamPropertyError) as exc:
            # validation failures that only surface once the kernel is
            # actually built (workspace shape checks, deferred property
            # verdicts) are still the *request's* fault — a 400 with the
            # diagnostic, never a generic 500
            self.lifecycle.bump("failed")
            await send_json(writer, 400, _validation_body(exc))
            return True
        except ReproError as exc:
            self.lifecycle.bump("failed")
            await send_json(
                writer, 500,
                {"error": str(exc), "type": type(exc).__name__},
            )
            return True
        finally:
            self._query_tasks.discard(task)
            self.lifecycle.request_finished()

        elapsed = time.monotonic() - t0
        self._latencies.append(elapsed)
        self.lifecycle.bump("completed")
        meta = {
            "elapsed_ms": round(elapsed * 1e3, 3),
            "coalesced": not led,
            "kernel_key": prepared.kernel_key,
        }
        if prepared.tune_meta is not None:
            meta["tune"] = prepared.tune_meta
        meta.update(self._job_fields(prepared))
        if isinstance(doc, dict) and doc.get("explain"):
            meta["explain"] = prepared.explanation
        if len(result.get("entries", ())) > self.config.stream_threshold:
            try:
                await stream_result(
                    writer, result, meta, self.config.write_timeout)
            except SlowClientError:
                logger.warning(
                    "serve: client too slow mid-stream; connection dropped")
                raise
            return False
        await send_json(writer, 200, {"result": result, "meta": meta})
        return True

    @staticmethod
    def _job_fields(prepared) -> Dict[str, Any]:
        """Durable-job identity for response meta and drain markers."""
        job = getattr(prepared, "job_meta", None) or {}
        fields: Dict[str, Any] = {}
        if job.get("job_id"):
            fields["job_id"] = job["job_id"]
            fields["resumed_shards"] = job.get("resumed_shards", 0)
            fields["spills"] = job.get("spills", 0)
        return fields

    async def _execute(self, prepared, budget) -> Dict[str, Any]:
        """Dispatch one admitted, coalesce-leading query."""
        if self.batcher is not None and prepared.batch_key is not None:
            coro = self.batcher.submit(prepared, budget)
        else:
            coro = self._in_executor(self._execute_sync, prepared, budget)
        return await asyncio.wait_for(
            coro, timeout=budget.remaining() + DEADLINE_GRACE)

    def _execute_sync(self, prepared, budget) -> Dict[str, Any]:
        """Blocking execution with the bounded retry loop (executor)."""
        return run_with_retry(
            lambda: prepared.execute(budget, self.config.fault_hook),
            budget=budget, policy=self._policy, rng=self._rng,
            what=f"query {prepared.coalesce_key[:16]}",
        )

    # -- observability -------------------------------------------------
    def _stats(self) -> Dict[str, Any]:
        from repro.runtime import supervisor
        from repro.runtime.breaker import breaker
        from repro.runtime.pool import shared_pool_counters

        lat = sorted(self._latencies)

        def pct(p: float) -> Optional[float]:
            if not lat:
                return None
            return round(lat[min(len(lat) - 1, int(p * len(lat)))] * 1e3, 3)

        return {
            "state": self.lifecycle.state,
            "uptime_s": round(
                time.monotonic() - self.lifecycle.started_at, 3),
            "inflight": self.lifecycle.inflight,
            "counters": dict(self.lifecycle.counters),
            "coalesced": self.single_flight.coalesced,
            "batches": self.batcher.batches if self.batcher else 0,
            "batched_items":
                self.batcher.batched_items if self.batcher else 0,
            "latency_ms": {"p50": pct(0.50), "p90": pct(0.90),
                           "p99": pct(0.99)},
            "breaker": breaker.snapshot(),
            "pool": {**shared_pool_counters(),
                     "fork_fallbacks": supervisor.fork_fallbacks},
        }


async def send_partial_marker_or_json(
    writer, reason: str, write_timeout: float,
    extra: Optional[Dict[str, Any]] = None,
) -> None:
    """Drain-cancellation notice: a JSON 503 with a partial marker (the
    response had not started streaming, so a full status line is still
    possible).  ``extra`` fields (e.g. a durable ``job_id`` the client
    can resume under) are merged into the body."""
    body: Dict[str, Any] = {"error": reason, "partial": True}
    if extra:
        body.update(extra)
    try:
        await send_json(writer, 503, body, retry_after=2.0, close=True)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        await send_partial_marker(writer, reason, write_timeout)


async def serve_forever(config: Optional[ServeConfig] = None) -> bool:
    """Run until SIGTERM/SIGINT, then drain gracefully."""
    import signal

    server = ContractionServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    # machine-readable readiness line for process supervisors and CI
    print(f"REPRO_SERVE_READY {server.config.host}:{server.port}",
          flush=True)
    await stop.wait()
    return await server.stop()


__all__ = ["ContractionServer", "serve_forever"]
