"""End-to-end server behavior over real sockets."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from tests.serve.harness import einsum_query, http_request


def test_health_ready_stats(make_server):
    server = make_server()
    assert server.request("GET", "/healthz").json == {"ok": True}
    assert server.request("GET", "/readyz").json == {"ready": True}
    stats = server.request("GET", "/stats").json
    assert stats["state"] == "ready"
    assert stats["inflight"] == 0
    assert server.request("GET", "/nope").status == 404
    assert server.request("PUT", "/query").status == 405


def test_stats_reports_pool_and_fork_fallbacks(make_server, monkeypatch):
    """``/stats`` carries the supervision pool's counters as JSON, and
    the one degradation of the pooled path — pool unavailable, fork
    fallback — as a named counter."""
    from repro.runtime import pool as pool_mod

    server = make_server()
    assert server.query(einsum_query()).status == 200
    pool = server.request("GET", "/stats").json["pool"]
    assert pool["calls"] == 1
    assert pool["crashes"] == pool["timeouts"] == 0
    assert pool["idle"] + pool["busy"] == len(pool["worker_pids"]) >= 1
    assert pool["spawned"] >= 1 and pool["avg_dispatch_overhead_ms"] > 0

    def refuse(self):
        raise pool_mod.PoolUnavailableError("spawn refused")

    pool_mod.shutdown_shared_pool()
    monkeypatch.setattr(pool_mod.WorkerPool, "_spawn", refuse)
    assert server.query(einsum_query(seed=3)).status == 200
    after = server.request("GET", "/stats").json["pool"]
    assert after["fork_fallbacks"] == pool["fork_fallbacks"] + 1
    assert after["calls"] == 0 and after["worker_pids"] == []


def test_einsum_query_roundtrip(make_server):
    server = make_server()
    resp = server.query(einsum_query())
    assert resp.status == 200
    body = resp.json
    assert body["result"]["kind"] == "tensor"
    assert body["result"]["attrs"] == ["i", "k"]
    assert body["meta"]["kernel_key"]
    # the second identical query hits the build cache: same key, faster
    again = server.query(einsum_query())
    assert again.json["result"] == body["result"]


def test_sql_query_roundtrip(make_server):
    server = make_server()
    resp = server.query({
        "kind": "sql",
        "query": "SELECT a FROM t WHERE b > 1",
        "tables": {"t": {"columns": ["a", "b"], "rows": [[1, 2], [3, 0]]}},
    })
    assert resp.status == 200
    assert resp.json["result"]["rows"] == [[1]]


def test_bad_requests_are_400(make_server):
    server = make_server()
    assert server.query({"kind": "einsum"}).status == 400
    assert server.query({"kind": "wat"}).status == 400
    bad_shape = einsum_query()
    bad_shape["operands"][0]["dims"] = [2, 2]
    bad_shape["operands"][1]["dims"] = [9, 9]
    assert server.query(bad_shape).status == 400
    raw = http_request(server.port, "POST", "/query", timeout=10)
    assert raw.status == 400      # empty body is not JSON


def test_rate_limit_sheds_with_retry_after(make_server):
    server = make_server(qps=0.5, burst=1)
    first = server.query(einsum_query())
    assert first.status == 200
    shed = server.query(einsum_query())
    assert shed.status == 429
    assert shed.retry_after is not None and shed.retry_after >= 1


def test_identical_concurrent_queries_coalesce(make_server):
    server = make_server()
    server.query(einsum_query(seed=9))        # warm the build cache
    results = []

    def fire():
        results.append(server.query(einsum_query(seed=9), timeout=30))

    threads = [threading.Thread(target=fire) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r.status == 200 for r in results)
    payloads = {json.dumps(r.json["result"], sort_keys=True) for r in results}
    assert len(payloads) == 1
    stats = server.request("GET", "/stats").json
    assert stats["coalesced"] >= 1
    assert any(r.json["meta"]["coalesced"] for r in results)


def test_compatible_queries_batch(make_server):
    server = make_server(batch_window=0.15, batch_max=8)
    server.query(einsum_query(seed=0))        # warm build outside the window
    results = {}

    def fire(seed):
        results[seed] = server.query(einsum_query(seed=seed), timeout=30)

    threads = [threading.Thread(target=fire, args=(s,)) for s in (11, 12, 13)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r.status == 200 for r in results.values())
    stats = server.request("GET", "/stats").json
    assert stats["batches"] >= 1
    assert stats["batched_items"] >= 3
    # batched answers must equal the unbatched oracle, item by item
    for seed, resp in results.items():
        oracle = server.query(einsum_query(seed=seed))
        assert oracle.json["result"] == resp.json["result"]


def test_deadline_budget_times_out_spinning_kernel(make_server):
    from tests.faults.crash_kernels import FaultyRecipe, sabotage_recipe

    def sabotage(kernel):
        if not isinstance(kernel.recipe, FaultyRecipe):
            sabotage_recipe(kernel, "spin")

    server = make_server(fault_hook=sabotage, deadline=8.0, retries=0)
    t0 = time.monotonic()
    resp = server.query(einsum_query(deadline_ms=900), timeout=30)
    elapsed = time.monotonic() - t0
    assert resp.status == 504
    assert resp.retry_after is not None
    assert elapsed < 6.0      # killed by the budget, not the 8s default
    stats = server.request("GET", "/stats").json
    assert stats["counters"]["timed_out"] == 1


def test_large_result_streams_chunked(make_server):
    server = make_server(stream_threshold=50)
    n = 12     # 12×12 dense product → 144 entries > 50
    doc = {
        "kind": "einsum", "spec": "ij,jk->ik",
        "operands": [
            {"entries": [[[i, j], 1.0] for i in range(n) for j in range(n)],
             "dims": [n, n]},
            {"entries": [[[i, j], 1.0] for i in range(n) for j in range(n)],
             "dims": [n, n]},
        ],
    }
    resp = server.query(doc, timeout=60)
    assert resp.status == 200
    assert resp.headers.get("transfer-encoding") == "chunked"
    assert resp.frames[0]["streaming"] is True
    assert resp.frames[0]["nnz"] == n * n
    assert resp.frames[-1]["done"] is True
    entries = [e for f in resp.frames for e in f.get("entries", [])]
    assert len(entries) == n * n
    assert all(e[2] == float(n) for e in entries)


def test_draining_server_rejects_then_finishes(make_server):
    server = make_server()
    server.query(einsum_query())      # warm
    server.server.lifecycle.state = "draining"
    resp = server.query(einsum_query())
    assert resp.status == 503
    assert resp.headers.get("connection") == "close"
    server.server.lifecycle.state = "ready"
    assert server.query(einsum_query()).status == 200


def test_graceful_stop_waits_for_inflight(make_server):
    server = make_server(drain=10.0)
    server.query(einsum_query())      # warm the kernel
    statuses = []

    def slow_query():
        statuses.append(server.query(einsum_query(seed=5), timeout=30).status)

    t = threading.Thread(target=slow_query)
    t.start()
    time.sleep(0.05)                  # let it get admitted
    clean = server.stop()
    t.join(timeout=20)
    assert clean is True
    assert statuses == [200]


def test_slow_client_does_not_park_the_server(make_server):
    """A client that stops reading mid-stream is cut off within the
    write timeout, and the server keeps answering others."""
    server = make_server(stream_threshold=10, write_timeout=0.5)
    n = 60    # big enough to overflow every socket buffer in the path
    doc = {
        "kind": "einsum", "spec": "ij,jk->ik",
        "operands": [
            {"entries": [[[i, j], 1.0] for i in range(n) for j in range(n)],
             "dims": [n, n]},
            {"entries": [[[i, j], 1.0] for i in range(n) for j in range(n)],
             "dims": [n, n]},
        ],
    }
    payload = json.dumps(doc).encode()
    s = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    s.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
    head = (f"POST /query HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n")
    s.sendall(head.encode() + payload)
    s.recv(512)               # read a little, then stall
    time.sleep(2.0)           # well past write_timeout
    healthy = server.request("GET", "/healthz", timeout=5)
    assert healthy.status == 200
    quick = server.query(einsum_query(), timeout=30)
    assert quick.status == 200
    s.close()
