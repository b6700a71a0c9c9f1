"""The traced run (``--trace 1``): per-layer metrics of all four workloads.

Every traced run walks the whole cost ladder, so each reports every
``per_layer`` metric of ``BENCHMARK.json``: the workloads run one after
another on shortened budgets (``--seconds`` split evenly), with spans
(``trace.Tracer``) wrapped around the program's public functions from
outside.  Set-up runs once per workload here; ``setup_s`` belongs to
the untraced runs.

Which end-to-end metric each layer should move (on which workload) is
listed in ``README.md``.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List

import common
from trace import Tracer


def _med(xs) -> float:
    return common.median(xs) if xs else 0.0


def ir_stmts(body) -> int:
    """Statements of a loop-IR body (sequences, skips and comments
    excluded)."""
    from repro.compiler import ir

    n = 0
    stack = [body]
    while stack:
        p = stack.pop()
        if isinstance(p, ir.PSeq):
            stack.extend(p.items)
        elif isinstance(p, ir.PWhile):
            n += 1
            stack.append(p.body)
        elif isinstance(p, ir.PIf):
            n += 1
            stack.extend((p.then, p.els))
        elif not isinstance(p, (ir.PSkip, ir.PComment)) and p is not None:
            n += 1
    return n


# ----------------------------------------------------------------------
# kernels: Kernel.bind / BoundKernel.run_only / BoundKernel.result
# ----------------------------------------------------------------------
def trace_kernels(run: common.Run, seconds: float, out: Dict[str, float], shares: Dict) -> None:
    import wl_kernels
    from repro.compiler.kernel import BoundKernel, Kernel

    wl = wl_kernels.Kernels(run, setup_reps=1)
    try:
        wl.setup()
        wl.measure(seconds / 2)
        meter = wl.meter
        tracer = Tracer()
        per_row: Dict[str, Dict[str, List[float]]] = {r.name: {} for r in wl.rows}
        wall: Dict[str, List[float]] = {r.name: [] for r in wl.rows}
        plain: Dict[str, List[float]] = {r.name: [] for r in wl.rows}
        t_end = time.perf_counter() + seconds / 2
        flip = False
        while time.perf_counter() < t_end:
            flip = not flip
            for row in wl.rows:
                # untraced and traced decompositions alternate, in
                # alternating order: their ratio is the tracing overhead
                for traced in ((False, True) if flip else (True, False)):
                    if traced:
                        tracer.wrap(Kernel, "bind", "kernel.bind")
                        tracer.wrap(BoundKernel, "run_only", "kernel.raw")
                        tracer.wrap(BoundKernel, "result", "kernel.assemble")
                    try:
                        t0 = time.perf_counter()
                        b = row.kernel.bind(row.tensors, capacity=row.capacity)
                        b.run_only()
                        res = b.result()
                        (wall if traced else plain)[row.name].append(time.perf_counter() - t0)
                    finally:
                        tracer.restore()
                run.check(wl_kernels.agree(row.canon(res), row.ref, row.gamma, row.atol),
                          f"kernels traced {row.name}")
                spans = tracer.take()
                for k, v in spans.items():
                    per_row[row.name].setdefault(k, []).extend(v)
        rows = wl.rows
        for name, key in (("kernel.bind_us", "kernel.bind"), ("kernel.raw_us", "kernel.raw"),
                          ("kernel.assemble_us", "kernel.assemble")):
            out[name] = common.geomean(_med(per_row[r.name][key]) for r in rows) * 1e6
        out["kernel.raw_vs_baseline"] = common.geomean(
            _med(per_row[r.name]["kernel.raw"]) / _med(meter.get(f"{r.name}/base").raw)
            for r in rows)
        for r in rows:
            out[f"kernel.{r.name}.p50_us"] = _med(meter.get(f"{r.name}/run").norm) * 1e6
        shares["overhead"]["kernels"] = common.geomean(
            _med(wall[r.name]) / _med(plain[r.name]) for r in rows)
        shares["unattributed"]["kernels"] = _med([
            1 - sum(_med(v) for v in per_row[r.name].values()) / _med(wall[r.name])
            for r in rows])
    finally:
        wl.close()


# ----------------------------------------------------------------------
# compile: plan_einsum, verify_expr, lower, optimize, emit, cc, restore
# ----------------------------------------------------------------------
#: the exact counts cover the draw's first programs, which every traced
#: run compiles whatever the host's speed
COUNT_PROGRAMS = 20


def _compile_tracer():
    import importlib

    import repro.compiler.codegen_c as codegen_c
    import repro.compiler.kernel as kernel_mod

    # ``repro.tensor.einsum`` the module (the package re-exports a
    # function of the same name)
    einsum_mod = importlib.import_module("repro.tensor.einsum")

    tracer = Tracer()
    tracer.wrap(einsum_mod, "plan_einsum", "tensor.plan")
    tracer.wrap(kernel_mod, "verify_expr", "analysis.streamprops")
    tracer.wrap(kernel_mod, "lower", "compiler.lower")
    tracer.wrap(kernel_mod, "optimize", "compiler.optimize")
    tracer.wrap(codegen_c, "emit_kernel_source", "compiler.emit")
    # the class keeps its identity (isinstance checks): wrap its __init__
    tracer.wrap(codegen_c.CKernel, "__init__", "compiler.cc")
    from repro.compiler import kernel_cache

    tracer.wrap(kernel_cache, "load_payload", "compiler.load_payload")
    return tracer


def trace_compile(run: common.Run, seconds: float, out: Dict[str, float], shares: Dict) -> None:
    import wl_compile

    wl = wl_compile.Compile(run)
    tracer = _compile_tracer()
    per: Dict[str, List[float]] = {}
    walls: List[float] = []
    attributed: List[float] = []
    stmts = code = 0
    t_end = time.perf_counter() + seconds * 0.6
    try:
        for prog in wl.progs:
            if prog["idx"] >= COUNT_PROGRAMS and time.perf_counter() >= t_end:
                break
            ts = wl_compile.tensors_of(prog)
            tracer.take()
            t0 = time.perf_counter()
            plan, kernel = wl_compile.compile_one(prog, ts)
            walls.append(time.perf_counter() - t0)
            spans = tracer.take()
            attributed.append(sum(sum(v) for k, v in spans.items()
                                  if k != "compiler.load_payload") / walls[-1])
            for k, v in spans.items():
                per.setdefault(k, []).append(sum(v))
            if prog["idx"] < COUNT_PROGRAMS:
                stmts += ir_stmts(kernel.loop_ir)
                code += len(kernel.source.encode())
            got = wl_compile.run_kernel(plan, kernel)
            run.check(wl_compile.agree(prog, got, wl_compile.reference(prog)),
                      f"compile traced draw{prog['idx']}")
    finally:
        tracer.restore()
    out["tensor.plan_us"] = _med(per.get("tensor.plan", [])) * 1e6
    out["analysis.streamprops_us"] = _med(per.get("analysis.streamprops", [])) * 1e6
    for name, key in (("compiler.lower_ms", "compiler.lower"),
                      ("compiler.optimize_ms", "compiler.optimize"),
                      ("compiler.emit_ms", "compiler.emit"),
                      ("compiler.cc_ms", "compiler.cc")):
        out[name] = _med(per.get(key, [])) * 1e3
    out["compiler.ir_stmts"] = stmts
    out["compiler.code_bytes"] = code
    shares["unattributed"]["compile"] = 1 - _med(attributed)

    # restores in a fresh process, traced there
    count = len(walls)
    res = common.run_child(
        [str(common.HERE / "child.py"), "ladder", str(wl.draw_path), str(wl.so), str(count)],
        run.child_env(), timeout=120)
    out["compiler.cache_restore_ms"] = _med(res["restore_s"]) * 1e3
    lookups = res["disk_hits"] + res["misses"] + res["memory_hits"]
    out["compiler.cache_hit_ratio"] = (res["disk_hits"] + res["memory_hits"]) / max(1, lookups)
    run.notes["ladder_compile"] = {"programs": count, "restore": res["count"]}


def child_main(args: List[str]) -> dict:
    """Fresh process: restore the cold programs with spans on the
    restore path (``load_payload`` + ``CKernel``)."""
    import pickle
    from pathlib import Path

    import wl_compile

    progs = pickle.loads(Path(args[0]).read_bytes())[: int(args[2])]
    tracer = _compile_tracer()
    from repro.compiler import kernel_cache

    restore = []
    for prog in progs:
        ts = wl_compile.tensors_of(prog)
        tracer.take()
        wl_compile.compile_one(prog, ts)
        spans = tracer.take()
        restore.append(sum(spans.get("compiler.load_payload", []))
                       + sum(spans.get("compiler.cc", [])))
    st = kernel_cache.stats
    return {"restore_s": restore, "count": len(progs), "disk_hits": st.disk_hits,
            "misses": st.misses, "memory_hits": st.memory_hits}


# ----------------------------------------------------------------------
# serve: spans inside the server process (serve_boot.py)
# ----------------------------------------------------------------------
def trace_serve(run: common.Run, seconds: float, out: Dict[str, float], shares: Dict) -> None:
    import wl_serve

    spans_path = run.dir / "serve_spans.json"
    wl = wl_serve.Serve(run, setup_reps=1,
                        server_argv=[sys.executable, str(common.HERE / "serve_boot.py"),
                                     "--port", "0"])
    server_env = {"PERFBENCH_SPANS": str(spans_path)}
    try:
        srv = wl_serve.boot_server(run, "trace", server_env, wl.server_argv)
        wl.server = srv
        wl.warm_up(srv)
        wl.measure(seconds * 0.6)
        openloop = open_loop(run, srv.addr, wl.docs, wl.meter, seconds * 0.25)
        stats = _get_json(srv.addr, "/stats")
        e2e = _med(wl.meter.get("mix").norm) * 1e3
        raw_p50 = _med(wl.meter.get("mix").raw) * 1e3
        vs_floor = wl.vs_floor()
    finally:
        wl.close()
    data = json.loads(spans_path.read_text())
    sp = data["spans"]
    out["serve.prepare_ms"] = _med(sp.get("serve.prepare", [])) * 1e3
    out["serve.execute_ms"] = _med(sp.get("serve.execute", [])) * 1e3
    out["serve.encode_ms"] = _med(sp.get("serve.encode", [])) * 1e3
    out["serve.wait_ms"] = max(0.0, raw_p50 - out["serve.prepare_ms"] - out["serve.execute_ms"])
    out["autotune.tune_us"] = _med(sp.get("autotune.tune", [])) * 1e6
    hits, misses = data["decision_hits"], data["decision_misses"]
    out["autotune.decision_hit_ratio"] = hits / max(1, hits + misses)
    counters = stats.get("counters", stats)
    requests = counters.get("requests", 0) or 1
    out["serve.shed_ratio"] = counters.get("rejected", 0) / requests
    out["serve.vs_floor"] = vs_floor
    out["serve.openloop_p50_ms"] = openloop["p50_ms"]
    out["serve.generator_lag_ms"] = openloop["lag_ms"]
    out["supervisor.overhead_ms"] = supervisor_overhead(wl.docs)
    shares["unattributed"]["serve"] = max(0.0, 1 - (out["serve.prepare_ms"] + out["serve.execute_ms"]) / raw_p50)
    run.notes["ladder_serve"] = {"stats": stats, "e2e_p50_ms": e2e}


def _get_json(addr, path: str) -> dict:
    import http.client

    c = http.client.HTTPConnection(*addr, timeout=30)
    try:
        c.request("GET", path)
        return json.loads(c.getresponse().read())
    finally:
        c.close()


#: open-loop phase: a fixed low rate well under capacity (~70/s on one
#: connection), so latency here is service time plus queueing noise
OPENLOOP_RATE = 20.0


def open_loop(run, addr, docs, meter, seconds: float) -> dict:
    """Requests sent on a fixed schedule from a thread per request;
    latency counts from the scheduled send time."""
    import threading

    import wl_serve

    n = max(10, int(seconds * OPENLOOP_RATE))
    lat = [0.0] * n
    lag = [0.0] * n
    ok = [True] * n
    speeds = [s for s in (meter.floor_speed() for _ in range(2)) if s]
    t0 = time.perf_counter() + 0.01

    def one(k: int) -> None:
        due = t0 + k / OPENLOOP_RATE
        c = wl_serve.Client(addr)
        try:
            lag[k] = time.perf_counter() - due
            body, want, nn = docs[k % len(docs)]
            status, payload = c.post(body)
            lat[k] = time.perf_counter() - due
            ok[k] = wl_serve.check_reply(status, payload, want, nn)
        finally:
            c.close()

    threads = []
    for k in range(n):
        delay = t0 + k / OPENLOOP_RATE - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        th = threading.Thread(target=one, args=(k,))
        th.start()
        threads.append(th)
    for th in threads:
        th.join()
    speeds += [s for s in (meter.floor_speed() for _ in range(2)) if s]
    speed = sum(speeds) / len(speeds) if speeds else 1.0
    for k in range(n):
        run.check(ok[k], "serve open-loop reply")
    return {"p50_ms": _med(lat) / speed * 1e3, "lag_ms": _med(lag) * 1e3}


def supervisor_overhead(docs) -> float:
    """Supervised minus in-process run of the same queries, in the
    benchmark process (the server's path: ``Kernel.run(supervised=True)``)."""
    from repro.serve.query import prepare_request

    diffs = []
    for body, _, _ in docs[:12]:
        prepared = prepare_request(json.loads(body), "off")
        kernel = prepared.plan.build()
        inputs = prepared.plan.inputs
        kernel.run(inputs, parallel=False, supervised=False)
        sup, plain = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            kernel.run(inputs, parallel=False, supervised=True, auto_grow=True)
            sup.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            kernel.run(inputs, parallel=False, supervised=False, auto_grow=True)
            plain.append(time.perf_counter() - t0)
        diffs.append(_med(sup) - _med(plain))
    return _med(diffs) * 1e3


# ----------------------------------------------------------------------
# sharded: plan_shards, export_tensor, run_call, merge, journal
# ----------------------------------------------------------------------
def trace_sharded(run: common.Run, seconds: float, out: Dict[str, float], shares: Dict) -> None:
    import wl_sharded
    from repro.runtime import api, governor, jobs, pool, shm

    wl = wl_sharded.Sharded(run, setup_reps=1)
    tracer = Tracer()
    dispatch: List[float] = []
    try:
        wl.setup()
        original = pool.WorkerPool.run_call

        def run_call(self, *args, **kwargs):
            t0 = time.perf_counter()
            res = original(self, *args, **kwargs)
            dispatch.append(time.perf_counter() - t0 - res[1])
            return res

        tracer.wrap(api, "plan_shards", "planner.plan")
        tracer.wrap(shm, "export_tensor", "shm.export")
        tracer.wrap(governor, "merge_partials", "merge.merge")
        for m in ("ensure", "write_shard", "completed", "discard", "touch", "load_shard"):
            tracer.wrap(jobs.JobJournal, m, "jobs.journal")
        pool.WorkerPool.run_call = run_call
        per: Dict[str, List[float]] = {}
        imbalance: List[float] = []
        speedup: List[float] = []
        t_end = time.perf_counter() + seconds
        try:
            while time.perf_counter() < t_end:
                for job in wl.jobs:
                    sharded, serial = [], []
                    for kind, durable in wl_sharded.PATTERN:
                        if kind == "fresh":
                            job.operands = job.fresh()
                        st: list = []
                        tracer.take()
                        t0 = time.perf_counter()
                        res = job.sharded(job.operands, durable, st)
                        sharded.append(time.perf_counter() - t0)
                        run.check(job.agree(res, job.ref), f"sharded traced {job.name}")
                        spans = tracer.take()
                        for k, v in spans.items():
                            if k == "shm.export" and kind != "fresh":
                                continue
                            if k == "jobs.journal" and not durable:
                                continue
                            per.setdefault(k, []).append(sum(v))
                        secs = [s.seconds for s in st if not s.skipped]
                        if secs:
                            imbalance.append(max(secs) / (sum(secs) / len(secs)))
                        t0 = time.perf_counter()
                        job.serial(job.operands)
                        serial.append(time.perf_counter() - t0)
                    speedup.append(_med(serial) / _med(sharded))
        finally:
            pool.WorkerPool.run_call = original
            tracer.restore()
        out["planner.plan_us"] = _med(per.get("planner.plan", [])) * 1e6
        out["shm.export_us"] = _med(per.get("shm.export", [])) * 1e6
        out["pool.dispatch_ms"] = _med(dispatch) * 1e3
        out["merge.merge_ms"] = _med(per.get("merge.merge", [])) * 1e3
        out["shard.imbalance"] = _med(imbalance)
        out["sharded.speedup_vs_serial"] = common.geomean(speedup)
        out["jobs.journal_ms"] = _med(per.get("jobs.journal", [])) * 1e3
    finally:
        wl.close()


def main(run: common.Run) -> None:
    per = run.seconds / 4
    out: Dict[str, float] = {}
    shares: Dict[str, Dict[str, float]] = {"overhead": {}, "unattributed": {}}
    trace_kernels(run, per, out, shares)
    trace_compile(run, per, out, shares)
    trace_serve(run, per, out, shares)
    trace_sharded(run, per, out, shares)
    speeds = [s for m in run.meters for s in m.speeds]
    out["bench.speed_factor"] = _med(speeds)
    out["bench.floor_tracking"] = _med([t[0] for m in run.meters for t in m.tracking()])
    out["trace.overhead_ratio"] = shares["overhead"]["kernels"]
    out["trace.unattributed_share"] = max(shares["unattributed"].values())
    run.notes["ladder_shares"] = shares
    run.metrics.clear()
    run.raw_metrics.clear()
    run.metrics.update(out)
