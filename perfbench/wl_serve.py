"""``serve``: ``python -m repro.serve`` in its default configuration
(tune=auto, fork supervision) under a seeded mix of small einsum queries.

The mix: matmul ``ij,jk->ik``, spmv ``ij,j->i`` and the elementwise
product ``ij,ij->ij`` at n in {4, 8, 16, 32} (4×4 to 32×32),
``VARIANTS`` operand sets each, density 0.3, values in [0.5, 1.5).
Set-up boots the server and sends every document once, so measurement
runs on warm kernel and decision caches.

Measured, all from one client process:

* ``p50_ms``/``tail_ms``: closed loop over one connection, documents in
  seeded order; each request is one window, followed by the floor.
* ``warm_p50_ms``: one document repeated back to back.
* ``throughput_per_s``: ``nproc`` closed-loop connections, a fixed
  batch of requests, alternated with the same batch on the floor server.
* ``vs_baseline``: request time over the floor server's request time
  around it (``serve.vs_floor`` in the traced run).
* ``peak_rss_mb``: the server's VmHWM.  ``setup_s``: boot to ready plus
  the warm-up pass.

The floor is ``floor_server.py``: a benchmark-owned asyncio server that
decodes the same JSON, forks a child per request to run
``numpy.einsum``, and encodes the reply.  Every reply of both servers is
checked against dense ``numpy.einsum`` within γ_n·Σ|terms| (positive
values, so Σ|terms| is the reference itself).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import common
import floors

SPECS = ("ij,jk->ik", "ij,j->i", "ij,ij->ij")
SIZES = (4, 8, 16, 32)
#: operand sets per (spec, size): 72 documents, all seen in set-up, so
#: measurement never compiles and still varies the operands
VARIANTS = 6
#: sparse enough that the sparse levels skip, dense enough that every
#: 4×4 operand has entries
DENSITY = 0.3
#: set-up repetitions (each boots a server and warms it, ~2 s): the
#: median of three
SETUP_REPS = 3
#: requests per connection in one throughput batch: ~50 ms of load,
#: several request times, so ramp-up and drain stay a small share
TPUT_BATCH = 6


# ----------------------------------------------------------------------
# documents and their references
# ----------------------------------------------------------------------
def _operand(rng, dims) -> Tuple[dict, np.ndarray]:
    total = int(np.prod(dims))
    nnz = max(1, int(DENSITY * total))
    flat = np.sort(rng.choice(total, size=nnz, replace=False))
    vals = rng.random(nnz) + 0.5
    dense = np.zeros(total)
    dense[flat] = vals
    coords = np.stack(np.unravel_index(flat, dims), axis=1)
    entries = [[[int(c) for c in cs], float(v)] for cs, v in zip(coords, vals)]
    return {"entries": entries, "dims": list(dims)}, dense.reshape(dims)


def make_docs(seed: int) -> List[Tuple[bytes, np.ndarray, int]]:
    """``(body, expected dense result, contraction length)``, in the
    seeded order the closed loop cycles through."""
    rng = np.random.default_rng(seed)
    docs = []
    for spec in SPECS:
        lhs = spec.split("->")[0].split(",")
        for n in SIZES:
            for _ in range(VARIANTS):
                objs, dense = zip(*(_operand(rng, (n,) * len(l)) for l in lhs))
                body = json.dumps({"kind": "einsum", "spec": spec,
                                   "operands": list(objs)}).encode()
                contracted = n if spec != "ij,ij->ij" else 1
                docs.append((body, np.einsum(spec, *dense), contracted))
    order = rng.permutation(len(docs))
    return [docs[k] for k in order]


def check_reply(status: int, payload: bytes, want: np.ndarray, n: int) -> bool:
    if status != 200:
        return False
    res = json.loads(payload)["result"]
    got = np.zeros(want.shape)
    for e in res["entries"]:
        got[tuple(e[:-1])] = e[-1]
    return bool(np.all(np.abs(got - want) <= common.gamma(n) * np.abs(want)))


# ----------------------------------------------------------------------
# processes and clients
# ----------------------------------------------------------------------
class Proc:
    """A server process started by the benchmark, ready-line parsed."""

    def __init__(self, argv: List[str], env: Dict[str, str], ready: str, log: Path) -> None:
        self.log = open(log, "ab")
        self.p = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=self.log)
        line = self.p.stdout.readline().decode()
        while line and not line.startswith(ready):
            line = self.p.stdout.readline().decode()
        if not line:
            self.p.wait(timeout=10)
            raise RuntimeError(f"{argv} exited {self.p.returncode} before {ready}")
        host, _, port = line.split()[1].rpartition(":")
        self.addr = (host, int(port))
        self.pid = self.p.pid

    def stop(self, timeout: float = 30.0) -> Optional[int]:
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGTERM)
        try:
            code = self.p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.p.kill()
            code = self.p.wait()
        self.p.stdout.close()
        self.log.close()
        return code


class Client:
    def __init__(self, addr) -> None:
        self.conn = http.client.HTTPConnection(*addr, timeout=60)

    def post(self, body: bytes) -> Tuple[int, bytes]:
        self.conn.request("POST", "/query", body, {"Content-Type": "application/json"})
        r = self.conn.getresponse()
        return r.status, r.read()

    def close(self) -> None:
        self.conn.close()


def boot_server(run: common.Run, tag: str, env_extra: Dict[str, str],
                argv: Optional[List[str]] = None) -> Proc:
    env = run.child_env(
        REPRO_KERNEL_CACHE_DIR=str(run.fresh_dir(f"kcache_{tag}")),
        REPRO_TUNE_CACHE_DIR=str(run.fresh_dir(f"tune_{tag}")),
        REPRO_JOB_DIR=str(run.fresh_dir(f"jobs_{tag}")),
        **env_extra)
    argv = argv or [sys.executable, "-m", "repro.serve", "--port", "0"]
    return Proc(argv, env, "REPRO_SERVE_READY", run.dir / f"server_{tag}.log")


class FloorServer:
    """The floor: ``nominal["serve"]["requests"]`` requests, closed loop."""

    def __init__(self, run: common.Run, nom: dict) -> None:
        self.proc = Proc([sys.executable, str(common.HERE / "floor_server.py")],
                         run.child_env(), "FLOOR_READY", run.dir / "floor_server.log")
        run.guard.floor_pids.add(self.proc.pid)
        self.client = Client(self.proc.addr)
        # the floor's queries are fixed: the same mix, never the run's seed
        self.docs = make_docs(floors.FLOOR_SEED)
        self.reqs = nom["requests"]

    def __call__(self) -> Tuple[bool, float]:
        ok = True
        for k in range(self.reqs):  # the same documents every window
            body, want, n = self.docs[k]
            status, payload = self.client.post(body)
            ok = ok and check_reply(status, payload, want, n)
        return ok, 0.0

    def close(self) -> None:
        self.client.close()
        self.proc.stop()


def load_batch(addr, docs, start: int, conns: int, floor_tids=None) -> Tuple[float, bool]:
    """``conns`` closed-loop connections × ``TPUT_BATCH`` requests;
    returns (seconds, all replies correct).  ``floor_tids`` collects the
    client threads' ids when the batch is floor work."""
    oks = [True] * conns
    clients = [Client(addr) for _ in range(conns)]

    def worker(c: int) -> None:
        if floor_tids is not None:
            floor_tids.add(threading.get_native_id())
        for r in range(TPUT_BATCH):
            body, want, n = docs[(start + c * TPUT_BATCH + r) % len(docs)]
            status, payload = clients[c].post(body)
            oks[c] = oks[c] and check_reply(status, payload, want, n)

    threads = [threading.Thread(target=worker, args=(c,)) for c in range(conns)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    dt = time.perf_counter() - t0
    for c in clients:
        c.close()
    return dt, all(oks)


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
class Serve:
    def __init__(self, run: common.Run, setup_reps: int = SETUP_REPS,
                 server_argv: Optional[List[str]] = None) -> None:
        self.run = run
        self.docs = make_docs(run.seed)
        #: the repeated document: the first 16×16 matmul of the mix, so
        #: its shape is the same under every seed
        self.warm_doc = next(k for k, (body, want, _) in enumerate(self.docs)
                             if want.shape == (16, 16) and b'"ij,jk->ik"' in body)
        nom = floors.nominal()
        self.floor = FloorServer(run, nom["serve"])
        self.meter = run.meter("serve", self.floor, nom["serve"]["nominal_s"])
        self.conns = os.cpu_count() or 1
        self.tput_nominal = nom["serve_tput"]["nominal_s"]
        self.tput_floor = lambda: self._tput_floor()
        self.tput_meter = run.meter("serve_tput", self.tput_floor, self.tput_nominal)
        self.setup_reps = setup_reps
        self.server_argv = server_argv
        self.server: Optional[Proc] = None

    def _tput_floor(self) -> Tuple[bool, float]:
        dt, ok = load_batch(self.floor.proc.addr, self.floor.docs, 0, self.conns,
                            self.run.guard.floor_tids)
        return ok, 0.0

    def warm_up(self, server: Proc) -> None:
        client = Client(server.addr)
        try:
            for body, want, n in self.docs:
                status, payload = client.post(body)
                self.run.check(check_reply(status, payload, want, n), "serve warm-up reply")
        finally:
            client.close()

    def setup(self) -> None:
        run = self.run
        setups, raws, rss = [], [], []
        for rep in range(self.setup_reps):
            def boot():
                srv = boot_server(run, f"setup{rep}", {}, self.server_argv)
                self.warm_up(srv)
                return srv

            raw, speed, srv = common.timed_around(self.meter, boot)
            setups.append(raw / speed)
            raws.append(raw)
            if rep < self.setup_reps - 1:
                rss.append(common.vm_hwm_mb(srv.pid))
                run.check(srv.stop() == 0, "serve clean drain exit")
            else:
                self.server = srv
        run.notes["serve_setup_s"] = setups
        self.setup_s = common.median(setups)
        run.raw_metrics["setup_s"] = common.median(raws)
        self.rss_prior = rss

    def measure(self, seconds: float) -> None:
        run, meter = self.run, self.meter
        client = Client(self.server.addr)
        docs = self.docs
        t_end = time.perf_counter() + seconds
        k = 0
        try:
            while time.perf_counter() < t_end:
                # six mix windows, two warm ones, one throughput pair
                for _ in range(6):
                    body, want, n = docs[k % len(docs)]
                    k += 1
                    self._window("mix", client, body, want, n)
                for _ in range(2):
                    body, want, n = docs[self.warm_doc]
                    self._window("warm", client, body, want, n)
                dt, ok = load_batch(self.server.addr, docs, k, self.conns)
                run.check(ok, "serve throughput replies")
                self.tput_meter.commit({"tput": [dt]})
        finally:
            client.close()

    def _window(self, label: str, client: Client, body: bytes, want, n: int) -> None:
        t0 = time.perf_counter()
        status, payload = client.post(body)
        dt = time.perf_counter() - t0
        self.run.check(check_reply(status, payload, want, n), f"serve {label} reply")
        self.meter.commit({label: [dt]})

    def vs_floor(self) -> float:
        """Request time over the floor server's request time around it."""
        per_request = self.meter.nominal_s / self.floor.reqs
        return common.median(self.meter.get("mix").norm) / per_request

    def metrics(self) -> None:
        run, meter = self.run, self.meter
        reqs = self.conns * TPUT_BATCH
        for mode in ("norm", "raw"):
            out = run.metrics if mode == "norm" else run.raw_metrics
            mix = getattr(meter.get("mix"), mode)
            out["p50_ms"] = common.median(mix) * 1e3
            out["tail_ms"] = common.tail(mix)[0] * 1e3
            out["warm_p50_ms"] = common.median(getattr(meter.get("warm"), mode)) * 1e3
            out["throughput_per_s"] = reqs / common.median(getattr(self.tput_meter.get("tput"), mode))
            out["vs_baseline"] = self.vs_floor()
        run.metrics["setup_s"] = self.setup_s
        rss = self.rss_prior + [common.vm_hwm_mb(self.server.pid)]
        run.notes["serve_rss_mb"] = rss
        run.metrics["peak_rss_mb"] = common.median(rss)
        run.notes["serve_samples"] = {
            "mix": len(meter.get("mix").norm),
            "tail_pct": common.tail(meter.get("mix").norm)[1],
            "warm": len(meter.get("warm").norm),
            "tput_batches": len(self.tput_meter.get("tput").norm),
        }

    def close(self) -> None:
        if self.server is not None:
            self.run.check(self.server.stop() == 0, "serve clean drain exit")
            self.server = None
        self.floor.close()


def main(run: common.Run) -> None:
    wl = Serve(run)
    try:
        wl.setup()
        wl.measure(run.seconds)
        wl.metrics()
    finally:
        wl.close()
