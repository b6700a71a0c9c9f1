"""``sharded``: ``Kernel.run_sharded(executor="pool", workers=nproc)``.

Four kernels of about 20 ms each (serial, on the reference host), a
free and a contracted split over real-valued ℝ and over ℕ:

* ``free_*``: C(i,k) = Σ_j A(i,j)·B(j,k), CSR×CSR at n=1500, d=0.01
  (~340k products), split on the free index i; shards concatenate.
* ``contr_*``: G(j,k) = Σ_i A(i,j)·B(i,k) with 20000 rows of 25
  nonzeros over 200 columns (~12.5M products), split on the contracted
  index i; dense partials are ⊕-reduced.

Each round runs every kernel through a fixed pattern of jobs (see
``PATTERN``): a fresh operand set (new shared-memory exports), repeats
of it (exports reused), and one durable job (journal writes).

The floor runs the benchmark's C row loop over a row split in ``nproc``
benchmark-owned processes (``floors.ShardFloor``); it is also the
hand-written baseline of ``vs_baseline``.  The serial in-process run of
the same kernels is measured in the traced run
(``sharded.speedup_vs_serial``).

Correctness: every job is compared with a numpy reference — exactly
for ℕ, within γ_n·Σ|terms| for ℝ (contracted splits reassociate ⊕; the
values are positive, so Σ|terms| is the reference itself).  The numpy
reference is itself checked against ``repro.lang.denotation`` on a
small instance of each kernel: the denotation expands broadcasts over
the finite domain, so it cannot run at full size.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

import common
import floors

FREE_N, FREE_D = 1500, 0.01
CONTR_ROWS, CONTR_COLS, CONTR_PER_ROW = 20000, 200, 25
#: per round and kernel: (operands, durable).  Two durable jobs in five
#: keep the durable share (40%) above 1 − the tail quantile (p60 from 25
#: jobs per kernel up; a 10 s run makes ~45), so ``tail_ms`` reflects
#: the journal.
PATTERN = (("fresh", False), ("repeat", False), ("repeat", True), ("repeat", False),
           ("repeat", True))
SETUP_REPS = 3


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for sr in ("R", "N"):
        A = floors.csr(FREE_N, FREE_N, FREE_D, rng)
        B = floors.csr(FREE_N, FREE_N, FREE_D, rng)
        C = floors.csr(CONTR_ROWS, CONTR_COLS, CONTR_PER_ROW / CONTR_COLS, rng)
        D = floors.csr(CONTR_ROWS, CONTR_COLS, CONTR_PER_ROW / CONTR_COLS, rng)
        if sr == "N":  # ℕ: small naturals, so sums stay exact in int64
            A, B, C, D = (_naturals(M, rng) for M in (A, B, C, D))
        out[f"free_{sr}"] = (A, B)
        out[f"contr_{sr}"] = (C, D)
    return out


def _naturals(M, rng):
    pos, crd, vals = M
    return pos, crd, rng.integers(1, 10, size=len(vals)).astype(np.int64)


def _tensor(M, attrs, dims, semiring, copy=False):
    from repro.data.tensor import Tensor

    pos, crd, vals = M
    if copy:
        pos, crd, vals = pos.copy(), crd.copy(), vals.copy()
    return Tensor(attrs, ("dense", "sparse"), dims, {1: pos}, {1: crd}, vals, semiring)


class Job:
    """One kernel of the workload: its program state and reference."""

    def __init__(self, name: str, mats) -> None:
        from repro.semirings import FLOAT, NAT

        self.name = name
        self.mats = mats
        self.semiring = NAT if name.endswith("_N") else FLOAT
        self.free = name.startswith("free")
        if self.free:
            self.attrs = (("i", "j"), ("j", "k"))
            self.dims = ((FREE_N, FREE_N), (FREE_N, FREE_N))
            A, B = mats
            self.capacity = int(np.diff(B[0])[A[1]].sum())  # products: exact bound
            self.n_terms = FREE_N
        else:
            self.attrs = (("i", "j"), ("i", "k"))
            self.dims = ((CONTR_ROWS, CONTR_COLS), (CONTR_ROWS, CONTR_COLS))
            self.capacity = None
            self.n_terms = CONTR_ROWS
        self.operands = self.fresh()

    def fresh(self) -> Dict[str, object]:
        return {v: _tensor(M, a, d, self.semiring, copy=True)
                for v, M, a, d in zip("AB", self.mats, self.attrs, self.dims)}

    def build(self):
        from repro.compiler.kernel import OutputSpec, compile_kernel
        from repro.krelation import Schema
        from repro.lang import Sum, TypeContext, Var

        S = Schema.of(i=None, j=None, k=None)
        ctx = TypeContext(S, {"A": set(self.attrs[0]), "B": set(self.attrs[1])})
        if self.free:
            expr = Sum("j", Var("A") * Var("B"))
            out = OutputSpec(("i", "k"), ("dense", "sparse"), (FREE_N, FREE_N))
        else:
            expr = Sum("i", Var("A") * Var("B"))
            out = OutputSpec(("j", "k"), ("dense", "dense"), (CONTR_COLS, CONTR_COLS))
        return compile_kernel(expr, ctx, self.operands, out, semiring=self.semiring,
                              name=f"sharded_{self.name}")

    def sharded(self, operands, durable: bool, stats_out=None):
        return self.kernel.run_sharded(
            operands, capacity=self.capacity, executor="pool",
            workers=os.cpu_count(), durable=durable, stats_out=stats_out)

    def serial(self, operands):
        return self.kernel.run(operands, capacity=self.capacity, parallel=False,
                               supervised=False)

    # -- reference -------------------------------------------------------
    def reference(self):
        return reference(self.free, self.mats, self.semiring.name)

    def agree(self, result, ref) -> bool:
        got = canon(result, self.free)
        if len(got) != len(ref):
            return False
        for a, b in zip(got[:-1], ref[:-1]):
            if a.shape != b.shape or not np.array_equal(a, b):
                return False
        a, b = got[-1], ref[-1]
        if a.shape != b.shape:
            return False
        if self.semiring.name != "float":
            return bool(np.array_equal(a.astype(np.int64), b))
        return bool(np.all(np.abs(a - b) <= common.gamma(self.n_terms) * np.abs(b)))


def reference(free: bool, mats, semiring_name: str, cols: int = 0):
    """Independent numpy semantics of the two kernels (see module doc)."""
    A, B = mats
    exact = semiring_name != "float"
    if free:
        n = len(A[0]) - 1
        m = len(B[0]) - 1
        # every product A(i,j)·B(j,k), then summed per (i,k)
        counts = np.diff(B[0])[A[1]]
        i = np.repeat(np.repeat(np.arange(n), np.diff(A[0])), counts)
        aval = np.repeat(A[2], counts)
        starts = np.repeat(B[0][A[1]], counts)
        offs = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
        bidx = starts + offs
        k = B[1][bidx]
        prod = aval * B[2][bidx]
        key = i * m + k
        order = np.argsort(key, kind="stable")
        key, prod = key[order], prod[order]
        uniq, first = np.unique(key, return_index=True)
        sums = np.add.reduceat(prod, first) if len(prod) else prod
        return (uniq // m, uniq % m, sums.astype(np.int64) if exact else sums)
    # dense float64 matmul: exact for ℕ too, since every partial sum is
    # an integer far below 2**53
    cols = cols or CONTR_COLS
    Ad, Bd = _dense(A, cols), _dense(B, cols)
    G = Ad.T @ Bd
    return (np.rint(G).astype(np.int64).ravel() if exact else G.ravel(),)


def _dense(M, cols: int) -> np.ndarray:
    pos, crd, vals = M
    d = np.zeros((len(pos) - 1, cols))
    d[np.repeat(np.arange(len(pos) - 1), np.diff(pos)), crd] = vals
    return d


def canon(result, free: bool):
    if free:
        pos = result.pos[1]
        nnz = int(pos[-1])
        rows = np.repeat(np.arange(result.dims[0]), np.diff(pos))
        vals = np.asarray(result.vals)[:nnz]
        keep = vals != 0
        return rows[keep], result.crd[1][:nnz][keep], vals[keep]
    return (np.asarray(result.vals).ravel(),)


def check_reference_against_denotation(run: common.Run) -> None:
    """The numpy reference equals ``repro.lang.denotation`` on a small
    instance of each kernel and semiring."""
    from repro.data import tensor_to_krelation
    from repro.data.tensor import Tensor
    from repro.krelation import Attribute, Schema
    from repro.lang import Sum, TypeContext, Var, denote
    from repro.semirings import FLOAT, NAT

    rng = np.random.default_rng(run.seed)
    n = 8
    for free in (True, False):
        for sr in (FLOAT, NAT):
            A = floors.csr(n, n, 0.3, rng)
            B = floors.csr(n, n, 0.3, rng)
            if sr is NAT:
                A, B = _naturals(A, rng), _naturals(B, rng)
            S = Schema(Attribute(a, range(n)) for a in ("i", "j", "k"))
            at = ("i", "j")
            bt = ("j", "k") if free else ("i", "k")
            ta = Tensor(at, ("dense", "sparse"), (n, n), {1: A[0]}, {1: A[1]}, A[2], sr)
            tb = Tensor(bt, ("dense", "sparse"), (n, n), {1: B[0]}, {1: B[1]}, B[2], sr)
            ctx = TypeContext(S, {"A": set(at), "B": set(bt)})
            expr = Sum("j" if free else "i", Var("A") * Var("B"))
            truth = denote(expr, ctx, {"A": tensor_to_krelation(ta, S),
                                       "B": tensor_to_krelation(tb, S)})
            if free:
                rows, cols, vals = reference(True, (A, B), sr.name)
                got = {(int(r), int(c)): v for r, c, v in zip(rows, cols, vals)}
            else:
                (flat,) = reference(False, (A, B), sr.name, cols=n)
                got = {(int(p // n), int(p % n)): v for p, v in enumerate(flat) if v}
            want = {k: v for k, v in truth.support.items() if v != sr.zero}
            ok = set(got) == set(want) and all(
                abs(got[k] - want[k]) <= 1e-12 * abs(want[k]) for k in want)
            run.check(ok, f"sharded numpy reference vs denotation ({'free' if free else 'contracted'}, {sr.name})")


def program_rss_mb() -> float:
    """The benchmark process (at this point holding only program state)
    plus every live program child: the pool workers."""
    total = common.vm_hwm_mb(os.getpid()) or 0.0
    for p in common.descendants(os.getpid()):
        total += common.vm_hwm_mb(p) or 0.0
    return total


def program_setup(jobs: List[Job]) -> None:
    """Compile every kernel, start and warm the pool (one sharded run
    each, exporting its operands)."""
    for job in jobs:
        job.kernel = job.build()
        job.sharded(job.operands, durable=False)


def _shutdown_pool() -> None:
    from repro.runtime.executor import shutdown_shared_runtime

    shutdown_shared_runtime()


def child_setup(args: List[str]) -> dict:
    inputs_path, so_path = args
    nom = floors.nominal()["sharded"]
    sf = floors.ShardFloor(Path(so_path), os.cpu_count(), nom["reps"], dict(os.environ),
                           nom["serial_reps"])
    try:
        inp = pickle.loads(Path(inputs_path).read_bytes())
        jobs = [Job(name, mats) for name, mats in inp.items()]
        speeds = []
        for _ in range(2):
            t0 = time.perf_counter()
            sf()
            speeds.append((time.perf_counter() - t0) / nom["nominal_s"])
        t0 = time.perf_counter()
        program_setup(jobs)
        raw = time.perf_counter() - t0
        for _ in range(2):
            t0 = time.perf_counter()
            sf()
            speeds.append((time.perf_counter() - t0) / nom["nominal_s"])
        for job in jobs:
            for _, durable in PATTERN:
                job.sharded(job.fresh(), durable)
        rss = 0.0
        for p in common.descendants(os.getpid(), sf.pids):
            rss += common.vm_hwm_mb(p) or 0.0
        rss += common.vm_hwm_mb(os.getpid()) or 0.0
        _shutdown_pool()
    finally:
        sf.close()
    return {"raw_s": raw, "speed": sum(speeds) / len(speeds), "rss_mb": rss}


class Sharded:
    def __init__(self, run: common.Run, setup_reps: int = SETUP_REPS) -> None:
        self.run = run
        self.so = floors.build_lib(run.work)
        nom = floors.nominal()["sharded"]
        self.floor = floors.ShardFloor(self.so, os.cpu_count(), nom["reps"], run.child_env(),
                                       nom["serial_reps"])
        run.guard.floor_pids |= self.floor.pids
        self.meter = run.meter("sharded", self.floor, nom["nominal_s"])
        self.setup_reps = setup_reps
        self.jobs: List[Job] = []

    def setup(self) -> None:
        run = self.run
        inp = make_inputs(run.seed)
        setups: List[float] = []
        raws: List[float] = []
        rss: List[float] = []
        if self.setup_reps > 1:
            path = run.dir / "sharded_inputs.pkl"
            path.write_bytes(pickle.dumps(inp))
            for k in range(self.setup_reps - 1):
                env = run.child_env(
                    REPRO_KERNEL_CACHE_DIR=str(run.fresh_dir(f"kcache_setup{k}")),
                    REPRO_JOB_DIR=str(run.fresh_dir(f"jobs_setup{k}")))
                out = common.run_child(
                    [str(common.HERE / "child.py"), "wl_sharded", str(path), str(self.so)],
                    env, timeout=150)
                setups.append(out["raw_s"] / out["speed"])
                raws.append(out["raw_s"])
                rss.append(out["rss_mb"])
        self.jobs = [Job(name, mats) for name, mats in inp.items()]
        raw, speed, _ = common.timed_around(self.meter, lambda: program_setup(self.jobs))
        setups.append(raw / speed)
        raws.append(raw)
        for job in self.jobs:
            for _, durable in PATTERN:
                job.sharded(job.fresh(), durable)
        rss.append(program_rss_mb())
        run.notes["sharded_setup_s"] = setups
        run.notes["sharded_rss_mb"] = rss
        self.setup_s = common.median(setups)
        run.raw_metrics["setup_s"] = common.median(raws)
        self.rss_mb = common.median(rss)
        check_reference_against_denotation(run)
        for job in self.jobs:
            job.ref = job.reference()
            st: list = []
            run.check(job.agree(job.sharded(job.operands, False, st), job.ref),
                      f"sharded {job.name} first job")
            job.plan = {"shards": len(st), "split": "free" if job.free else "contracted"}
        run.notes["sharded_plans"] = {j.name: j.plan for j in self.jobs}

    def one(self, label: str, fn, job: Job, pending: Dict[str, List[float]]):
        t0 = time.perf_counter()
        out = fn()
        pending.setdefault(label, []).append(time.perf_counter() - t0)
        self.run.check(job.agree(out, job.ref), f"sharded {label}")

    def measure(self, seconds: float) -> None:
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            for job in self.jobs:
                for kind, durable in PATTERN:
                    if kind == "fresh":
                        job.operands = job.fresh()
                    label = f"{job.name}/{'durable' if durable else kind}"
                    pending: Dict[str, List[float]] = {}
                    self.one(label, lambda: job.sharded(job.operands, durable), job, pending)
                    self.meter.commit(pending)

    def metrics(self) -> None:
        run, meter = self.run, self.meter
        kinds = ("fresh", "repeat", "durable")
        for mode in ("norm", "raw"):
            p50, tl, warm, vs, calls, busy = [], [], [], [], 0, 0.0
            for job in self.jobs:
                xs = [x for k in kinds for x in getattr(meter.get(f"{job.name}/{k}"), mode)]
                # per job kind: a median over the mixed pattern would sit
                # on the boundary between the kinds' modes
                p50 += [common.median(getattr(meter.get(f"{job.name}/{k}"), mode)) for k in kinds]
                # job over the floor around its window
                vs += [common.median(meter.get(f"{job.name}/{k}").norm) / meter.nominal_s
                       for k in kinds]
                tl.append(common.tail(xs)[0])
                warm.append(common.median(getattr(meter.get(f"{job.name}/repeat"), mode)))
                calls += len(xs)
                busy += sum(xs)
            out = run.metrics if mode == "norm" else run.raw_metrics
            out["p50_ms"] = common.geomean(p50) * 1e3
            out["tail_ms"] = common.geomean(tl) * 1e3
            out["warm_p50_ms"] = common.geomean(warm) * 1e3
            out["vs_baseline"] = common.geomean(vs)
            out["throughput_per_s"] = calls / busy
        run.metrics["setup_s"] = self.setup_s
        run.metrics["peak_rss_mb"] = self.rss_mb
        run.notes["sharded_jobs"] = {
            job.name: {"jobs": sum(len(meter.get(f"{job.name}/{k}").norm) for k in kinds),
                       "tail_pct": common.tail_percentile(
                           sum(len(meter.get(f"{job.name}/{k}").norm) for k in kinds))}
            for job in self.jobs
        }

    def close(self) -> None:
        self.jobs = []
        _shutdown_pool()
        self.floor.close()


def main(run: common.Run) -> None:
    wl = Sharded(run)
    try:
        wl.setup()
        wl.measure(run.seconds)
        wl.metrics()
    finally:
        wl.close()
