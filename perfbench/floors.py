"""The floors: fixed, benchmark-owned work that measures host speed.

No floor imports ``repro``.  Each floor checks its own output, and each
does the same kind of work as the program it normalizes:

* ``KernelFloor`` — C CSR row loops, a sorted merge and an intersection
  over a fixed n=1000, d=0.01 pair of matrices, through ctypes with
  numpy output allocation (the shape of ``Kernel.run``).
* ``CompileFloor`` — a pure-Python tree rewrite plus a gcc build of
  ``floor.c`` (the shape of a cold compile).
* ``RestoreFloor`` — the tree rewrite plus loading a fresh copy of a
  shared object (the shape of a disk-tier restore).
* the serve floor lives in ``floor_server.py`` and the sharded floor in
  ``floor_worker.py``; both run in their own processes.

``nominal.json`` holds each floor's time on the reference host
(``python3 perfbench/calibrate.py`` measures it again).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import random
import shutil
import subprocess
import time
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
FLOOR_C = HERE / "floor.c"
NOMINAL = HERE / "nominal.json"

#: floor inputs are fixed: they never depend on the run's --seed
FLOOR_SEED = 20230617
#: the Fig. 17 middle cell (n=1000, d=0.01): the kernels' typical size
FLOOR_N = 1000
FLOOR_DENSITY = 0.01

_i64p = ctypes.POINTER(ctypes.c_int64)
_f64p = ctypes.POINTER(ctypes.c_double)


def nominal() -> Dict[str, dict]:
    return json.loads(NOMINAL.read_text())


def gcc_build(src: Path, out: Path, flags=("-O2",)) -> Tuple[bool, float]:
    """Build ``src`` into shared object ``out``; ``(ok, child_cpu_s)``.

    Spawned and reaped here, so its CPU is known exactly and the guard
    can leave it out of the program's share."""
    tmp = out.with_name(out.name + f".{os.getpid()}.tmp")
    argv = ["gcc", *flags, "-shared", "-fPIC", str(src), "-o", str(tmp)]
    pid = os.posix_spawnp("gcc", argv, os.environ)
    _, status, ru = os.wait4(pid, 0)
    ok = os.waitstatus_to_exitcode(status) == 0 and tmp.exists()
    if ok:
        os.replace(tmp, out)
    return ok, ru.ru_utime + ru.ru_stime


def build_lib(work: Path) -> Path:
    """The floor's shared object, built once per source digest."""
    digest = hashlib.sha256(FLOOR_C.read_bytes()).hexdigest()[:16]
    so = work / "build" / f"floor_{digest}.so"
    if not so.exists():
        so.parent.mkdir(parents=True, exist_ok=True)
        ok, _ = gcc_build(FLOOR_C, so)
        if not ok:
            raise RuntimeError("gcc could not build perfbench/floor.c")
    return so


class CLib:
    def __init__(self, so: Path) -> None:
        lib = ctypes.CDLL(str(so))
        lib.floor_spmv.argtypes = [ctypes.c_int64, ctypes.c_int64, _i64p, _i64p,
                                   _f64p, _f64p, _f64p]
        lib.floor_spmv.restype = None
        lib.floor_merge.argtypes = [ctypes.c_int64, _i64p, _i64p, _f64p, _i64p,
                                    _i64p, _f64p, ctypes.c_int64, _i64p, _i64p,
                                    _f64p]
        lib.floor_merge.restype = ctypes.c_int64
        lib.floor_inner.argtypes = [ctypes.c_int64, _i64p, _i64p, _f64p, _i64p,
                                    _i64p, _f64p]
        lib.floor_inner.restype = ctypes.c_double
        self.lib = lib

    def spmv(self, lo: int, hi: int, A, x: np.ndarray) -> np.ndarray:
        pos, crd, vals = A
        y = np.empty(hi - lo, dtype=np.float64)
        self.lib.floor_spmv(lo, hi, _p(pos), _p(crd), _f(vals), _f(x), _f(y))
        return y

    def merge(self, n: int, A, B):
        cap = len(A[1]) + len(B[1])
        pc = np.empty(n + 1, dtype=np.int64)
        cc = np.empty(cap, dtype=np.int64)
        vc = np.empty(cap, dtype=np.float64)
        nnz = self.lib.floor_merge(n, _p(A[0]), _p(A[1]), _f(A[2]), _p(B[0]),
                                   _p(B[1]), _f(B[2]), cap, _p(pc), _p(cc), _f(vc))
        return pc, cc[:nnz], vc[:nnz]

    def inner(self, n: int, A, B) -> float:
        return self.lib.floor_inner(n, _p(A[0]), _p(A[1]), _f(A[2]), _p(B[0]),
                                    _p(B[1]), _f(B[2]))


def _p(a: np.ndarray):
    return a.ctypes.data_as(_i64p)


def _f(a: np.ndarray):
    return a.ctypes.data_as(_f64p)


def csr(n: int, m: int, density: float, rng: np.random.Generator):
    """A random CSR matrix: sorted unique columns per row, values in
    [0.5, 1.5) — the repo's generator's distribution, built in numpy."""
    nnz = max(1, int(density * n * m))
    flat = np.sort(rng.choice(n * m, size=nnz, replace=False))
    rows, cols = np.divmod(flat, m)
    pos = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=pos[1:])
    vals = rng.random(nnz) + 0.5
    return pos, cols.astype(np.int64), vals


# ----------------------------------------------------------------------
# kernels floor
# ----------------------------------------------------------------------
class KernelFloor:
    """``reps`` units of spmv + merge + inner on fixed matrices."""

    def __init__(self, lib: CLib, reps: int) -> None:
        rng = np.random.default_rng(FLOOR_SEED)
        n = FLOOR_N
        self.lib, self.reps, self.n = lib, reps, n
        self.A = csr(n, n, FLOOR_DENSITY, rng)
        self.B = csr(n, n, FLOOR_DENSITY, rng)
        self.x = rng.random(n) + 0.5
        # independent expectations, from numpy
        rows = np.repeat(np.arange(n), np.diff(self.A[0]))
        self.want_y = np.zeros(n)
        np.add.at(self.want_y, rows, self.A[2] * self.x[self.A[1]])
        da, db = self._dense(self.A), self._dense(self.B)
        self.want_nnz = int(np.count_nonzero((da != 0) | (db != 0)))
        self.want_sum = float((da + db).sum())
        self.want_inner = float((da * db).sum())

    def _dense(self, M) -> np.ndarray:
        d = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(M[0]))
        d[rows, M[1]] = M[2]
        return d

    def unit(self):
        y = self.lib.spmv(0, self.n, self.A, self.x)
        pc, cc, vc = self.lib.merge(self.n, self.A, self.B)
        s = self.lib.inner(self.n, self.A, self.B)
        return y, vc, s

    def __call__(self) -> Tuple[bool, float]:
        for _ in range(self.reps):
            y, vc, s = self.unit()
        ok = (
            np.allclose(y, self.want_y, rtol=1e-12, atol=0)
            and len(vc) == self.want_nnz
            and abs(float(vc.sum()) - self.want_sum) <= 1e-9 * self.want_sum
            and abs(s - self.want_inner) <= 1e-9 * max(1.0, abs(self.want_inner))
        )
        return ok, 0.0


# ----------------------------------------------------------------------
# compile / restore floors
# ----------------------------------------------------------------------
def _tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.15:
        return "x" if rng.random() < 0.4 else rng.randint(0, 3)
    op = rng.choice("+*")
    return (op, _tree(rng, depth - 1), _tree(rng, depth - 1))


def _rewrite(t):
    """Constant folding and the identities x+0, x*1, x*0, to a fixpoint."""
    if not isinstance(t, tuple):
        return t
    op, a, b = t[0], _rewrite(t[1]), _rewrite(t[2])
    if isinstance(a, int) and isinstance(b, int):
        return a + b if op == "+" else a * b
    if op == "+":
        if a == 0:
            return b
        if b == 0:
            return a
    else:
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
    return (op, a, b)


def _eval(t, x: int) -> int:
    if t == "x":
        return x
    if isinstance(t, int):
        return t
    a, b = _eval(t[1], x), _eval(t[2], x)
    return a + b if t[0] == "+" else a * b


class TreeRewrite:
    """A fixed pure-Python rewrite, checked by evaluating both trees."""

    def __init__(self, depth: int, reps: int) -> None:
        self.tree = _tree(random.Random(FLOOR_SEED), depth)
        self.reps = reps
        self.want = _eval(self.tree, 3) % (1 << 61)

    def __call__(self) -> bool:
        out = None
        for _ in range(self.reps):
            out = _rewrite(self.tree)
        return _eval(out, 3) % (1 << 61) == self.want


class CompileFloor:
    """Tree rewrite + a gcc build of ``floor.c``'s row loop alone, with
    the program's flags."""

    FLAGS = ("-O3", "-march=native", "-DFLOOR_SPMV_ONLY")

    def __init__(self, work: Path, lib_so: Path, rewrite_reps: int) -> None:
        self.rewrite = TreeRewrite(depth=14, reps=rewrite_reps)
        self.out = work / "build" / f"floor_cc_{os.getpid()}.so"
        self.gcc_s = 0.0

    def __call__(self) -> Tuple[bool, float]:
        ok = self.rewrite()
        t0 = time.perf_counter()
        built, child_s = gcc_build(FLOOR_C, self.out, self.FLAGS)
        self.gcc_s = time.perf_counter() - t0
        if built:
            built = hasattr(ctypes.CDLL(str(self.out)), "floor_spmv")
            self.out.unlink()
        return ok and built, child_s


class RestoreFloor:
    """Tree rewrite + loading a fresh copy of the floor's shared object
    (a new path each time, so the loader cannot reuse a mapping)."""

    def __init__(self, work: Path, lib_so: Path, rewrite_reps: int) -> None:
        self.rewrite = TreeRewrite(depth=14, reps=rewrite_reps)
        self.src = lib_so
        self.dir = work / "build"
        self.k = 0

    def __call__(self) -> Tuple[bool, float]:
        ok = self.rewrite()
        self.k += 1
        copy = self.dir / f"floor_rs_{os.getpid()}_{self.k}.so"
        shutil.copyfile(self.src, copy)
        try:
            lib = CLib(copy)
            A = (np.array([0, 1], dtype=np.int64), np.array([0], dtype=np.int64),
                 np.array([2.0]))
            y = lib.spmv(0, 1, A, np.array([3.0]))
            ok = ok and float(y[0]) == 6.0
        finally:
            copy.unlink()
        return ok, 0.0



# ----------------------------------------------------------------------
# sharded floor: the C row loop split over benchmark-owned processes
# ----------------------------------------------------------------------
#: 160k nonzeros: a few hundred microseconds per pass, L2-sized rows
SHARD_FLOOR_N = 4000


def shard_floor_input():
    rng = np.random.default_rng(FLOOR_SEED + 1)
    A = csr(SHARD_FLOOR_N, SHARD_FLOOR_N, FLOOR_DENSITY, rng)
    return A, rng.random(SHARD_FLOOR_N) + 0.5


def row_range(n: int, index: int, count: int) -> Tuple[int, int]:
    return n * index // count, n * (index + 1) // count


class ShardFloor:
    """One unit: this process runs the whole row loop ``serial_reps``
    times, then ``count`` worker processes run their row ranges ``reps``
    times in parallel.

    A sharded job is about half serial (plan, export and merge in the
    parent) and half parallel (the shards).  An all-parallel floor needs
    every CPU at once, so under host CPU steal it slowed more than the
    jobs did and over-corrected them by ~15%; the serial half matches the
    jobs' mix."""

    def __init__(self, so: Path, count: int, reps: int, env, serial_reps: int = 0) -> None:
        import sys

        A, x = shard_floor_input()
        self.lib = CLib(so)
        self.A, self.x, self.serial_reps = A, x, serial_reps
        rows = np.repeat(np.arange(SHARD_FLOOR_N), np.diff(A[0]))
        y = np.zeros(SHARD_FLOOR_N)
        np.add.at(y, rows, A[2] * x[A[1]])
        self.want = [float(y[slice(*row_range(SHARD_FLOOR_N, k, count))].sum())
                     for k in range(count)]
        self.want_y = y
        self.procs = [
            subprocess.Popen(
                [sys.executable, str(HERE / "floor_worker.py"), str(so), str(k),
                 str(count), str(reps)],
                env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for k in range(count)
        ]
        self.pids = {p.pid for p in self.procs}

    def __call__(self) -> Tuple[bool, float]:
        ok = True
        if self.serial_reps:
            for _ in range(self.serial_reps):
                y = self.lib.spmv(0, SHARD_FLOOR_N, self.A, self.x)
            ok = bool(np.allclose(y, self.want_y, rtol=1e-12, atol=0))
        for p in self.procs:
            p.stdin.write("go\n")
            p.stdin.flush()
        got = [float(p.stdout.readline()) for p in self.procs]
        ok = ok and all(abs(g - w) <= 1e-9 * abs(w) for g, w in zip(got, self.want))
        return ok, 0.0

    def close(self) -> None:
        for p in self.procs:
            try:
                p.stdin.close()
            except OSError:
                pass
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
