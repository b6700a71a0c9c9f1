"""``compile``: a seeded draw of distinct einsum programs, each compiled
cold, then rebuilt from the disk tier in fresh processes.

The draw (``draw_programs``): ``PROGRAMS`` distinct programs over 1–3
operands of rank ≤ 3 on the indices i < j < k (dims 3–8), every level
dense or sparse at random, a dense output over a random subset of the
indices (possibly a scalar), over ℝ, ℕ, min-plus or bool.  The draw
rotates through the semiring × operand-count strata, so the prefix a run
has time for has the same mix under every seed.

* Cold phase: each program goes through ``plan_einsum`` and
  ``EinsumPlan.build`` into an initially empty cache: frontend,
  stream-property verification, lowering, optimization, C emission,
  gcc, and the cache write.  One compile is one window; the floor
  (``floors.CompileFloor``) is a fixed tree rewrite plus a gcc build of
  ``floor.c`` with the program's flags.  The phase ends at a whole
  rotation of the strata once its time is spent.
* Warm phase: ``RESTORE_PROCS`` fresh processes rebuild the first
  ``RESTORE_PROGRAMS`` programs from the disk tier (start-up excluded
  from the timing; it is the workload's ``setup_s``), each restore
  followed by ``floors.RestoreFloor``.  Cache reads run beside the cold phase's
  writes, so a store change that speeds one path and slows the other
  shows.

Correctness: every compiled and every restored kernel runs once on its
operands, and the result is compared with ``repro.lang.denotation``:
bit-for-bit for ℕ, bool and min-plus (min-plus values are integers, so
its + is exact), within γ_n·Σ|terms| for ℝ (positive values, so Σ|terms|
is the reference value).  ``peak_rss_mb`` is read after the cold phase,
before any reference is built.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
from pathlib import Path
from typing import List, Tuple

import numpy as np

import common
import floors

#: at least 100 distinct programs, more than a 10 s run compiles (~50),
#: so no run ever exhausts the draw
PROGRAMS = 120
LETTERS = ("i", "j", "k")
#: small dimensions: compile time is measured, not run time, and the
#: denotation oracle enumerates every cell (at most 8³)
DIM_RANGE = (3, 8)
#: half the cells: every level format sees empty and nonempty fibres
DENSITY = 0.5
SEMIRINGS = ("float", "nat", "min-plus", "bool")
#: the draw rotates through these (semiring × operand count) strata
STRATA = [(sr, m) for m in (1, 2, 3) for sr in SEMIRINGS]
#: the cold phase stops only after whole rotations, and never before
#: this many, so every run compiles the same mix of programs
MIN_ROTATIONS = 4
#: restores cover the first rotations, which every run compiles: the
#: same programs whatever the host's speed.  A restore's time depends
#: on its program far more than on the process, so the median needs
#: many programs
RESTORE_PROGRAMS = MIN_ROTATIONS * len(STRATA)
#: share of the run's seconds spent compiling cold; a restore costs ~1%
#: of a cold compile, so the rest of the time restores the whole cold
#: set ``RESTORE_PROCS`` times over
COLD_SHARE = 0.8
#: fresh processes: five set-up samples (``setup_s`` is their median)
#: and five restores of every program
RESTORE_PROCS = 5


# ----------------------------------------------------------------------
# the draw (numpy only; children rebuild tensors from it)
# ----------------------------------------------------------------------
def warmup_program() -> dict:
    """A fixed program outside every draw, compiled (and restored)
    unmeasured first: a process's first compile also pays lazy imports
    and the toolchain probe, which are start-up, not compile time."""
    prog = draw_programs(floors.FLOOR_SEED, count=1)[0]
    prog["idx"] = "warmup"
    return prog


def draw_programs(seed: int, count: int = PROGRAMS) -> List[dict]:
    rng = np.random.default_rng(seed)
    seen = set()
    progs: List[dict] = []
    while len(progs) < count:
        sr, m = STRATA[len(progs) % len(STRATA)]
        ops = []
        for _ in range(m):
            r = int(rng.integers(1, 4))
            ops.append(tuple(sorted(rng.choice(LETTERS, size=r, replace=False))))
        used = sorted(set(itertools.chain(*ops)))
        out = tuple(a for a in used if rng.random() < 0.5)
        spec = ",".join("".join(o) for o in ops) + "->" + "".join(out)
        dims = {a: int(rng.integers(DIM_RANGE[0], DIM_RANGE[1] + 1)) for a in used}
        fmts = tuple(tuple(rng.choice(("dense", "sparse")) for _ in o) for o in ops)
        key = (spec, fmts, sr, tuple(sorted(dims.items())))
        if key in seen:
            continue
        seen.add(key)
        operands = []
        for o in ops:
            shape = tuple(dims[a] for a in o)
            total = int(np.prod(shape))
            nnz = max(1, int(DENSITY * total))
            flat = np.sort(rng.choice(total, size=nnz, replace=False))
            coords = np.stack(np.unravel_index(flat, shape), axis=1)
            if sr == "float":
                vals = rng.random(nnz) + 0.5
            elif sr == "nat":
                vals = rng.integers(1, 6, size=nnz)
            elif sr == "min-plus":
                vals = rng.integers(0, 9, size=nnz).astype(np.float64)
            else:
                vals = np.ones(nnz, dtype=bool)
            operands.append((coords, vals))
        progs.append({"idx": len(progs), "spec": spec, "ops": ops, "out": out,
                      "order": tuple(used), "dims": dims, "formats": fmts,
                      "semiring": sr, "operands": operands})
    return progs


def _semiring(name: str):
    from repro.semirings import BOOL, FLOAT, MIN_PLUS, NAT

    return {"float": FLOAT, "nat": NAT, "min-plus": MIN_PLUS, "bool": BOOL}[name]


def tensors_of(prog: dict):
    from repro.data.tensor import Tensor

    sr = _semiring(prog["semiring"])
    out = []
    for o, f, (coords, vals) in zip(prog["ops"], prog["formats"], prog["operands"]):
        entries = {tuple(int(c) for c in cs): v.item() for cs, v in zip(coords, vals)}
        out.append(Tensor.from_entries(o, f, tuple(prog["dims"][a] for a in o),
                                       entries, sr))
    return out


def compile_one(prog: dict, tensors):
    """The measured program call: plan and build (or restore)."""
    from repro.tensor.einsum import plan_einsum

    plan = plan_einsum(prog["spec"], *tensors, order=prog["order"],
                       semiring=_semiring(prog["semiring"]),
                       kernel_name=f"draw{prog['idx']}")
    return plan, plan.build()


def run_kernel(plan, kernel):
    out = kernel.run(plan.inputs, parallel=False, supervised=False)
    return canon(out)


def canon(out) -> list:
    """A result as sorted ``[coords, value]`` pairs (zeros dropped)."""
    from repro.data.tensor import Tensor

    if isinstance(out, Tensor):
        zero = out.semiring.zero
        return sorted([list(k), _plain(v)] for k, v in out.to_dict().items() if v != zero)
    return [[[], _plain(out)]]


def _plain(v):
    return v.item() if hasattr(v, "item") else v


def reference(prog: dict) -> list:
    """``repro.lang.denotation`` of the program (an independent semantics)."""
    from repro.krelation import Attribute, KRelation, Schema
    from repro.lang import TypeContext, denote
    from repro.tensor.einsum import einsum_expr

    sr = _semiring(prog["semiring"])
    schema = Schema(Attribute(a, range(prog["dims"][a])) for a in prog["order"])
    expr, _, _ = einsum_expr(prog["spec"])
    ctx = TypeContext(schema, {f"t{k}": frozenset(o) for k, o in enumerate(prog["ops"])})
    rels = {}
    for k, (o, (coords, vals)) in enumerate(zip(prog["ops"], prog["operands"])):
        support = {tuple(int(c) for c in cs): v.item() for cs, v in zip(coords, vals)}
        rels[f"t{k}"] = KRelation(schema, sr, tuple(o), support)
    truth = denote(expr, ctx, rels)
    if prog["out"]:
        return sorted([list(k), _plain(v)] for k, v in truth.support.items() if v != sr.zero)
    return [[[], _plain(truth.total())]]


def agree(prog: dict, got: list, want: list) -> bool:
    if len(got) != len(want):
        return False
    n = int(np.prod([prog["dims"][a] for a in prog["order"] if a not in prog["out"]] or [1]))
    for (gk, gv), (wk, wv) in zip(got, want):
        if gk != wk:
            return False
        if prog["semiring"] == "float":
            if abs(gv - wv) > common.gamma(n + len(prog["ops"])) * abs(wv):
                return False
        elif gv != wv:
            return False
    return True


# ----------------------------------------------------------------------
# warm phase: a fresh process restores every compiled program
# ----------------------------------------------------------------------
def child_main(args: List[str]) -> dict:
    draw_path, so_path, count = args[0], Path(args[1]), int(args[2])
    nom = floors.nominal()["restore"]
    work = so_path.parent.parent
    rf = floors.RestoreFloor(work, so_path, nom["rewrite_reps"])
    guard = common.CpuGuard()
    progs = pickle.loads(Path(draw_path).read_bytes())[:count]

    def floor_speed():
        before = guard.settle()
        t0 = time.perf_counter()
        ok, _ = rf()
        dt = time.perf_counter() - t0
        used, _ = guard.used(before)
        if not ok:
            return None, False
        return (dt / nom["nominal_s"]) if used <= common.GUARD_ALLOWANCE_S + common.GUARD_ALLOWANCE_SHARE * dt else None, True

    speeds = [floor_speed()[0] for _ in range(2)]
    t0 = time.perf_counter()
    from repro.compiler import kernel_cache  # noqa: F401  the program's start-up
    from repro.tensor import einsum  # noqa: F401
    setup_raw = time.perf_counter() - t0
    speeds += [floor_speed()[0] for _ in range(2)]
    good = [s for s in speeds if s]
    setup_speed = sum(good) / len(good) if good else 1.0
    tensors = [tensors_of(p) for p in progs]
    warm = warmup_program()
    run_kernel(*compile_one(warm, tensors_of(warm)))

    raws, wspeeds, results, discards, floor_fail = [], [], [], 0, 0
    for prog, ts in zip(progs, tensors):
        t0 = time.perf_counter()
        plan, kernel = compile_one(prog, ts)
        raw = time.perf_counter() - t0
        speed, ok = floor_speed()
        floor_fail += not ok
        results.append(run_kernel(plan, kernel))
        if speed is None:
            discards += 1
            continue
        raws.append(raw)
        wspeeds.append(speed)
    stats = kernel_cache.stats
    return {
        "setup_raw_s": setup_raw, "setup_speed": setup_speed,
        "raw_s": raws, "speeds": wspeeds, "discarded": discards,
        "floor_failed": floor_fail, "results": results,
        "disk_hits": stats.disk_hits, "misses": stats.misses,
        "memory_hits": stats.memory_hits,
        "rss_mb": common.vm_hwm_mb(os.getpid()),
    }


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
class Compile:
    def __init__(self, run: common.Run) -> None:
        self.run = run
        self.so = floors.build_lib(run.work)
        nom = floors.nominal()
        self.floor = floors.CompileFloor(run.work, self.so, nom["compile"]["rewrite_reps"])
        self.meter = run.meter("compile", self.floor, nom["compile"]["nominal_s"])
        self.restore_meter = run.meter("restore", None, nom["restore"]["nominal_s"])
        self.progs = draw_programs(run.seed)
        self.draw_path = run.dir / "compile_draw.pkl"
        self.draw_path.write_bytes(pickle.dumps(self.progs))

    def cold(self, seconds: float) -> None:
        run, meter = self.run, self.meter
        self.compiled: List[Tuple[dict, list]] = []
        warm = warmup_program()
        run_kernel(*compile_one(warm, tensors_of(warm)))
        t_end = time.perf_counter() + seconds
        for k, prog in enumerate(self.progs):
            whole = k % len(STRATA) == 0 and k >= RESTORE_PROGRAMS
            if whole and time.perf_counter() >= t_end:
                break
            ts = tensors_of(prog)
            t0 = time.perf_counter()
            plan, kernel = compile_one(prog, ts)
            raw = time.perf_counter() - t0
            speed = meter.commit({"cold": [raw]})
            if speed is not None:
                meter.get("vs_gcc").add([raw / self.floor.gcc_s], len(meter.speeds) - 1)
            self.compiled.append((prog, run_kernel(plan, kernel)))
        self.rss_mb = common.vm_hwm_mb(os.getpid())

    def warm(self) -> None:
        """Fresh processes restore the cold phase's programs."""
        run = self.run
        count = RESTORE_PROGRAMS
        self.children = []
        for _ in range(RESTORE_PROCS):
            out = common.run_child(
                [str(common.HERE / "child.py"), "wl_compile", str(self.draw_path),
                 str(self.so), str(count)], run.child_env(), timeout=120)
            self.children.append(out)
            series = self.restore_meter.get("restore")
            base = len(self.restore_meter.speeds)
            self.restore_meter.speeds += out["speeds"]
            for i, raw in enumerate(out["raw_s"]):
                series.add([raw], base + i)
            self.restore_meter.discarded += out["discarded"]
            self.restore_meter.windows += count
            for _ in range(out["discarded"]):
                run.fail("restore floor: program used CPU during the floor window")
            for _ in range(out["floor_failed"]):
                run.fail("mismatch: restore floor output")
            run.attempted += count
            for (prog, _), got in zip(self.compiled, out["results"]):
                run.check(agree(prog, got, prog["want"]),
                          f"compile restore draw{prog['idx']} ({prog['spec']}, {prog['semiring']})")

    def check_cold(self) -> None:
        for prog, got in self.compiled:
            prog["want"] = reference(prog)
            self.run.check(agree(prog, got, prog["want"]),
                           f"compile draw{prog['idx']} ({prog['spec']}, {prog['semiring']})")

    def metrics(self) -> None:
        run, meter = self.run, self.meter
        for mode in ("norm", "raw"):
            out = run.metrics if mode == "norm" else run.raw_metrics
            cold = getattr(meter.get("cold"), mode)
            out["p50_ms"] = common.median(cold) * 1e3
            out["tail_ms"] = common.tail(cold)[0] * 1e3
            out["warm_p50_ms"] = common.median(getattr(self.restore_meter.get("restore"), mode)) * 1e3
            out["throughput_per_s"] = len(cold) / sum(cold)
            out["vs_baseline"] = common.median(meter.get("vs_gcc").raw)
            setups = [c["setup_raw_s"] / (c["setup_speed"] if mode == "norm" else 1.0)
                      for c in self.children]
            out["setup_s"] = common.median(setups)
        run.metrics["peak_rss_mb"] = self.rss_mb
        run.notes["compile"] = {
            "compiled": len(self.compiled),
            "tail_pct": common.tail(meter.get("cold").norm)[1],
            "restore_procs": len(self.children),
            "disk_hits": [c["disk_hits"] for c in self.children],
            "restore_rss_mb": [c["rss_mb"] for c in self.children],
        }


def main(run: common.Run) -> None:
    wl = Compile(run)
    wl.cold(run.seconds * COLD_SHARE)
    wl.check_cold()
    wl.warm()
    wl.metrics()
