"""Measurement core shared by every workload.

Nothing here imports ``repro``: the runner isolates the environment
before the program is imported, and the floors must stay independent of
the program they normalize.

Timing rule: program calls run in windows of about 10 ms, and each
window is followed by a fixed amount of floor work owned by the
benchmark.  The floor's time over its nominal time on the reference
host is the window's speed factor, and every program time is divided
by the speed around its window (the median over ``SMOOTH`` windows on
either side):

    normalized = raw * floor_nominal / floor_around_the_window

A floor window counts only if the program used no CPU while it ran
(``CpuGuard``); otherwise the window, program samples included, is
discarded and counted as a failure.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: the tail is the highest quantile with ``TAIL_BEYOND`` samples beyond
#: it (the choosing-metrics rule), taken continuously so that it moves
#: smoothly with the sample count, and never below the median
TAIL_BEYOND = 10

#: program CPU tolerated inside a floor window: idle wake-ups of the
#: program's threads (asyncio selector, pool health pings) cost tens of
#: microseconds; a leaked busy loop costs the whole window
GUARD_ALLOWANCE_S = 0.0005
GUARD_ALLOWANCE_SHARE = 0.05


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no samples")
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def tail_percentile(n: int) -> float:
    return 100.0 * max(0.5, min(0.999, 1.0 - TAIL_BEYOND / max(n, 1)))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the tail of ``values``."""
    p = tail_percentile(len(values))
    return quantile(values, p / 100.0), p


#: float64 unit roundoff
U = 2.0 ** -53


def gamma(n: int) -> float:
    """γ_n = n·u / (1 − n·u): the bound on the relative error of a sum of
    n terms in any order, against Σ|terms| (Higham, Lemma 3.1)."""
    return n * U / (1 - n * U)


def geomean(values: Iterable[float]) -> float:
    xs = [float(v) for v in values]
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def spread(values: Sequence[float]) -> float:
    """Quartile distance over the median, as the acceptance rule takes it."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


# ----------------------------------------------------------------------
# process CPU accounting (/proc schedstat: nanosecond resolution)
# ----------------------------------------------------------------------
def _read(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def task_cpu_ns(pid: int) -> int:
    """CPU time of every thread of ``pid``."""
    return sum(_tid_ns(pid, tid) for tid in _tids(pid))


def child_pids(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        text = _read(f"/proc/{pid}/task/{tid}/children")
        if text:
            out.extend(int(x) for x in text.split())
    return out


def descendants(pid: int, exclude: Iterable[int] = ()) -> List[int]:
    """Live descendants of ``pid``; excluded pids prune their subtree."""
    skip = set(exclude)
    out: List[int] = []
    stack = [c for c in child_pids(pid) if c not in skip]
    while stack:
        p = stack.pop()
        out.append(p)
        stack.extend(c for c in child_pids(p) if c not in skip)
    return out


def vm_hwm_mb(pid: int) -> Optional[float]:
    """Peak resident set (VmHWM) of ``pid`` in MiB."""
    text = _read(f"/proc/{pid}/status")
    if not text:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


class CpuGuard:
    """How much CPU the program used while a floor ran.

    Counts every thread of the benchmark process except the one running
    the floor, every live descendant process except the floor's own
    (server, pool workers, supervised children, stray children), and
    children reaped in the meantime minus the floor's own reaped
    children.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.floor_pids: set = set()
        #: benchmark threads that run floor work (client threads)
        self.floor_tids: set = set()

    def snapshot(self) -> Tuple[Dict[Tuple[int, int], int], float]:
        """CPU ns per (pid, tid) of the benchmark process's other threads
        and per (pid, 0) of each live program descendant, plus reaped
        children's CPU seconds."""
        me = threading.get_native_id()
        per: Dict[Tuple[int, int], int] = {}
        for tid in _tids(self.pid):
            if tid != me and tid not in self.floor_tids:
                per[(self.pid, tid)] = _tid_ns(self.pid, tid)
        for p in descendants(self.pid, self.floor_pids):
            per[(p, 0)] = task_cpu_ns(p)
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return per, ru.ru_utime + ru.ru_stime

    def settle(self, quiet_s: float = 0.002, limit_s: float = 0.1) -> Tuple[Dict, float]:
        """Wait until the program has used no CPU for ``quiet_s`` (the
        tail of a call finishing in a worker thread, a collection it
        triggered), at most ``limit_s``; returns the last snapshot.  Work
        that never stops still lands in the floor window and trips it."""
        end = time.perf_counter() + limit_s
        snap = self.snapshot()
        while time.perf_counter() < end:
            time.sleep(quiet_s)
            nxt = self.snapshot()
            busy = sum(ns - snap[0].get(k, 0) for k, ns in nxt[0].items()) / 1e9
            busy += nxt[1] - snap[1]
            snap = nxt
            # a runnable task that the host has not scheduled yet uses
            # no CPU but is not quiet either
            if busy < quiet_s * 0.05 and not self._runnable(snap[0]):
                break
        return snap

    @staticmethod
    def _runnable(per) -> bool:
        tasks = [(pid, tid) for pid, tid in per if tid]
        tasks += [(pid, t) for pid, tid in per if not tid for t in _tids(pid)]
        return any(_state(pid, tid) == "R" for pid, tid in tasks)

    def used(self, before, floor_child_s: float = 0.0) -> Tuple[float, str]:
        """Program CPU seconds since ``before``, and who used the most."""
        per, reaped = self.snapshot()
        deltas = {k: max(0, ns - before[0].get(k, 0)) / 1e9 for k, ns in per.items()}
        reaped_s = max(0.0, (reaped - before[1]) - floor_child_s)
        who = ""
        if deltas:
            (pid, tid) = worst = max(deltas, key=deltas.get)
            names = {t.native_id: t.name for t in threading.enumerate()}
            who = (f"pid {pid}" + (f" thread {tid} {names.get(tid, '')}" if tid else "")
                   + f" ({_comm(pid)}) {deltas[worst] * 1e3:.2f} ms")
        if reaped_s:
            who += f"; reaped children {reaped_s * 1e3:.2f} ms"
        return sum(deltas.values()) + reaped_s, who


def _tids(pid: int) -> List[int]:
    try:
        return [int(t) for t in os.listdir(f"/proc/{pid}/task")]
    except OSError:
        return []


def _state(pid: int, tid: int) -> str:
    text = _read(f"/proc/{pid}/task/{tid}/stat")
    return text.rpartition(")")[2].split()[0] if text else ""


def _tid_ns(pid: int, tid: int) -> int:
    text = _read(f"/proc/{pid}/task/{tid}/schedstat")
    return int(text.split()[0]) if text else 0


def _comm(pid: int) -> str:
    text = _read(f"/proc/{pid}/cmdline") or ""
    return " ".join(text.split("\0"))[:80]


# ----------------------------------------------------------------------
# interleaved windows
# ----------------------------------------------------------------------
#: each sample is normalized by the median speed of the counted floor
#: windows within this many windows of its own (nine in all, a few
#: tenths of a second): drift over seconds is tracked, while one floor
#: window preempted by the host does not set a sample's scale
SMOOTH = 4


class Series:
    """Raw samples of one timed operation and the floor window of each."""

    def __init__(self, meter: "Meter") -> None:
        self.meter = meter
        self.raw: List[float] = []
        self.window: List[int] = []

    def add(self, samples: Sequence[float], window: int) -> None:
        self.raw.extend(samples)
        self.window.extend([window] * len(samples))

    @property
    def norm(self) -> List[float]:
        speed = self.meter.smoothed()
        return [x / speed[w] for x, w in zip(self.raw, self.window)]

    def per_window(self) -> List[Tuple[float, float]]:
        """(median raw time, that window's own speed factor)."""
        groups: Dict[int, List[float]] = {}
        for x, w in zip(self.raw, self.window):
            groups.setdefault(w, []).append(x)
        return [(median(xs), self.meter.speeds[w]) for w, xs in sorted(groups.items())]


class Meter:
    """Alternates program windows with floor windows.

    ``floor`` runs a fixed amount of benchmark-owned work and returns
    ``(ok, child_cpu_s)``: whether its output checked out, and the CPU
    its own reaped children used (so the guard can leave it out).
    """

    def __init__(self, run: "Run", name: str, floor: Callable[[], Tuple[bool, float]],
                 nominal_s: float) -> None:
        self.run = run
        self.name = name
        self.floor = floor
        self.nominal_s = nominal_s
        self.guard = run.guard
        self.series: Dict[str, Series] = {}
        self.speeds: List[float] = []
        self.discarded = 0
        self.windows = 0
        self._smoothed: Tuple[int, List[float]] = (-1, [])

    def get(self, label: str) -> Series:
        return self.series.setdefault(label, Series(self))

    def smoothed(self) -> List[float]:
        if self._smoothed[0] != len(self.speeds):
            sp = self.speeds
            self._smoothed = (len(sp), [
                median(sp[max(0, i - SMOOTH): i + SMOOTH + 1]) for i in range(len(sp))])
        return self._smoothed[1]

    def floor_speed(self) -> Optional[float]:
        """Run the floor once; its speed factor, or None if discarded."""
        before = self.guard.settle()
        t0 = time.perf_counter()
        ok, child_s = self.floor()
        dt = time.perf_counter() - t0
        used, who = self.guard.used(before, child_s)
        self.run.check(ok, f"floor {self.name} output")
        self.windows += 1
        if used > GUARD_ALLOWANCE_S + GUARD_ALLOWANCE_SHARE * dt:
            self.discarded += 1
            self.run.fail(
                f"floor {self.name}: program used {used * 1e3:.2f} ms CPU "
                f"during the floor window (most: {who}); window discarded")
            return None
        speed = dt / self.nominal_s
        self.speeds.append(speed)
        return speed

    def commit(self, pending: Dict[str, List[float]]) -> Optional[float]:
        """Floor after a program window; file its samples if it counts."""
        speed = self.floor_speed()
        if speed is None:
            return None
        for label, samples in pending.items():
            if samples:
                self.get(label).add(samples, len(self.speeds) - 1)
        return speed

    def record(self) -> Dict[str, object]:
        return {
            "nominal_s": self.nominal_s,
            "windows": self.windows,
            "discarded": self.discarded,
            "speed_factors": [round(s, 5) for s in self.speeds],
            "raw_s": {k: [round(x, 9) for x in v.raw] for k, v in self.series.items()},
            "raw_window": {k: v.window for k, v in self.series.items()},
            # window-to-window spread, normalized vs raw (median over series)
            "tracking": [median(col) if col else None
                         for col in zip(*self.tracking())] or None,
        }

    def tracking(self) -> List[Tuple[float, float]]:
        """Per series: the window-to-window spread of the program-to-floor
        ratio, next to the same spread of the raw window medians; the
        first is the smaller when the floor tracks the host's drift."""
        out = []
        for s in self.series.values():
            windows = s.per_window()
            if len(windows) >= 3:
                out.append((spread([m / v for m, v in windows]),
                            spread([m for m, _ in windows])))
        return out


def timed_around(meter: Meter, fn: Callable[[], object], floors: int = 2) -> Tuple[float, float, object]:
    """Time one long call (a set-up) with floors before and after it.

    Returns ``(raw_s, speed, result)``; the speed is the mean of the
    counted floors around the call.
    """
    speeds = [s for s in (meter.floor_speed() for _ in range(floors)) if s]
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    speeds += [s for s in (meter.floor_speed() for _ in range(floors)) if s]
    speed = sum(speeds) / len(speeds) if speeds else 1.0
    return raw, speed, out


# ----------------------------------------------------------------------
# the run: isolation, correctness tally, host record, output
# ----------------------------------------------------------------------
def src_hash(root: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    base = root / "src"
    for p in sorted(base.rglob("*.py")):
        h.update(str(p.relative_to(base)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _cmd_line(cmd: List[str]) -> Optional[str]:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return (out.stdout or out.stderr).strip().splitlines()[0] if out.returncode == 0 else None


def cpu_times_s() -> Dict[str, float]:
    """System-wide busy and steal seconds (from /proc/stat)."""
    text = _read("/proc/stat") or ""
    fields = text.splitlines()[0].split()[1:] if text else []
    tick = os.sysconf("SC_CLK_TCK")
    vals = [int(x) / tick for x in fields]
    if len(vals) < 8:
        return {"busy_s": 0.0, "steal_s": 0.0}
    busy = vals[0] + vals[1] + vals[2] + vals[5] + vals[6]
    return {"busy_s": busy, "steal_s": vals[7]}


def shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_")}
    except OSError:
        return set()


class Run:
    """One benchmark run: arguments, work directory, tally and record."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, spec: dict) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.spec = spec
        self.work = root / ".perfbench_work"
        self.dir = self.work / "runs" / f"{workload}_{seed}_{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.guard = CpuGuard()
        self.meters: List[Meter] = []
        self.metrics: Dict[str, float] = {}
        self.raw_metrics: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}
        self.t_start = time.time()
        self.cpu0 = cpu_times_s()
        self.self0 = os.times()
        self.shm0 = shm_segments()

    # -- isolation ------------------------------------------------------
    def isolate(self) -> Dict[str, str]:
        """Fresh caches, job and temp directories; no inherited knobs."""
        for k in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[k]
        dirs = {
            "REPRO_KERNEL_CACHE_DIR": "kcache",
            "REPRO_TUNE_CACHE_DIR": "tune",
            "REPRO_JOB_DIR": "jobs",
            "TMPDIR": "tmp",
        }
        for var, sub in dirs.items():
            d = self.dir / sub
            d.mkdir(parents=True, exist_ok=True)
            os.environ[var] = str(d)
        src = str(self.root / "src")
        os.environ["PYTHONPATH"] = src
        if src not in sys.path:
            sys.path.insert(0, src)
        return {k: os.environ[k] for k in dirs}

    def child_env(self, **extra: str) -> Dict[str, str]:
        env = dict(os.environ)
        env.update(extra)
        return env

    def fresh_dir(self, name: str) -> Path:
        d = self.dir / name
        d.mkdir(parents=True, exist_ok=True)
        return d

    # -- correctness tally ------------------------------------------------
    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(f"mismatch: {what}")
        return ok

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(why)
        print(f"perfbench: FAILED {why}", file=sys.stderr)

    def meter(self, name: str, floor, nominal_s: float) -> Meter:
        m = Meter(self, name, floor, nominal_s)
        self.meters.append(m)
        return m

    # -- teardown checks ------------------------------------------------
    def check_leaks(self, grace_s: float = 5.0) -> None:
        """Stray children and leaked shared-memory segments are failures;
        strays are killed so the run leaves nothing behind.

        The interpreter's multiprocessing resource tracker is not a
        stray: it lives until the interpreter exits.  It is stopped (and
        waited for) last, after the shared-memory check, since stopping
        it unlinks whatever segments it still tracks.
        """
        from multiprocessing import resource_tracker

        tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
        skip = set(self.guard.floor_pids) | ({tracker} if tracker else set())

        deadline = time.time() + grace_s
        strays = descendants(os.getpid(), skip)
        while strays and time.time() < deadline:
            time.sleep(0.05)
            strays = descendants(os.getpid(), skip)
        self.attempted += 1
        if strays:
            self.fail("stray child processes left running: "
                      + ", ".join(f"{p} ({_comm(p)})" for p in strays))
            import signal

            for p in strays:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            for p in strays:
                try:
                    os.waitpid(p, 0)
                except OSError:
                    pass
        leaked = sorted(shm_segments() - self.shm0)
        self.attempted += 1
        if leaked:
            self.fail(f"leaked /dev/shm segments: {leaked[:5]} ({len(leaked)})")
            for n in leaked:
                try:
                    os.unlink(f"/dev/shm/{n}")
                except OSError:
                    pass
        if tracker:
            resource_tracker._resource_tracker._stop()

    def cleanup(self) -> None:
        """Remove the run's caches and temporaries (the record stays)."""
        import shutil

        shutil.rmtree(self.dir, ignore_errors=True)

    # -- output -----------------------------------------------------------
    def host_record(self) -> Dict[str, object]:
        import numpy

        cpu1 = cpu_times_s()
        me = os.times()
        model = None
        for line in (_read("/proc/cpuinfo") or "").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
        return {
            "nproc": os.cpu_count(),
            "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "gcc": _cmd_line(["gcc", "--version"]),
            "commit": _cmd_line(["git", "-C", str(self.root), "rev-parse", "HEAD"]),
            "src_sha256": src_hash(self.root),
            "host_busy_s": round(cpu1["busy_s"] - self.cpu0["busy_s"], 3),
            "host_steal_s": round(cpu1["steal_s"] - self.cpu0["steal_s"], 3),
            "bench_cpu_s": round((me.user + me.system) - (self.self0.user + self.self0.system), 3),
            "bench_children_cpu_s": round(
                (me.children_user + me.children_system)
                - (self.self0.children_user + self.self0.children_system), 3),
            "wall_s": round(time.time() - self.t_start, 3),
        }

    def finish(self, record_path: Optional[Path]) -> Dict[str, object]:
        section = "per_layer" if self.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in self.spec[section]}
        missing = [n for n in units if n not in self.metrics]
        for n in missing:
            self.fail(f"metric {n} was not measured")
        metrics = {
            n: {"value": float(self.metrics[n]), "unit": units[n]}
            for n in units if n in self.metrics
        }
        result = {
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": metrics,
        }
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "result": result,
            "raw_metrics": self.raw_metrics,
            "failures": self.failures,
            "host": self.host_record(),
            "notes": self.notes,
            "floors": {m.name: m.record() for m in self.meters},
        }
        path = record_path or (
            self.work / "records"
            / f"{self.workload}_s{self.seed}_t{int(self.trace)}_{int(self.t_start)}_{os.getpid()}.json"
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, default=str))
        return result


def run_child(args: List[str], env: Dict[str, str], timeout: float) -> dict:
    """Run a benchmark helper script; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"helper {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])
