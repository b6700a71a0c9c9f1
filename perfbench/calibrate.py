#!/usr/bin/env python3
"""Measure every floor's nominal time on this host and rewrite
``nominal.json``.

    python3 perfbench/calibrate.py [--rounds 60]

Run it once on the reference host.  The nominal times
are only a unit: a normalized time reads "milliseconds on the reference
host".  Changing them rescales every later run, so a calibration is a
benchmark change of its own (the parent's figures must be re-measured).
The repetition counts in ``nominal.json`` are fixed: they were chosen
so that one floor window takes about 10 ms on the reference host
(``reference_host`` in the file).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import floors  # noqa: E402

def timed_once(fn) -> float:
    t0 = time.perf_counter()
    ok, _ = fn()
    if not ok:
        raise RuntimeError("floor output mismatch during calibration")
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=60)
    args = ap.parse_args()
    work = HERE.parent / ".perfbench_work"
    so = floors.build_lib(work)
    nom = floors.nominal()
    env = dict(os.environ)
    count = os.cpu_count() or 1

    import wl_serve

    class _Run:  # the few attributes FloorServer needs
        def __init__(self) -> None:
            self.dir = Path(tempfile.mkdtemp(dir=work))
            self.guard = type("G", (), {"floor_pids": set()})()

        def child_env(self, **extra):
            return dict(os.environ, **extra)

    run = _Run()
    sf = floors.ShardFloor(so, count, nom["sharded"]["reps"], env, nom["sharded"]["serial_reps"])
    fs = wl_serve.FloorServer(run, nom["serve"])
    floors_by_name = {
        "kernels": floors.KernelFloor(floors.CLib(so), nom["kernels"]["reps"]),
        "compile": floors.CompileFloor(work, so, nom["compile"]["rewrite_reps"]),
        "restore": floors.RestoreFloor(work, so, nom["restore"]["rewrite_reps"]),
        "sharded": sf,
        "serve": fs,
        "serve_tput": lambda: (wl_serve.load_batch(fs.proc.addr, fs.docs, 0, count)[1], 0.0),
    }
    times = {name: [] for name in floors_by_name}
    try:
        # rounds interleave the floors, so a busy stretch of the host
        # hits all of them; the lower quartile is the quiet host's speed
        for _ in range(args.rounds):
            for name, fn in floors_by_name.items():
                times[name].append(timed_once(fn))
    finally:
        sf.close()
        fs.close()
        shutil.rmtree(run.dir, ignore_errors=True)
    for name, xs in times.items():
        nom[name]["nominal_s"] = statistics.quantiles(xs, n=4)[0]

    floors.NOMINAL.write_text(json.dumps(nom, indent=1) + "\n")
    print(json.dumps(nom, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
