#!/usr/bin/env python3
"""Steadiness report: are the end-to-end metrics steady across seeds and
across time, and how much do the floors help?

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--sets 2]
                                    [--gap 300] [--seconds 10]

Runs ``--sets`` sets of ``--runs`` untraced runs per workload, each run
with another seed, the sets ``--gap`` seconds apart.  For each workload
and end-to-end metric it prints, per set, the spread (quartile distance
over the median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles) of the raw values next to the normalized ones, then the shift
of the median between the first and the last set, against the metric's
bound from ``BENCHMARK.json``.  ``setup_s`` is exempt from the spread
check but not from the shift check.  The per-run results and records
land in ``.perfbench_work/steadiness/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import spread  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, out: Path) -> dict:
    record = out / f"{workload}_s{seed}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0", "--record", str(record)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rec = json.loads(record.read_text())
    return {"seed": seed, "result": result, "raw": rec["raw_metrics"]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--gap", type=float, default=300.0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    out = ROOT / ".perfbench_work" / "steadiness" / time.strftime("%Y%m%d-%H%M%S")
    out.mkdir(parents=True, exist_ok=True)

    sets = []
    for s in range(args.sets):
        if s:
            time.sleep(args.gap)
        runs = {w: [] for w in workloads}
        for k in range(args.runs):
            for w in workloads:
                seed = args.first_seed + 1000 * s + k
                r = one_run(w, seed, args.seconds, out)
                runs[w].append(r)
                print(f"set {s + 1} {w} seed {seed}: correct={r['result']['correct']} "
                      f"failed={r['result']['failed']}", file=sys.stderr, flush=True)
        sets.append(runs)
    (out / "sets.json").write_text(json.dumps(sets, indent=1))

    ok = True
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':18} " + " ".join(f"{'set' + str(i + 1) + ' raw/norm':>18}" for i in range(len(sets)))
              + f" {'shift':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, medians = [], []
            for runs in sets:
                norm = [r["result"]["metrics"][name]["value"] for r in runs[w]]
                # a metric with no floor (peak_rss_mb) is its own raw value
                raw = [r["raw"].get(name, r["result"]["metrics"][name]["value"])
                       for r in runs[w]]
                sn = spread(norm)
                sr = spread(raw)
                cells.append(f"{sr:8.3f}/{sn:<8.3f}")
                medians.append(statistics.median(norm))
                if name != "setup_s" and sn > bound:
                    ok = False
            worse = (medians[-1] / medians[0] - 1) if m["better"] == "lower" else (medians[0] / medians[-1] - 1)
            if worse > bound:
                ok = False
            print(f"{name:18} " + " ".join(f"{c:>18}" for c in cells) + f" {worse:8.3f} {bound:6.2f}")
        fails = sum(r["result"]["failed"] for runs in sets for r in runs[w])
        print(f"failed operations: {fails}")
        ok = ok and fails == 0
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
