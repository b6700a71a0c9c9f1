#!/usr/bin/env python3
"""The repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads and metrics come from
``BENCHMARK.json``; each workload lives in ``wl_<name>.py``.  The last
line of standard output is the result object; the full run record (raw
times, speed factors, host record) is written under
``.perfbench_work/records/`` or to ``--record``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: the program's kernels do not
# use BLAS, and an idle BLAS helper thread that spins in the benchmark
# process would read as program CPU inside the floor windows.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=None,
                    help="where to write the run record (JSON)")
    args = ap.parse_args(argv)

    root = HERE.parent
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        print("perfbench: run from the repository root (no BENCHMARK.json here)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program's sources (src/repro) are missing",
              file=sys.stderr)
        return 3

    run = common.Run(root, args.workload, args.seed, args.seconds,
                     bool(args.trace), spec)
    run.isolate()
    try:
        if args.trace:
            import ladder

            ladder.main(run)
        else:
            importlib.import_module(f"wl_{args.workload}").main(run)
        run.check_leaks()
        result = run.finish(args.record)
    finally:
        run.cleanup()
    windows = sum(m.windows for m in run.meters)
    discarded = sum(m.discarded for m in run.meters)
    print(f"perfbench: {windows} floor windows, {discarded} discarded by the CPU guard; "
          f"{run.failed} of {run.attempted} operations failed", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
