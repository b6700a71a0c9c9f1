"""One process of the sharded floor (never imports ``repro``).

    python3 perfbench/floor_worker.py <floor.so> <index> <count> <reps>

Holds a fixed CSR matrix and, for every ``go`` line on standard input,
runs the C row loop ``reps`` times over its share of the rows (the same
row split the program's free shards use), then prints the checksum of
its last output.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import floors  # noqa: E402


def main() -> int:
    so, index, count, reps = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    lib = floors.CLib(Path(so))
    A, x = floors.shard_floor_input()
    lo, hi = floors.row_range(len(A[0]) - 1, index, count)
    for line in sys.stdin:
        if line.strip() != "go":
            break
        for _ in range(reps):
            y = lib.spmv(lo, hi, A, x)
        sys.stdout.write(repr(float(y.sum())) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
