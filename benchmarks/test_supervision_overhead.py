"""Supervision overhead: in-process vs resource-capped child execution.

SpMV and sparse-dense matmul, timed in-process (``_run_single``) and
under :func:`repro.runtime.supervisor.run_supervised` (a resident,
rlimit-capped pool worker; operands and the result cross over shared
memory or the pipe).  All raw numbers go to ``BENCH_PR5.json`` at the
repo root, alongside PR 4's scaling report; the committed file was
recorded when supervision still forked a child per call.

Supervision buys crash containment with a per-invocation tax (dispatch
to the worker, transfer of the output tensor); the point of the report
is to make that tax visible so callers can decide when
``supervised=True`` is worth it.  The assertions only pin sanity —
supervised runs produce identical results and the overhead stays within
an order of magnitude on kernels of this size — because absolute
process costs vary wildly across container configurations.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.benchrecord import report_path
from repro.runtime.supervisor import can_supervise, run_supervised
from repro.workloads import dense_matrix, dense_vector, sparse_matrix

REPORT_PATH = report_path("BENCH_PR5.json")
RESULTS = {}

HAVE_GCC = shutil.which("gcc") is not None
BACKEND = "c" if HAVE_GCC else "python"

pytestmark = pytest.mark.skipif(
    not can_supervise(object()),
    reason="no fork on this platform; supervision needs a recipe per kernel",
)


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    yield
    report = {
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "backend": BACKEND,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "results": RESULTS,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")


def _best(fn, reps=5):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _spmv():
    n = 3000 if BACKEND == "c" else 1200
    A = sparse_matrix(n, n, 0.01, attrs=("i", "j"), seed=1)
    x = dense_vector(n, attr="j", seed=2)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (n,)),
        backend=BACKEND, name="supervise_spmv",
    )
    return kernel, {"A": A, "x": x}


def _matmul():
    n = 3000 if BACKEND == "c" else 300
    k = 512 if BACKEND == "c" else 80
    A = sparse_matrix(n, n, 0.02, attrs=("i", "j"), seed=3)
    B = dense_matrix(n, k, attrs=("j", "k"), seed=4)
    ctx = TypeContext(
        Schema.of(i=None, j=None, k=None),
        {"A": {"i", "j"}, "B": {"j", "k"}},
    )
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("B")), ctx, {"A": A, "B": B},
        OutputSpec(("i", "k"), ("dense", "dense"), (n, k)),
        backend=BACKEND, name="supervise_matmul",
    )
    return kernel, {"A": A, "B": B}


def _measure(name, kernel, tensors):
    ref = kernel._run_single(tensors)
    got = run_supervised(kernel, tensors)
    assert np.array_equal(np.asarray(ref.vals), np.asarray(got.vals)), (
        "supervised result must be bit-identical to the in-process run"
    )
    timings = {
        "in_process": _best(lambda: kernel._run_single(tensors)),
        "supervised": _best(lambda: run_supervised(kernel, tensors)),
    }
    RESULTS[name] = {
        "seconds": timings,
        "overhead_seconds": timings["supervised"] - timings["in_process"],
        "slowdown": timings["supervised"] / timings["in_process"],
    }
    return RESULTS[name]


def test_spmv_supervision_overhead():
    kernel, tensors = _spmv()
    result = _measure("spmv", kernel, tensors)
    # fork + pipe on a vector-sized output: milliseconds, not seconds
    assert result["overhead_seconds"] < 5.0


def test_matmul_supervision_overhead():
    kernel, tensors = _matmul()
    result = _measure("matmul", kernel, tensors)
    assert result["overhead_seconds"] < 5.0
