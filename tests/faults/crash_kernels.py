"""Injected-crash backend kernels for the supervisor tests.

Each class below is a drop-in stand-in for a compiled backend kernel
(the ``kernel._kernel`` callable) that makes a run die in a specific,
reproducible way.  Supervised runs of recipe-carrying kernels execute
on pool workers that rebuild the kernel from its recipe, so the fault
has to travel *in the recipe*: :func:`sabotage_recipe` swaps a built
kernel's recipe for a :class:`FaultyRecipe`, whose worker-side builds
come back with the fault installed — the worker then dies exactly as a
genuinely faulty compiled kernel would, while the host interpreter (and
the test suite) survives to decode the exit status.  :func:`sabotage`
swaps the in-memory handle instead, for recipe-less kernels, whose
fork-per-call child inherits it by memory copy.

``c_segfault_kernel`` goes one step further and compiles a real C
kernel — same signature as the sabotaged kernel, body replaced with an
out-of-contract store through the NULL page — for toolchain-marked
tests that want the crash to originate in actual generated-style code.
"""

from __future__ import annotations

import copy
import ctypes
import dataclasses
import os
import signal
import time
from typing import Optional

from repro.compiler import codegen_c
from repro.compiler.kernel import KernelRecipe


class SegfaultKernel:
    """An out-of-bounds store through the NULL page: dies by SIGSEGV."""

    source = "/* injected fault: out-of-bounds store */"

    def __call__(self, env) -> None:
        ctypes.memset(8, 0, 1)


class OomKernel:
    """Allocates until the ``RLIMIT_AS`` cap, then dies by SIGKILL.

    Inside the rlimit-capped child the allocation loop hits
    ``MemoryError`` quickly; a real OOM-killer victim never gets to see
    that exception — it is killed outright — so this kernel finishes
    the simulation honestly by SIGKILLing itself, leaving the parent a
    signal-shaped exit status to decode.
    """

    source = "/* injected fault: unbounded allocation */"

    def __call__(self, env) -> None:
        hoard = []
        try:
            while True:
                hoard.append(bytearray(16 << 20))
        except MemoryError:
            os.kill(os.getpid(), signal.SIGKILL)


class SpinKernel:
    """An infinite skip loop that never converges: trips the deadline."""

    source = "/* injected fault: non-converging skip loop */"

    def __call__(self, env) -> None:
        while True:
            time.sleep(0.005)


def c_segfault_kernel(kernel) -> codegen_c.CKernel:
    """A real compiled C kernel with ``kernel``'s exact signature whose
    body performs an out-of-contract store (requires a toolchain)."""
    sig_parts = []
    for param in kernel.params:
        ctype = codegen_c.c_type(param.ctype)
        if param.kind == "array":
            sig_parts.append(f"{ctype}* {param.name}")
        else:
            sig_parts.append(f"{ctype} {param.name}")
    name = f"{kernel.name}_oob"
    source = f"""#include <stdint.h>

void {name}({', '.join(sig_parts)}) {{
  volatile int64_t* p = (int64_t*)8;  /* the null page */
  p[0] = 42;
}}
"""
    return codegen_c.CKernel(source, name, kernel.params)


def sabotage(kernel, fake):
    """Swap the compiled backend kernel for ``fake``; returns the
    original so tests can heal the kernel later."""
    original = kernel._kernel
    kernel._kernel = fake
    return original


#: fault name → builder of the stand-in backend kernel for a built kernel
FAULTS = {
    "segfault": lambda kernel: SegfaultKernel(),
    "oom": lambda kernel: OomKernel(),
    "spin": lambda kernel: SpinKernel(),
    "c_oob": c_segfault_kernel,
}


@dataclasses.dataclass(frozen=True)
class FaultyRecipe(KernelRecipe):
    """A kernel recipe whose builds come back with ``fault`` installed.

    ``fault`` is not an ``__init__`` field, so ``dataclasses.replace``
    — how the circuit breaker derives the pure-Python fallback recipe —
    yields a healthy recipe, just as for a genuinely faulty kernel.
    """

    fault: Optional[str] = dataclasses.field(default=None, init=False)

    @classmethod
    def of(cls, recipe: KernelRecipe, fault: str) -> "FaultyRecipe":
        faulty = cls(**{f.name: getattr(recipe, f.name)
                        for f in dataclasses.fields(KernelRecipe)})
        object.__setattr__(faulty, "fault", fault)
        return faulty

    def build(self, cache: bool = True):
        kernel = super().build(cache)
        if self.fault is None:
            return kernel
        # a clone: the build cache's memoized kernel stays healthy
        faulty = copy.copy(kernel)
        faulty._kernel = FAULTS[self.fault](kernel)
        return faulty


def sabotage_recipe(kernel, fault: str):
    """Make every worker-side build of ``kernel`` die with ``fault`` (a
    :data:`FAULTS` name); returns the original recipe so tests can heal
    the kernel later."""
    original = kernel.recipe
    kernel.recipe = FaultyRecipe.of(original, fault)
    return original
