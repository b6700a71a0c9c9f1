"""Sharded parallel execution runtime.

Contraction programs are semiring homomorphisms (Theorem 6.1): a
contraction over an index ``i`` is a ⊕-reduction, so evaluating the
same kernel on a partition of ``i``'s range and combining the partial
results with ⊕ (for contracted indices) or concatenation (for free
indices) is exact — not an approximation — in every semiring.  This
package exploits that:

- :mod:`repro.runtime.planner` picks a split index and nnz-balanced
  range boundaries from the operands' position arrays;
- :mod:`repro.runtime.executor` runs shard tasks on one of four
  backends (``serial`` | ``thread`` | ``process`` | ``pool``) behind a
  single futures API with a bounded task queue;
- :mod:`repro.runtime.merge` combines the partial outputs
  semiring-correctly;
- :mod:`repro.runtime.api` glues them under
  :meth:`repro.compiler.kernel.Kernel.run_sharded` and the
  ``REPRO_PARALLEL`` / ``REPRO_WORKERS`` environment knobs;
- :mod:`repro.runtime.supervisor` contains one kernel invocation in a
  resource-capped process — a resident pool worker, or a child forked
  per call for a recipe-less kernel (``REPRO_SUPERVISE``,
  ``REPRO_KERNEL_DEADLINE``, ``REPRO_KERNEL_MEM_MB``) — so a segfault
  or runaway loop becomes a typed error instead of host death;
- :mod:`repro.runtime.breaker` quarantines kernels that keep dying
  under supervision behind a circuit breaker that serves the
  pure-Python backend until a backoff re-probe succeeds;
- :mod:`repro.runtime.pool` keeps a persistent, pre-warmed set of
  worker processes holding compiled kernels resident
  (``REPRO_POOL_WORKERS``, ``REPRO_POOL_WARM``,
  ``REPRO_POOL_IDLE_TTL``); it is both the ``pool`` shard executor and
  the supervised path of every recipe-carrying kernel;
- :mod:`repro.runtime.shm` is the zero-copy data plane under it:
  operands and results cross the process boundary as shared-memory
  descriptors, not pickles (``REPRO_SHM_THRESHOLD``);
- :mod:`repro.runtime.jobs` checkpoints completed shard partials to an
  atomic, checksummed on-disk journal keyed by a deterministic job
  signature (``REPRO_DURABLE``, ``REPRO_JOB_DIR``), so a run killed
  mid-job resumes instead of restarting;
- :mod:`repro.runtime.governor` bounds resident partial memory
  (``REPRO_MEM_BUDGET_MB``) by spilling to the journal and merging
  with a streaming incremental ⊕-fold — larger-than-RAM contractions.
"""

from repro.runtime.api import ShardStat, run_batch, run_sharded
# the process-wide instance is re-exported as `circuit_breaker`: the
# plain name would shadow the `repro.runtime.breaker` submodule
from repro.runtime.breaker import CircuitBreaker, breaker as circuit_breaker
from repro.runtime.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    discard_shared_executor,
    get_executor,
    get_shared_executor,
    shutdown_shared_executors,
)
from repro.runtime.executor import (
    PoolExecutor,
    register_runtime_shutdown,
    shutdown_shared_runtime,
)
from repro.runtime.governor import PartialAccumulator, partial_nbytes
from repro.runtime.jobs import (
    JobJournal,
    fingerprint_tensor,
    gc_jobs,
    job_root,
    job_signature,
)
from repro.runtime.merge import merge_partials
from repro.runtime.planner import ShardPlan, plan_shards, slice_operands
from repro.runtime.pool import (
    PoolStats,
    PoolUnavailableError,
    WorkerPool,
    get_shared_pool,
    pool_key,
    run_pooled,
    shutdown_shared_pool,
)
from repro.runtime.supervisor import can_supervise, run_supervised

__all__ = [
    "CircuitBreaker",
    "Executor",
    "JobJournal",
    "PartialAccumulator",
    "PoolExecutor",
    "PoolStats",
    "PoolUnavailableError",
    "ProcessExecutor",
    "SerialExecutor",
    "ShardPlan",
    "ShardStat",
    "ThreadExecutor",
    "WorkerPool",
    "can_supervise",
    "circuit_breaker",
    "discard_shared_executor",
    "fingerprint_tensor",
    "gc_jobs",
    "get_executor",
    "get_shared_executor",
    "get_shared_pool",
    "job_root",
    "job_signature",
    "merge_partials",
    "partial_nbytes",
    "plan_shards",
    "pool_key",
    "register_runtime_shutdown",
    "run_batch",
    "run_pooled",
    "run_sharded",
    "run_supervised",
    "shutdown_shared_executors",
    "shutdown_shared_pool",
    "shutdown_shared_runtime",
    "slice_operands",
]
