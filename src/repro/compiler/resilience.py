"""Resilient build & execution utilities for the compiler pipeline.

The compiler built through PR 1 assumed a cooperating environment: gcc
on ``PATH``, a writable cache directory, intact cache artifacts.  This
module centralizes everything needed to degrade gracefully when those
assumptions break:

* **Toolchain probing** — :func:`toolchain`, :func:`toolchain_available`
  (result cached per compiler name; ``REPRO_GCC`` overrides the
  compiler binary, which doubles as a fault-injection hook).
* **Fallback policy** — :func:`fallback_enabled` reads
  ``REPRO_BACKEND_FALLBACK`` (default *on*).  When the C backend cannot
  build, :class:`~repro.compiler.kernel.KernelBuilder` downgrades to
  the Python backend and logs a warning; with fallback disabled the
  typed error propagates instead.
* **Subprocess hardening** — :func:`gcc_timeout` reads
  ``REPRO_GCC_TIMEOUT`` (seconds, default 120); :func:`is_transient`
  classifies failures worth one retry (signals/OS hiccups, not source
  errors).
* **Crash-safe writes** — :func:`atomic_write_text` /
  :func:`atomic_write_bytes` publish files via write-to-temp +
  ``os.replace`` so a concurrent reader never observes a half-written
  artifact; :func:`file_lock` serializes builders racing on one cache
  key.
* **Quarantine** — :func:`quarantine` renames a corrupt artifact to
  ``<name>.corrupt`` (keeping it for post-mortem) so the builder can
  rebuild into a clean slot.

Every recovery path in the package logs through the shared ``repro``
logger (:data:`logger`) — fallbacks are **never** silent.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

try:  # POSIX advisory locks; Windows falls back to O_EXCL spinning
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: name of the default handler :func:`_get_logger` installs exactly once
_HANDLER_NAME = "repro-default"


def _get_logger(name: str = "repro") -> logging.Logger:
    """The shared ``repro`` logger, with its default handler installed
    *idempotently*.

    Worker processes of the parallel runtime re-enter this module —
    spawned workers by re-importing it, forked workers by inheriting the
    parent's already-configured logger and then running their own
    initializer.  Naively calling ``addHandler`` on each entry would
    stack duplicate handlers and every warning would print once per
    (re-)initialization.  Handlers are therefore deduplicated by name:
    if a handler called ``repro-default`` is already attached, the
    logger is returned untouched.
    """
    log = logging.getLogger(name)
    for handler in log.handlers:
        if getattr(handler, "name", None) == _HANDLER_NAME:
            return log
    handler = logging.StreamHandler()
    handler.name = _HANDLER_NAME
    handler.setFormatter(
        logging.Formatter("[%(processName)s] %(name)s %(levelname)s: %(message)s")
    )
    log.addHandler(handler)
    return log


#: the package-wide logger every fallback/recovery path reports through
logger = _get_logger()

ENV_BACKEND_FALLBACK = "REPRO_BACKEND_FALLBACK"
ENV_GCC = "REPRO_GCC"
ENV_GCC_TIMEOUT = "REPRO_GCC_TIMEOUT"
ENV_MAX_CAPACITY = "REPRO_MAX_CAPACITY"
ENV_IR_VERIFY = "REPRO_IR_VERIFY"
ENV_STREAM_VERIFY = "REPRO_STREAM_VERIFY"
ENV_SANITIZE = "REPRO_SANITIZE"
ENV_PARALLEL = "REPRO_PARALLEL"
ENV_WORKERS = "REPRO_WORKERS"
ENV_MP_START = "REPRO_MP_START"
ENV_SUPERVISE = "REPRO_SUPERVISE"
ENV_KERNEL_DEADLINE = "REPRO_KERNEL_DEADLINE"
ENV_KERNEL_MEM_MB = "REPRO_KERNEL_MEM_MB"
ENV_STRICT_LOCKS = "REPRO_STRICT_LOCKS"
ENV_BREAKER_THRESHOLD = "REPRO_BREAKER_THRESHOLD"
ENV_BREAKER_BACKOFF = "REPRO_BREAKER_BACKOFF"
ENV_POOL_WORKERS = "REPRO_POOL_WORKERS"
ENV_POOL_WARM = "REPRO_POOL_WARM"
ENV_POOL_IDLE_TTL = "REPRO_POOL_IDLE_TTL"
ENV_SHM_THRESHOLD = "REPRO_SHM_THRESHOLD"
ENV_STRICT_ENV = "REPRO_STRICT_ENV"
ENV_TUNE = "REPRO_TUNE"
ENV_TUNE_CACHE_DIR = "REPRO_TUNE_CACHE_DIR"
ENV_TUNE_CALIBRATE = "REPRO_TUNE_CALIBRATE"
ENV_DURABLE = "REPRO_DURABLE"
ENV_JOB_DIR = "REPRO_JOB_DIR"
ENV_MEM_BUDGET_MB = "REPRO_MEM_BUDGET_MB"
ENV_FAULT = "REPRO_FAULT"
ENV_BREAKER_TTL = "REPRO_BREAKER_TTL"

DEFAULT_GCC_TIMEOUT = 120.0
DEFAULT_KERNEL_DEADLINE = 60.0
DEFAULT_BREAKER_THRESHOLD = 3
DEFAULT_BREAKER_BACKOFF = 30.0
#: closed, untouched breaker records older than this are swept (seconds)
DEFAULT_BREAKER_TTL = 7 * 24 * 3600.0
DEFAULT_POOL_IDLE_TTL = 300.0
#: operand/result payloads below this many bytes travel inline over the
#: pipe; at or above it they go through a shared-memory segment
DEFAULT_SHM_THRESHOLD = 16384

_FALSEY = ("0", "off", "no", "false")


# ----------------------------------------------------------------------
# typed environment parsing
# ----------------------------------------------------------------------
def strict_env() -> bool:
    """Whether an unparsable ``REPRO_*`` value raises a typed
    :class:`~repro.errors.ConfigError` at read time instead of the
    default warn-and-use-default policy (``REPRO_STRICT_ENV``, default
    off).  Deployments that would rather fail to boot than run with a
    silently ignored knob set this; the ``REPRO_SERVE_*`` family is
    always strict."""
    raw = os.environ.get(ENV_STRICT_ENV, "")
    return bool(raw) and raw.lower() not in _FALSEY


def _env_invalid(name: str, raw: str, reason: str, default, *, strict=None):
    """One invalid environment value, handled by policy.

    Default: log a warning naming the variable and return ``default``
    (configuration mistakes must not take down a running library
    call).  Under ``REPRO_STRICT_ENV=1`` — or when the caller forces
    ``strict=True``, as the serve config does — raise a typed
    :class:`~repro.errors.ConfigError` instead, once, at read time.
    """
    from repro.errors import ConfigError

    if strict if strict is not None else strict_env():
        raise ConfigError(name, raw, reason)
    logger.warning("ignoring invalid %s=%r (%s); using %r",
                   name, raw, reason, default)
    return default


def env_int(
    name: str,
    default: Optional[int],
    *,
    minimum: Optional[int] = None,
    strict: Optional[bool] = None,
) -> Optional[int]:
    """``int(os.environ[name])`` with validation at read time.

    Unset/empty returns ``default``.  A non-numeric value, or one below
    ``minimum``, follows the invalid-value policy (warn + default, or
    :class:`~repro.errors.ConfigError` when strict).
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        return _env_invalid(name, raw, "not an integer", default,
                            strict=strict)
    if minimum is not None and value < minimum:
        return _env_invalid(name, raw, f"must be >= {minimum}", default,
                            strict=strict)
    return value


def env_float(
    name: str,
    default: Optional[float],
    *,
    minimum: Optional[float] = None,
    strict: Optional[bool] = None,
) -> Optional[float]:
    """``float(os.environ[name])`` with validation at read time (same
    policy as :func:`env_int`)."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw)
    except ValueError:
        return _env_invalid(name, raw, "non-numeric", default,
                            strict=strict)
    if minimum is not None and value < minimum:
        return _env_invalid(name, raw, f"must be >= {minimum}", default,
                            strict=strict)
    return value


def env_flag(name: str, default: bool) -> bool:
    """Boolean knob: unset/empty → ``default``; any of ``0/off/no/
    false`` (case-insensitive) → False; anything else → True.  Never
    invalid, so never strict."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    return raw.strip().lower() not in _FALSEY

#: sanitizers the build layer knows how to wire up
KNOWN_SANITIZERS = ("address", "undefined")

#: executor backends of :mod:`repro.runtime` selectable via REPRO_PARALLEL
KNOWN_EXECUTORS = ("serial", "thread", "process", "pool")


def fallback_enabled() -> bool:
    """Whether a failed C build may downgrade to the Python backend."""
    return os.environ.get(ENV_BACKEND_FALLBACK, "1").lower() not in _FALSEY


def tune_mode() -> Optional[str]:
    """The autotuner routing requested via ``REPRO_TUNE``.

    Returns ``None`` when unset/empty (caller decides its own default;
    the library default is off, the serve default is auto), ``"off"``
    for any falsey spelling, ``"auto"`` for ``auto/on/1/true/yes``.  An
    unrecognized value warns and behaves as unset — tuning is an
    optimization, a typo must not change semantics."""
    raw = os.environ.get(ENV_TUNE, "").strip().lower()
    if not raw:
        return None
    if raw in _FALSEY:
        return "off"
    if raw in ("auto", "on", "1", "true", "yes"):
        return "auto"
    logger.warning("ignoring invalid %s=%r (expected off/auto)", ENV_TUNE, raw)
    return None


def ir_verify_enabled() -> bool:
    """Whether the optimizer verifies its IR after every pass
    (``REPRO_IR_VERIFY``, default off; any truthy value enables)."""
    raw = os.environ.get(ENV_IR_VERIFY, "")
    return bool(raw) and raw.lower() not in _FALSEY


def stream_verify_enabled() -> bool:
    """Whether :meth:`KernelBuilder.prepare` statically verifies stream
    properties (monotonicity, lawfulness, termination, semiring-law
    obligations) before lowering (``REPRO_STREAM_VERIFY``, default
    **on** — unlike the IR verifier, the stream pass is a few dict
    lookups per AST node, cheap enough to always run)."""
    return env_flag(ENV_STREAM_VERIFY, True)


def sanitize_modes() -> tuple:
    """The requested sanitizers, parsed from ``REPRO_SANITIZE``.

    The value is a comma-separated subset of ``address``/``undefined``
    (e.g. ``REPRO_SANITIZE=address,undefined``).  Unknown entries are
    logged and ignored rather than breaking the build.  The C backend
    maps these to ``-fsanitize=`` flags; the Python backend treats any
    requested sanitizer as "emit the checked, bounds-verified kernel".
    """
    raw = os.environ.get(ENV_SANITIZE, "")
    if not raw or raw.lower() in _FALSEY:
        return ()
    modes = []
    for part in raw.split(","):
        part = part.strip().lower()
        if not part:
            continue
        if part not in KNOWN_SANITIZERS:
            logger.warning(
                "ignoring unknown sanitizer %r in %s=%r (known: %s)",
                part, ENV_SANITIZE, raw, ", ".join(KNOWN_SANITIZERS),
            )
            continue
        if part not in modes:
            modes.append(part)
    # canonical (sorted) so equivalent spellings share cache keys
    return tuple(sorted(modes))


def parallel_backend() -> Optional[str]:
    """The executor the sharded runtime should default to.

    ``REPRO_PARALLEL`` selects one of ``serial``/``thread``/``process``
    (``serial`` shards and merges but runs shards inline — the debug
    oracle).  Unset, empty, or falsey means "no sharding": every
    ``Kernel.run`` stays the single-shot fused kernel.  An unknown value
    is logged and ignored rather than breaking execution.
    """
    raw = os.environ.get(ENV_PARALLEL, "").strip().lower()
    if not raw or raw in _FALSEY:
        return None
    if raw not in KNOWN_EXECUTORS:
        logger.warning(
            "ignoring unknown executor %s=%r (known: %s)",
            ENV_PARALLEL, raw, ", ".join(KNOWN_EXECUTORS),
        )
        return None
    return raw


def worker_count(default: Optional[int] = None) -> int:
    """Worker count for parallel executors (``REPRO_WORKERS`` override,
    then ``default``, then the machine's CPU count)."""
    value = env_int(ENV_WORKERS, None, minimum=1)
    if value is not None:
        return value
    if default is not None:
        return int(default)
    return max(1, os.cpu_count() or 1)


def mp_start_method() -> str:
    """The multiprocessing start method for process workers.

    Defaults to ``spawn``: workers then genuinely rebuild their kernels
    from the on-disk cache tier (a forked worker would inherit the
    parent's in-memory memo, hiding cold-start bugs), and the ctypes
    handles of loaded ``.so`` files are never shared across a fork.
    ``REPRO_MP_START=fork`` opts into the faster fork start on POSIX.
    """
    raw = os.environ.get(ENV_MP_START, "").strip().lower()
    if raw in ("fork", "spawn", "forkserver"):
        return raw
    if raw:
        logger.warning("ignoring unknown start method %s=%r", ENV_MP_START, raw)
    return "spawn"


def supervise_mode() -> Optional[bool]:
    """The three-valued ``REPRO_SUPERVISE`` policy.

    ``True``: every ``Kernel.run`` executes in a supervised child;
    ``False``: supervision is off even for at-risk kernels; ``None``
    (unset/empty): the automatic policy — C-backed kernels whose
    capacity lint could not prove every output store in bounds
    (``Kernel.needs_guard``) run supervised, everything else in
    process.
    """
    raw = os.environ.get(ENV_SUPERVISE, "").strip().lower()
    if not raw:
        return None
    return raw not in _FALSEY


def kernel_deadline() -> float:
    """Wall-clock budget for one supervised kernel run, in seconds
    (``REPRO_KERNEL_DEADLINE``, default 60)."""
    value = env_float(ENV_KERNEL_DEADLINE, None, minimum=0.0)
    if value is None or value <= 0:
        return DEFAULT_KERNEL_DEADLINE
    return value


def repro_env() -> Dict[str, str]:
    """The ``REPRO_*`` knobs a worker process must inherit verbatim.

    ``spawn`` children do inherit ``os.environ``, but only the state at
    ``Popen`` time — a pool worker respawned after a crash could see a
    parent that has since mutated its environment.  Passing an explicit
    snapshot pins the configuration the pool was created under.
    """
    # keys first: ``os.environ.items()`` decodes every value, ~2.5x slower
    return {k: os.environ[k] for k in os.environ if k.startswith("REPRO_")}


def kernel_mem_mb() -> Optional[int]:
    """``RLIMIT_AS`` cap for a supervised kernel child, in MiB
    (``REPRO_KERNEL_MEM_MB``; default None = no address-space cap)."""
    return env_int(ENV_KERNEL_MEM_MB, None, minimum=1)


def strict_locks() -> bool:
    """Whether a build-lock timeout raises :class:`~repro.errors.LockTimeoutError`
    instead of degrading to an unlocked (but still atomic) build
    (``REPRO_STRICT_LOCKS``, default off)."""
    raw = os.environ.get(ENV_STRICT_LOCKS, "")
    return bool(raw) and raw.lower() not in _FALSEY


def breaker_threshold() -> int:
    """Supervised crashes/timeouts before the circuit breaker opens
    (``REPRO_BREAKER_THRESHOLD``, default 3)."""
    value = env_int(ENV_BREAKER_THRESHOLD, None, minimum=1)
    return DEFAULT_BREAKER_THRESHOLD if value is None else value


def breaker_backoff() -> float:
    """Base re-probe delay of an open circuit breaker, in seconds
    (``REPRO_BREAKER_BACKOFF``, default 30; doubles per failed probe,
    with jitter)."""
    value = env_float(ENV_BREAKER_BACKOFF, None, minimum=0.0)
    return DEFAULT_BREAKER_BACKOFF if value is None else value


def pool_workers(default: Optional[int] = None) -> int:
    """Resident worker count for the persistent pool
    (``REPRO_POOL_WORKERS`` override, else :func:`worker_count`)."""
    value = env_int(ENV_POOL_WORKERS, None, minimum=1)
    return worker_count(default) if value is None else value


def pool_warm_enabled() -> bool:
    """Whether new/replacement pool workers are proactively warmed with
    every recipe the pool has seen (``REPRO_POOL_WARM``, default on).
    Off, recipes still ship lazily — once per worker per cache key — on
    first use."""
    return os.environ.get(ENV_POOL_WARM, "1").lower() not in _FALSEY


def pool_idle_ttl() -> Optional[float]:
    """Seconds an idle pool worker beyond the first may live before
    eviction (``REPRO_POOL_IDLE_TTL``, default 300; ``0``/falsey
    disables eviction)."""
    raw = os.environ.get(ENV_POOL_IDLE_TTL)
    if raw is None or not raw.strip():
        return DEFAULT_POOL_IDLE_TTL
    if raw.strip().lower() in _FALSEY:
        return None
    value = env_float(ENV_POOL_IDLE_TTL, DEFAULT_POOL_IDLE_TTL, minimum=0.0)
    return value if value else None


def shm_threshold() -> int:
    """Minimum payload size, in bytes, that travels through a
    shared-memory segment instead of the pickle pipe
    (``REPRO_SHM_THRESHOLD``; ``0`` forces shm for everything)."""
    value = env_int(ENV_SHM_THRESHOLD, DEFAULT_SHM_THRESHOLD, minimum=0)
    return DEFAULT_SHM_THRESHOLD if value is None else value


def durable_enabled() -> bool:
    """Whether sharded runs journal completed shard partials to disk by
    default (``REPRO_DURABLE``, default off).  The explicit
    ``run_sharded(durable=...)`` argument overrides the environment."""
    return env_flag(ENV_DURABLE, False)


def job_dir_env() -> Optional[str]:
    """The directory job journals live under (``REPRO_JOB_DIR``; default
    ``<kernel cache dir>/jobs``)."""
    raw = os.environ.get(ENV_JOB_DIR)
    if raw is None or not raw.strip():
        return None
    return raw.strip()


def mem_budget_mb() -> Optional[float]:
    """Resident-partial memory budget for sharded runs, in MiB
    (``REPRO_MEM_BUDGET_MB``; default None = unbounded).  When set, the
    memory governor spills accumulated shard partials to the job
    journal and merges with a streaming ⊕-fold instead of holding every
    partial resident."""
    value = env_float(ENV_MEM_BUDGET_MB, None, minimum=0.0)
    if value is not None and value <= 0:
        return None
    return value


def breaker_ttl() -> Optional[float]:
    """Age past which a *closed*, untouched on-disk breaker record is
    swept on breaker load, in seconds (``REPRO_BREAKER_TTL``, default
    7 days; ``0``/falsey disables the sweep)."""
    raw = os.environ.get(ENV_BREAKER_TTL)
    if raw is None or not raw.strip():
        return DEFAULT_BREAKER_TTL
    if raw.strip().lower() in _FALSEY:
        return None
    value = env_float(ENV_BREAKER_TTL, DEFAULT_BREAKER_TTL, minimum=0.0)
    return value if value else None


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
_fault_lock = threading.Lock()
_fault_hits: Dict[str, int] = {}
_fault_fired: Dict[str, bool] = {}


def reset_fault_counters() -> None:
    """Forget which fault sites have been hit/fired (tests)."""
    with _fault_lock:
        _fault_hits.clear()
        _fault_fired.clear()


def _parse_fault_spec(raw: str):
    """``<site>[:<mode>[:<n>]]`` → ``(site, mode, n)`` or ``None``."""
    parts = [p.strip() for p in raw.split(":")]
    site = parts[0]
    mode = parts[1].lower() if len(parts) > 1 and parts[1] else "raise"
    if not site:
        return None
    if mode not in ("raise", "sigkill"):
        logger.warning("ignoring invalid %s=%r (unknown mode %r; "
                       "expected raise/sigkill)", ENV_FAULT, raw, mode)
        return None
    n = 1
    if len(parts) > 2 and parts[2]:
        try:
            n = int(parts[2])
        except ValueError:
            logger.warning("ignoring invalid %s=%r (hit count %r not an "
                           "integer)", ENV_FAULT, raw, parts[2])
            return None
        if n < 1:
            logger.warning("ignoring invalid %s=%r (hit count must be >= 1)",
                           ENV_FAULT, raw)
            return None
    return site, mode, n


def fault_point(site: str) -> None:
    """A named fault-injection site for chaos tests.

    ``REPRO_FAULT=<site>[:<mode>[:<n>]]`` arms exactly one site per
    process: on the *n*-th hit (default: the first) of the named site
    the hook fires once — ``raise`` mode (the default) raises
    :class:`~repro.errors.InjectedFault`, ``sigkill`` mode delivers
    ``SIGKILL`` to the current process, simulating the OOM killer.
    Subsequent hits pass through, so an in-process re-run after a
    ``raise``-mode failure completes normally.  Unset, or armed for a
    different site, the call is a no-op (one dict lookup).

    Production code calls this at the handful of places chaos tests
    need to kill: after a shard partial is journaled (``shard``),
    before the merge (``merge``), and at the top of the supervised
    child (``supervised_child``).
    """
    raw = os.environ.get(ENV_FAULT, "").strip()
    if not raw:
        return
    spec = _parse_fault_spec(raw)
    if spec is None or spec[0] != site:
        return
    _, mode, n = spec
    with _fault_lock:
        if _fault_fired.get(site):
            return
        _fault_hits[site] = _fault_hits.get(site, 0) + 1
        if _fault_hits[site] < n:
            return
        _fault_fired[site] = True
    if mode == "sigkill":
        import signal as _signal

        logger.warning("fault injection: SIGKILL at site %r", site)
        os.kill(os.getpid(), _signal.SIGKILL)
        return  # pragma: no cover - unreachable
    from repro.errors import InjectedFault

    raise InjectedFault(site)


def signal_name(signum: int) -> str:
    """Symbolic name of a signal number (``SIG<n>`` when unknown)."""
    from repro.errors import _signal_name

    return _signal_name(signum)


def toolchain() -> str:
    """The C compiler binary (``REPRO_GCC`` override, default ``gcc``)."""
    return os.environ.get(ENV_GCC, "gcc")


def gcc_timeout() -> float:
    """Wall-clock budget for one compiler invocation, in seconds."""
    value = env_float(ENV_GCC_TIMEOUT, DEFAULT_GCC_TIMEOUT, minimum=0.0)
    if value is None or value <= 0:
        return DEFAULT_GCC_TIMEOUT
    return value


def max_auto_capacity() -> Optional[int]:
    """Optional global ceiling for capacity auto-growth."""
    return env_int(ENV_MAX_CAPACITY, None, minimum=1)


_probe_lock = threading.Lock()
_probe_cache: Dict[str, bool] = {}


def toolchain_available(refresh: bool = False) -> bool:
    """Whether the configured C compiler is on ``PATH`` (probe cached
    per compiler name; ``refresh=True`` re-probes)."""
    cc = toolchain()
    with _probe_lock:
        if refresh or cc not in _probe_cache:
            _probe_cache[cc] = shutil.which(cc) is not None
        return _probe_cache[cc]


def reset_probe_cache() -> None:
    """Forget probe results (tests; after installing a toolchain)."""
    with _probe_lock:
        _probe_cache.clear()


def is_transient(
    returncode: Optional[int], seen_signals: Iterable[int] = ()
) -> bool:
    """Whether a compiler exit status is worth one retry.

    Death by signal (negative returncode on POSIX) usually means an OOM
    kill or an external interruption, not a defect in the generated
    source; a regular nonzero exit is a real compile error and retrying
    would only fail identically.

    ``seen_signals`` is the set of signal numbers that already killed a
    previous attempt of the *same* build: a toolchain SIGKILLed twice is
    being OOM-killed deterministically, and hammering it a third time
    only makes the memory pressure worse — one retry per signal, then
    fail with an actionable message.
    """
    if returncode is None or returncode >= 0:
        return False
    return -returncode not in set(seen_signals)


# ----------------------------------------------------------------------
# crash-safe filesystem primitives
# ----------------------------------------------------------------------
def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` so readers see old-or-new, never half."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    atomic_write_bytes(path, text.encode())


def _lock_timed_out(lock_path: str, timeout: float) -> None:
    """Policy for a lock still busy at its deadline: *never* a silent
    downgrade.  Default — warn and let the caller continue unlocked
    (artifact publication is atomic, so the worst case is duplicated
    work); under ``REPRO_STRICT_LOCKS=1`` — raise a typed
    :class:`~repro.errors.LockTimeoutError` so fault harnesses (and
    strict deployments) can assert on the condition instead of racing.
    """
    from repro.errors import LockTimeoutError

    if strict_locks():
        raise LockTimeoutError(
            f"build lock {lock_path} still busy after {timeout:.1f}s "
            f"({ENV_STRICT_LOCKS}=1: failing instead of running unlocked)",
            path=lock_path, timeout=timeout,
        )
    logger.warning(
        "lock %s busy past its %.1fs timeout; continuing unlocked "
        "(set %s=1 to fail instead)",
        lock_path, timeout, ENV_STRICT_LOCKS,
    )


@contextmanager
def file_lock(path: Union[str, Path], timeout: float = 60.0):
    """An advisory per-key lock for concurrent builders.

    ``path`` names the artifact being built; the lock itself lives in a
    sibling ``<name>.lock`` file.  Uses ``flock`` where available and
    falls back to ``O_CREAT|O_EXCL`` spinning otherwise.  Lock
    *failures* (read-only directory, exotic filesystems) degrade to
    running unlocked — the artifacts themselves are still published
    atomically, so the worst case is duplicated work, never corruption.
    A lock that stays *busy* past ``timeout`` is different: that is
    logged as a warning, and under ``REPRO_STRICT_LOCKS=1`` raises
    :class:`~repro.errors.LockTimeoutError` instead of continuing.
    """
    lock_path = str(path) + ".lock"
    if fcntl is not None:
        fd = None
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:
            logger.debug("could not lock %s; continuing unlocked", lock_path)
        if fd is not None:
            deadline = time.monotonic() + timeout
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() >= deadline:
                        os.close(fd)
                        fd = None
                        _lock_timed_out(lock_path, timeout)  # may raise
                        break
                    time.sleep(0.02)
                except OSError:
                    os.close(fd)
                    fd = None
                    logger.debug("could not lock %s; continuing unlocked", lock_path)
                    break
        try:
            yield
        finally:
            if fd is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                finally:
                    os.close(fd)
        return
    # portable fallback: exclusive-create spin lock  # pragma: no cover
    deadline = time.monotonic() + timeout
    fd = None
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if time.monotonic() >= deadline:
                _lock_timed_out(lock_path, timeout)  # may raise
                break
            time.sleep(0.05)
        except OSError:
            logger.debug("could not lock %s; continuing unlocked", lock_path)
            break
    try:
        yield
    finally:
        if fd is not None:
            os.close(fd)
            try:
                os.unlink(lock_path)
            except OSError:
                pass


def quarantine(path: Union[str, Path]) -> Optional[Path]:
    """Move a corrupt artifact aside to ``<name>.corrupt``.

    Returns the quarantine path, or ``None`` when the rename failed
    (read-only directory) — callers must then build elsewhere.  The bad
    bytes are kept, not deleted, so corruption can be diagnosed later.
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:
        logger.warning("could not quarantine corrupt artifact %s", path)
        return None
    logger.warning("quarantined corrupt artifact %s -> %s", path, target.name)
    return target


def usable_cache_dir(preferred: Union[str, Path]) -> str:
    """``preferred`` if it can be created, else a temp-dir fallback.

    An unusable ``REPRO_KERNEL_CACHE_DIR`` (missing parent, file in the
    way, no permissions) must never break compilation — artifacts have
    to land somewhere.  The downgrade is logged, never silent.
    """
    preferred = str(preferred)
    try:
        os.makedirs(preferred, exist_ok=True)
        return preferred
    except OSError as exc:
        fallback = os.path.join(tempfile.gettempdir(), "repro_kernels")
        logger.warning(
            "cache directory %s unusable (%s); falling back to %s",
            preferred, exc, fallback,
        )
        os.makedirs(fallback, exist_ok=True)
        return fallback


__all__ = [
    "logger",
    "ENV_BACKEND_FALLBACK",
    "ENV_GCC",
    "ENV_GCC_TIMEOUT",
    "ENV_MAX_CAPACITY",
    "ENV_IR_VERIFY",
    "ENV_STREAM_VERIFY",
    "ENV_SANITIZE",
    "ENV_PARALLEL",
    "ENV_WORKERS",
    "ENV_MP_START",
    "ENV_SUPERVISE",
    "ENV_KERNEL_DEADLINE",
    "ENV_KERNEL_MEM_MB",
    "ENV_STRICT_LOCKS",
    "ENV_BREAKER_THRESHOLD",
    "ENV_BREAKER_BACKOFF",
    "ENV_POOL_WORKERS",
    "ENV_POOL_WARM",
    "ENV_POOL_IDLE_TTL",
    "ENV_SHM_THRESHOLD",
    "ENV_STRICT_ENV",
    "ENV_TUNE",
    "ENV_TUNE_CACHE_DIR",
    "ENV_TUNE_CALIBRATE",
    "ENV_DURABLE",
    "ENV_JOB_DIR",
    "ENV_MEM_BUDGET_MB",
    "ENV_FAULT",
    "ENV_BREAKER_TTL",
    "env_int",
    "env_float",
    "env_flag",
    "strict_env",
    "KNOWN_SANITIZERS",
    "KNOWN_EXECUTORS",
    "DEFAULT_GCC_TIMEOUT",
    "DEFAULT_KERNEL_DEADLINE",
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_BREAKER_BACKOFF",
    "DEFAULT_BREAKER_TTL",
    "DEFAULT_POOL_IDLE_TTL",
    "DEFAULT_SHM_THRESHOLD",
    "parallel_backend",
    "worker_count",
    "mp_start_method",
    "supervise_mode",
    "kernel_deadline",
    "kernel_mem_mb",
    "repro_env",
    "strict_locks",
    "breaker_threshold",
    "breaker_backoff",
    "pool_workers",
    "pool_warm_enabled",
    "pool_idle_ttl",
    "shm_threshold",
    "durable_enabled",
    "job_dir_env",
    "mem_budget_mb",
    "breaker_ttl",
    "fault_point",
    "reset_fault_counters",
    "signal_name",
    "fallback_enabled",
    "tune_mode",
    "ir_verify_enabled",
    "stream_verify_enabled",
    "sanitize_modes",
    "toolchain",
    "toolchain_available",
    "reset_probe_cache",
    "gcc_timeout",
    "max_auto_capacity",
    "is_transient",
    "atomic_write_bytes",
    "atomic_write_text",
    "file_lock",
    "quarantine",
    "usable_cache_dir",
]
