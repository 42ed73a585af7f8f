"""Compiled kernel backend: the top rung of the degradation ladder.

The accounting hot path of the accelerated evaluator spends most of a
memo-cleared generation in two pure-Python scalar loops — the Opt
batch's per-representative invocation propagation
(:meth:`EvaluationAccelerator._propagate`) and the adaptive kernel's
per-column propagation chains.  This module compiles those loops and
selects an implementation at runtime through the graceful-degradation
ladder the rest of the perf stack already follows::

    cext (a cc-built C extension) -> numpy -> serial memoized ->
    reference

A missing compiler never breaks a run: resolution failures of any kind
yield ``None`` and the callers keep their NumPy/Python paths.  The
selected rung is announced once per process through the telemetry
layer (``perf.backend_selected`` event and the
``repro_backend_selected_total`` metric family).

**Bitwise identity is the contract**, exactly as for every other rung:
the compiled kernels replace only *scalar* loops whose operation order
is fully determined, where a C double performs the
identical IEEE-754 operation sequence as the interpreter.  NumPy
reductions (``ndarray.sum``, ``np.dot``) are never reimplemented here —
their pairwise/BLAS accumulation order is an implementation detail the
repo must reproduce, so :func:`repro.perf.batch.batched_cache_pressure`
and every other reduction stay in NumPy regardless of the backend.

Selection is overridable with the ``REPRO_KERNEL_BACKEND`` environment
variable: ``auto`` (default), ``cext`` (force the compiled rung;
resolution still degrades to ``None`` when it is unavailable) or
``numpy`` (disable compiled kernels entirely — a CI leg pins this to
prove clean degradation).

The C extension is built on demand — ``cc -O2 -fPIC -shared`` into a
per-user cache directory keyed by the source hash — and loaded through
:mod:`ctypes`; no build step, no install-time compilation, and a
container without a C compiler simply resolves to the numpy rung.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from typing import Optional

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "ENV_BACKEND",
    "KernelBackend",
    "get_backend",
    "backend_for",
    "available_backends",
    "reset_backend_cache",
]

_log = logging.getLogger("repro.perf.native")

#: environment override for backend selection
ENV_BACKEND = "REPRO_KERNEL_BACKEND"

#: environment override for the compiled-kernel cache directory
ENV_CACHE = "REPRO_KERNEL_CACHE"

#: ladder order of the compiled rungs
_COMPILED_RUNGS = ("cext",)

_MISSING_VERSION = (
    "method {mid} of {name!r} is invoked but has no compiled version"
)


def _kernel_source_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")


def _cache_dir() -> str:
    override = os.environ.get(ENV_CACHE)
    if override:
        return override
    return os.path.join(
        tempfile.gettempdir(), f"repro-kernels-{os.getuid() if hasattr(os, 'getuid') else 'u'}"
    )


def _find_compiler() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _build_shared_object() -> Optional[str]:
    """Compile ``_kernels.c`` into the cache dir; return the .so path.

    The object name is keyed by the source hash, so editing the source
    invalidates stale builds; the compile goes to a temp file first and
    is published with an atomic ``os.replace`` (concurrent builders
    race benignly to the same bytes).  Any failure returns None.
    """
    source = _kernel_source_path()
    try:
        with open(source, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    digest = hashlib.sha256(blob).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro_kernels_{digest}.so")
    if os.path.exists(so_path):
        return so_path
    compiler = _find_compiler()
    if compiler is None:
        return None
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        cmd = [compiler, "-O2", "-fPIC", "-shared", "-o", tmp, source]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            _log.info("kernel compile failed: %s", proc.stderr.strip())
            os.unlink(tmp)
            return None
        os.replace(tmp, so_path)
        return so_path
    except (OSError, subprocess.SubprocessError) as exc:
        _log.info("kernel compile failed: %s", exc)
        return None


class KernelBackend:
    """One resolved compiled implementation of the two kernels.

    ``name`` is the rung ("cext").  Both entry points take
    contiguous arrays, run the compiled loop and raise the reference's
    :class:`~repro.errors.SimulationError` on a missing compiled
    version; any *infrastructure* failure (a bad load, an interface
    mismatch) surfaces as an ordinary exception that the callers catch
    to fall down the ladder.
    """

    #: target footprint of one representative block's method-major
    #: scratch — half a typical L2's worth of doubles, so a block's
    #: working set survives the walk over the program's cache entries
    BLOCK_TARGET_BYTES = 262144

    def __init__(
        self,
        name,
        opt_fn,
        adaptive_fn,
        opt_blocked_fn=None,
        adaptive_blocked_fn=None,
    ) -> None:
        self.name = name
        self._opt_fn = opt_fn
        self._adaptive_fn = adaptive_fn
        self._opt_blocked_fn = opt_blocked_fn
        self._adaptive_blocked_fn = adaptive_blocked_fn
        # per-method-count scratch pool for the counts output.  A
        # generation's counts matrix is ~1 MB — above glibc's mmap
        # threshold — so a fresh allocation per call costs an mmap plus
        # page faults inside the kernel's first touch, which can double
        # the kernel's apparent cost.  Callers (batch/adaptive
        # accounting) fully consume the matrix before the next call, so
        # handing back the same buffer is safe.
        self._scratch: dict = {}
        # (n_methods, block) method-major working matrices for the
        # blocked kernels, keyed by method count (the block width is a
        # pure function of it)
        self._block_pool: dict = {}

    def _counts_buffer(self, n_reps: int, n_methods: int) -> np.ndarray:
        buf = self._scratch.get(n_methods)
        if buf is None or buf.shape[0] < n_reps:
            buf = np.empty((n_reps, n_methods), dtype=np.float64)
            self._scratch[n_methods] = buf
        return buf[:n_reps]

    def block_width(self, n_methods: int) -> int:
        """Representatives per cache block for an *n_methods* program."""
        return max(1, self.BLOCK_TARGET_BYTES // (8 * max(1, n_methods)))

    def _block_scratch(self, n_methods: int, block: int) -> np.ndarray:
        buf = self._block_pool.get(n_methods)
        if buf is None or buf.shape[1] < block:
            buf = np.empty((n_methods, block), dtype=np.float64)
            self._block_pool[n_methods] = buf
        return buf

    # ------------------------------------------------------------------
    def opt_propagate_batch(
        self,
        resolved: np.ndarray,
        entry_id: int,
        self_rate: np.ndarray,
        edge_offsets: np.ndarray,
        edge_callees: np.ndarray,
        edge_rates: np.ndarray,
        program_name: str = "?",
    ) -> np.ndarray:
        """Invocation counts for a batch of Opt representative rows.

        Bitwise equal, row by row, to
        :meth:`EvaluationAccelerator._propagate` on that row alone.
        """
        resolved = np.ascontiguousarray(resolved, dtype=np.int64)
        n_reps, n_methods = resolved.shape
        counts = self._counts_buffer(n_reps, n_methods)
        err = self._opt_fn(
            n_reps,
            n_methods,
            int(entry_id),
            resolved,
            np.ascontiguousarray(self_rate, dtype=np.float64),
            np.ascontiguousarray(edge_offsets, dtype=np.int64),
            np.ascontiguousarray(edge_callees, dtype=np.int64),
            np.ascontiguousarray(edge_rates, dtype=np.float64),
            counts,
        )
        if err:
            mid = -int(err) - 1
            raise SimulationError(
                _MISSING_VERSION.format(mid=mid, name=program_name)
            )
        return counts

    def adaptive_propagate_matrix(
        self,
        entry_matrix: np.ndarray,
        entry_id: int,
        promoted_slot: np.ndarray,
        entry_self_rate: np.ndarray,
        entry_offsets: np.ndarray,
        entry_callees: np.ndarray,
        entry_rates: np.ndarray,
        base_present: np.ndarray,
        base_self_rate: np.ndarray,
        base_offsets: np.ndarray,
        base_callees: np.ndarray,
        base_rates: np.ndarray,
        program_name: str = "?",
    ) -> np.ndarray:
        """Invocation counts for a batch of Adapt representatives.

        Returns ``(n_reps, n_methods)``; row ``r`` is bitwise equal to
        :meth:`EvaluationAccelerator._propagate_adaptive` for
        representative ``r``.
        """
        entry_matrix = np.ascontiguousarray(entry_matrix, dtype=np.int64)
        n_reps, n_promoted = entry_matrix.shape
        n_methods = len(promoted_slot)
        counts = self._counts_buffer(n_reps, n_methods)
        err = self._adaptive_fn(
            n_reps,
            n_methods,
            int(entry_id),
            n_promoted,
            entry_matrix,
            np.ascontiguousarray(promoted_slot, dtype=np.int64),
            np.ascontiguousarray(entry_self_rate, dtype=np.float64),
            np.ascontiguousarray(entry_offsets, dtype=np.int64),
            np.ascontiguousarray(entry_callees, dtype=np.int64),
            np.ascontiguousarray(entry_rates, dtype=np.float64),
            np.ascontiguousarray(base_present, dtype=np.uint8),
            np.ascontiguousarray(base_self_rate, dtype=np.float64),
            np.ascontiguousarray(base_offsets, dtype=np.int64),
            np.ascontiguousarray(base_callees, dtype=np.int64),
            np.ascontiguousarray(base_rates, dtype=np.float64),
            counts,
        )
        if err:
            mid = -int(err) - 1
            raise SimulationError(
                _MISSING_VERSION.format(mid=mid, name=program_name)
            )
        return counts

    # ------------------------------------------------------------------
    # cache-blocked entry points (multi-representative calls)
    # ------------------------------------------------------------------
    def opt_propagate_blocked(
        self,
        resolved: np.ndarray,
        entry_id: int,
        self_rate: np.ndarray,
        edge_offsets: np.ndarray,
        edge_callees: np.ndarray,
        edge_rates: np.ndarray,
        program_name: str = "?",
    ) -> np.ndarray:
        """Blocked twin of :meth:`opt_propagate_batch`.

        Same inputs, same bitwise-identical output rows; the kernel
        walks methods in the outer loop over blocks of representatives
        so each cache entry's CSR row is applied to a whole block while
        hot.  Falls back to the rep-major kernel when this rung has no
        blocked implementation.
        """
        if self._opt_blocked_fn is None:
            return self.opt_propagate_batch(
                resolved, entry_id, self_rate,
                edge_offsets, edge_callees, edge_rates,
                program_name=program_name,
            )
        resolved = np.ascontiguousarray(resolved, dtype=np.int64)
        n_reps, n_methods = resolved.shape
        block = self.block_width(n_methods)
        scratch = self._block_scratch(n_methods, block)
        counts = self._counts_buffer(n_reps, n_methods)
        err = self._opt_blocked_fn(
            n_reps,
            n_methods,
            int(entry_id),
            block,
            resolved,
            np.ascontiguousarray(self_rate, dtype=np.float64),
            np.ascontiguousarray(edge_offsets, dtype=np.int64),
            np.ascontiguousarray(edge_callees, dtype=np.int64),
            np.ascontiguousarray(edge_rates, dtype=np.float64),
            scratch,
            counts,
        )
        if err:
            mid = -int(err) - 1
            raise SimulationError(
                _MISSING_VERSION.format(mid=mid, name=program_name)
            )
        return counts

    def adaptive_propagate_blocked(
        self,
        entry_matrix: np.ndarray,
        entry_id: int,
        promoted_slot: np.ndarray,
        entry_self_rate: np.ndarray,
        entry_offsets: np.ndarray,
        entry_callees: np.ndarray,
        entry_rates: np.ndarray,
        base_present: np.ndarray,
        base_self_rate: np.ndarray,
        base_offsets: np.ndarray,
        base_callees: np.ndarray,
        base_rates: np.ndarray,
        program_name: str = "?",
    ) -> np.ndarray:
        """Blocked twin of :meth:`adaptive_propagate_matrix`."""
        if self._adaptive_blocked_fn is None:
            return self.adaptive_propagate_matrix(
                entry_matrix, entry_id, promoted_slot,
                entry_self_rate, entry_offsets, entry_callees, entry_rates,
                base_present, base_self_rate, base_offsets,
                base_callees, base_rates,
                program_name=program_name,
            )
        entry_matrix = np.ascontiguousarray(entry_matrix, dtype=np.int64)
        n_reps, n_promoted = entry_matrix.shape
        n_methods = len(promoted_slot)
        block = self.block_width(n_methods)
        scratch = self._block_scratch(n_methods, block)
        counts = self._counts_buffer(n_reps, n_methods)
        err = self._adaptive_blocked_fn(
            n_reps,
            n_methods,
            int(entry_id),
            n_promoted,
            block,
            entry_matrix,
            np.ascontiguousarray(promoted_slot, dtype=np.int64),
            np.ascontiguousarray(entry_self_rate, dtype=np.float64),
            np.ascontiguousarray(entry_offsets, dtype=np.int64),
            np.ascontiguousarray(entry_callees, dtype=np.int64),
            np.ascontiguousarray(entry_rates, dtype=np.float64),
            np.ascontiguousarray(base_present, dtype=np.uint8),
            np.ascontiguousarray(base_self_rate, dtype=np.float64),
            np.ascontiguousarray(base_offsets, dtype=np.int64),
            np.ascontiguousarray(base_callees, dtype=np.int64),
            np.ascontiguousarray(base_rates, dtype=np.float64),
            scratch,
            counts,
        )
        if err:
            mid = -int(err) - 1
            raise SimulationError(
                _MISSING_VERSION.format(mid=mid, name=program_name)
            )
        return counts


# ----------------------------------------------------------------------
# cext rung: ctypes over the cc-built shared object
# ----------------------------------------------------------------------
_I64 = ctypes.c_int64
_PI64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_PF64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_PU8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")


def _load_cext() -> Optional[KernelBackend]:
    so_path = _build_shared_object()
    if so_path is None:
        return None
    try:
        lib = ctypes.CDLL(so_path)
        opt = lib.repro_opt_propagate_batch
        opt.restype = _I64
        opt.argtypes = [_I64, _I64, _I64, _PI64, _PF64, _PI64, _PI64, _PF64, _PF64]
        adaptive = lib.repro_adaptive_propagate_matrix
        adaptive.restype = _I64
        adaptive.argtypes = [
            _I64, _I64, _I64, _I64,
            _PI64, _PI64,
            _PF64, _PI64, _PI64, _PF64,
            _PU8, _PF64, _PI64, _PI64, _PF64,
            _PF64,
        ]
        opt_blocked = lib.repro_opt_propagate_blocked
        opt_blocked.restype = _I64
        opt_blocked.argtypes = [
            _I64, _I64, _I64, _I64,
            _PI64, _PF64, _PI64, _PI64, _PF64,
            _PF64, _PF64,
        ]
        adaptive_blocked = lib.repro_adaptive_propagate_blocked
        adaptive_blocked.restype = _I64
        adaptive_blocked.argtypes = [
            _I64, _I64, _I64, _I64, _I64,
            _PI64, _PI64,
            _PF64, _PI64, _PI64, _PF64,
            _PU8, _PF64, _PI64, _PI64, _PF64,
            _PF64, _PF64,
        ]
    except (OSError, AttributeError) as exc:
        _log.info("kernel load failed: %s", exc)
        return None
    return KernelBackend("cext", opt, adaptive, opt_blocked, adaptive_blocked)


_LOADERS = {"cext": _load_cext}

#: per-process resolution cache: {rung: backend-or-None}
_RUNG_CACHE: dict = {}

#: the resolved process-wide backend; _UNSET until first get_backend()
_UNSET = object()
_SELECTED = _UNSET


def backend_for(name: str) -> Optional[KernelBackend]:
    """Resolve one specific rung (tests and benchmarks pin with this).

    Returns None when the rung is unavailable; never emits telemetry
    and never mutates the process-wide selection.
    """
    if name not in _LOADERS:
        return None
    if name not in _RUNG_CACHE:
        try:
            _RUNG_CACHE[name] = _LOADERS[name]()
        except Exception as exc:  # resolution must never break a run
            _log.info("backend %s failed to resolve: %s", name, exc)
            _RUNG_CACHE[name] = None
    return _RUNG_CACHE[name]


def available_backends() -> list:
    """Names of the compiled rungs that resolve on this host."""
    return [name for name in _COMPILED_RUNGS if backend_for(name) is not None]


def _announce(name: str) -> None:
    """One-time telemetry for the selected rung (no-op when off)."""
    try:
        from repro.telemetry import emit, get_session

        emit("perf.backend_selected", backend=name)
        session = get_session()
        if session is not None:
            session.registry.counter(
                "repro_backend_selected_total", backend=name
            ).inc()
    except Exception:  # pragma: no cover - telemetry must never break a run
        pass


def get_backend() -> Optional[KernelBackend]:
    """The process-wide compiled backend, or None (= numpy rung).

    Resolution order: ``REPRO_KERNEL_BACKEND`` override first, then
    the cc-built C extension.  Resolved once per process;
    the choice is announced through telemetry on first resolution.
    """
    global _SELECTED
    if _SELECTED is not _UNSET:
        return _SELECTED
    requested = os.environ.get(ENV_BACKEND, "auto").strip().lower()
    backend: Optional[KernelBackend] = None
    if requested in ("numpy", "off", "none"):
        backend = None
    elif requested in _LOADERS:
        backend = backend_for(requested)
    else:
        if requested != "auto":
            _log.warning(
                "unknown %s=%r; using auto", ENV_BACKEND, requested
            )
        for name in _COMPILED_RUNGS:
            backend = backend_for(name)
            if backend is not None:
                break
    _SELECTED = backend
    _announce(backend.name if backend is not None else "numpy")
    return backend


def reset_backend_cache() -> None:
    """Forget the resolved selection (tests re-resolve after env edits)."""
    global _SELECTED
    _SELECTED = _UNSET
    _RUNG_CACHE.clear()
