"""Zero-copy shared-memory interning for pool workers.

Campaign pool workers historically rebuilt everything on the far side
of a pickle: each spawned worker re-generated the workload programs
and re-derived its caches (see ``repro/jvm/runtime.py`` —
``VirtualMachine.__setstate__`` rebuilds the accelerator).  This
module moves the bulk payloads into ``multiprocessing.shared_memory``
segments that workers map read-only:

* :class:`SharedArraySegment` — one named segment holding several
  named numpy arrays behind a tiny self-describing header, with
  crash-safe lifecycle (owner-side atexit unlink; attach-side
  resource-tracker unregistration so a SIGKILLed worker can never
  unlink a segment it does not own);
* :class:`WorkloadArchive` — the campaign's training programs interned
  as flat arrays (method tables, instruction mixes, call sites, name
  blobs); workers attach and reconstruct
  :class:`~repro.jvm.callgraph.Program` objects whose fingerprints are
  identical to the generator's, so evaluation-store context keys are
  unaffected;
* :class:`PlanArchive` — epoch-stamped compiled plan caches that
  workers warm-start from (see :mod:`repro.perf.planshare`).

Telemetry: segment creation and attachment emit ``shm.create`` /
``shm.attach`` events and feed the ``repro_shm_attach_total`` and
``repro_ipc_bytes_total`` metric families (see
``docs/OBSERVABILITY.md``); all of it is no-op safe when telemetry is
off.

Graceful degradation, as everywhere in the perf stack: every consumer
of this module falls back to the pickle path when shared memory is
unavailable (platform without ``/dev/shm``, segment vanished) — shm
is a throughput optimization, never a correctness dependency.
"""

from __future__ import annotations

import atexit
import json
import secrets
import struct
import logging
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GAError

__all__ = [
    "SharedArraySegment",
    "WorkloadArchive",
    "PlanArchive",
    "PlanArchiveReader",
    "shared_memory_supported",
]

_log = logging.getLogger("repro.perf.shm")

#: prefix of every segment this repo creates (leak checks key on it)
SEGMENT_PREFIX = "repro-"

#: payload alignment inside a segment
_ALIGN = 64

_HEADER_LEN = struct.Struct("<Q")


def shared_memory_supported() -> bool:
    """True when named shared memory works on this platform."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - stdlib since 3.8
        return False
    return True


def _emit_shm(event: str, segment: str, nbytes: int) -> None:
    """Telemetry for a segment lifecycle step (no-op when off)."""
    try:
        from repro.telemetry import emit, get_session

        emit(event, segment=segment, bytes=int(nbytes))
        session = get_session()
        if session is not None:
            registry = session.registry
            # bytes moved through shm count on both sides: the owner
            # interning a segment and every worker mapping it (worker
            # registries are per-process; the coordinator's export
            # reflects at least its own publications)
            registry.counter(
                "repro_ipc_bytes_total", transport="shm"
            ).inc(int(nbytes))
            if event == "shm.attach":
                registry.counter("repro_shm_attach_total").inc()
    except Exception:  # pragma: no cover - telemetry must never break a run
        pass


#: segments owned (created) by this process, unlinked at interpreter
#: exit if still alive — a crashed coordinator additionally relies on
#: the stdlib resource tracker, which unlinks registered segments when
#: the owning process dies without cleanup
_OWNED: Dict[str, "SharedArraySegment"] = {}


def _cleanup_owned() -> None:  # pragma: no cover - exit hook
    for segment in list(_OWNED.values()):
        try:
            segment.unlink()
        except Exception:
            pass


atexit.register(_cleanup_owned)


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedArraySegment:
    """A named shared-memory segment holding named numpy arrays.

    Layout: an 8-byte little-endian header length, a JSON header
    mapping array names to ``(dtype, shape, offset)``, then the array
    payloads, each 64-byte aligned.  ``create`` copies the given
    arrays in and owns the segment (close + unlink); ``attach`` maps
    an existing segment and exposes zero-copy ndarray views —
    read-only by default, so a worker bug cannot corrupt a shared
    plan table.
    """

    def __init__(self, shm, arrays: Dict[str, np.ndarray], owner: bool) -> None:
        self._shm = shm
        self.arrays = arrays
        self.owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        return self._shm.size

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, arrays: Dict[str, np.ndarray], name: Optional[str] = None
    ) -> "SharedArraySegment":
        """Create a segment containing copies of *arrays* (owner side)."""
        from multiprocessing import shared_memory

        header: Dict[str, list] = {}
        offset = 0
        prepared: Dict[str, np.ndarray] = {}
        for key, array in arrays.items():
            array = np.ascontiguousarray(array)
            prepared[key] = array
            offset = _align(offset)
            header[key] = [array.dtype.str, list(array.shape), offset]
            offset += array.nbytes
        blob = json.dumps(header, sort_keys=True).encode("ascii")
        payload_base = _align(_HEADER_LEN.size + len(blob))
        total = max(1, payload_base + offset)
        if name is None:
            name = f"{SEGMENT_PREFIX}{secrets.token_hex(8)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        shm.buf[: _HEADER_LEN.size] = _HEADER_LEN.pack(len(blob))
        shm.buf[_HEADER_LEN.size : _HEADER_LEN.size + len(blob)] = blob
        views: Dict[str, np.ndarray] = {}
        for key, array in prepared.items():
            dtype, shape, rel = header[key]
            view = np.ndarray(
                shape, dtype=dtype, buffer=shm.buf, offset=payload_base + rel
            )
            view[...] = array
            views[key] = view
        segment = cls(shm, views, owner=True)
        _OWNED[segment.name] = segment
        _emit_shm("shm.create", segment.name, total)
        return segment

    @classmethod
    def attach(cls, name: str, readonly: bool = True) -> "SharedArraySegment":
        """Map an existing segment by name (non-owner side).

        On 3.13+ the attachment passes ``track=False`` so it adds no
        resource-tracker registration of its own.  On older Pythons the
        constructor re-registers the name, which is harmless: spawned
        pool workers share the coordinator's tracker process, whose
        cache is a per-name set — the worker's add is idempotent
        against the owner's registration, and only the owner's
        ``unlink`` removes it.  Unregistering here instead would strip
        the owner's crash-safety net (and make its later unlink
        double-unregister, spamming KeyErrors in the tracker).
        """
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # track= arrived in 3.13
            shm = shared_memory.SharedMemory(name=name)
        (blob_len,) = _HEADER_LEN.unpack_from(shm.buf, 0)
        blob = bytes(shm.buf[_HEADER_LEN.size : _HEADER_LEN.size + blob_len])
        header = json.loads(blob.decode("ascii"))
        payload_base = _align(_HEADER_LEN.size + blob_len)
        views: Dict[str, np.ndarray] = {}
        for key, (dtype, shape, rel) in header.items():
            view = np.ndarray(
                shape, dtype=dtype, buffer=shm.buf, offset=payload_base + rel
            )
            if readonly:
                view.flags.writeable = False
            views[key] = view
        segment = cls(shm, views, owner=False)
        _emit_shm("shm.attach", segment.name, shm.size)
        return segment

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        if self._closed:
            return
        self._closed = True
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - live views keep the map
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only); idempotent."""
        if not self.owner:
            raise GAError(f"segment {self.name!r} is attached, not owned")
        name = self.name
        self.close()
        _OWNED.pop(name, None)
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedArraySegment":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.owner:
            self.unlink()
        else:
            self.close()


# ----------------------------------------------------------------------
# workload interning
# ----------------------------------------------------------------------
def _pack_strings(strings: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated utf-8 blob + offsets for a string column."""
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(e) for e in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
    return blob, offsets


def _unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> List[str]:
    raw = blob.tobytes()
    return [
        raw[offsets[i] : offsets[i + 1]].decode("utf-8")
        for i in range(len(offsets) - 1)
    ]


class WorkloadArchive:
    """Training programs interned as flat arrays in one shm segment.

    ``publish(programs)`` (coordinator side) flattens every program's
    method table — loop weights, instruction-mix histograms over the
    fixed :class:`~repro.jvm.bytecode.InstructionKind` alphabet, names
    — and call-site table into per-field arrays with per-program offset
    columns.  ``attach(name)`` (worker side) maps the segment and
    :meth:`programs` reconstructs the
    :class:`~repro.jvm.callgraph.Program` objects from the mapped
    arrays; reconstruction is exact (``InstructionMix.from_mapping``
    canonicalizes kind order the same way the generator does), so the
    rebuilt programs' fingerprints — and therefore every persistent
    evaluation-store context key — equal the originals'.
    """

    def __init__(self, segment: SharedArraySegment) -> None:
        self.segment = segment
        self._programs: Optional[List] = None

    @property
    def name(self) -> str:
        return self.segment.name

    # ------------------------------------------------------------------
    @classmethod
    def publish(
        cls, programs: Sequence, name: Optional[str] = None
    ) -> "WorkloadArchive":
        """Intern *programs* into a fresh owned segment.

        *name* pins the segment name — used to republish an archive
        that vanished under a live campaign, so payloads already
        carrying the name keep resolving.
        """
        from repro.jvm.bytecode import InstructionKind

        kinds = tuple(InstructionKind)
        kind_pos = {kind: i for i, kind in enumerate(kinds)}

        program_entry = np.array(
            [p.entry_id for p in programs], dtype=np.int64
        )
        method_offsets = np.zeros(len(programs) + 1, dtype=np.int64)
        site_offsets = np.zeros(len(programs) + 1, dtype=np.int64)
        if programs:
            np.cumsum([len(p.methods) for p in programs], out=method_offsets[1:])
            np.cumsum([len(p.call_sites) for p in programs], out=site_offsets[1:])

        n_methods = int(method_offsets[-1])
        n_sites = int(site_offsets[-1])
        loop_weight = np.empty(n_methods, dtype=np.float64)
        mix = np.zeros((n_methods, len(kinds)), dtype=np.int64)
        method_names: List[str] = []
        site_cols = np.empty((n_sites, 3), dtype=np.int64)
        site_calls = np.empty(n_sites, dtype=np.float64)

        m = 0
        s = 0
        for program in programs:
            for method in program.methods:
                loop_weight[m] = method.body.loop_weight
                for kind, count in method.body.mix:
                    mix[m, kind_pos[kind]] = count
                method_names.append(method.name)
                m += 1
            for site in program.call_sites:
                site_cols[s] = (site.caller_id, site.callee_id, site.site_index)
                site_calls[s] = site.calls_per_invocation
                s += 1

        program_name_blob, program_name_offsets = _pack_strings(
            [p.name for p in programs]
        )
        method_name_blob, method_name_offsets = _pack_strings(method_names)

        segment = SharedArraySegment.create(
            {
                "program_entry": program_entry,
                "program_method_offsets": method_offsets,
                "program_site_offsets": site_offsets,
                "program_name_blob": program_name_blob,
                "program_name_offsets": program_name_offsets,
                "method_loop_weight": loop_weight,
                "method_mix": mix,
                "method_name_blob": method_name_blob,
                "method_name_offsets": method_name_offsets,
                "site_cols": site_cols,
                "site_calls": site_calls,
            },
            name=name,
        )
        return cls(segment)

    @classmethod
    def attach(cls, name: str) -> "WorkloadArchive":
        """Map a published archive by segment name (worker side)."""
        return cls(SharedArraySegment.attach(name, readonly=True))

    # ------------------------------------------------------------------
    def programs(self) -> List:
        """Reconstruct (and memoize) the interned programs."""
        if self._programs is not None:
            return self._programs
        from repro.jvm.bytecode import InstructionKind, InstructionMix, MethodBody
        from repro.jvm.callgraph import CallSite, Program
        from repro.jvm.methods import MethodInfo

        kinds = tuple(InstructionKind)
        a = self.segment.arrays
        program_names = _unpack_strings(
            a["program_name_blob"], a["program_name_offsets"]
        )
        method_names = _unpack_strings(
            a["method_name_blob"], a["method_name_offsets"]
        )
        method_offsets = a["program_method_offsets"]
        site_offsets = a["program_site_offsets"]
        programs: List[Program] = []
        for p, name in enumerate(program_names):
            m_lo, m_hi = int(method_offsets[p]), int(method_offsets[p + 1])
            methods = []
            for m in range(m_lo, m_hi):
                row = a["method_mix"][m]
                mapping = {
                    kind: int(row[i]) for i, kind in enumerate(kinds) if row[i]
                }
                body = MethodBody(
                    mix=InstructionMix.from_mapping(mapping),
                    loop_weight=float(a["method_loop_weight"][m]),
                )
                methods.append(
                    MethodInfo(
                        method_id=m - m_lo, name=method_names[m], body=body
                    )
                )
            s_lo, s_hi = int(site_offsets[p]), int(site_offsets[p + 1])
            sites = [
                CallSite(
                    caller_id=int(a["site_cols"][s, 0]),
                    callee_id=int(a["site_cols"][s, 1]),
                    site_index=int(a["site_cols"][s, 2]),
                    calls_per_invocation=float(a["site_calls"][s]),
                )
                for s in range(s_lo, s_hi)
            ]
            programs.append(
                Program(
                    name=name,
                    methods=methods,
                    call_sites=sites,
                    entry_id=int(a["program_entry"][p]),
                )
            )
        self._programs = programs
        return programs

    def close(self) -> None:
        self._programs = None
        self.segment.close()

    def unlink(self) -> None:
        self._programs = None
        self.segment.unlink()


# ----------------------------------------------------------------------
# plan-cache interning
# ----------------------------------------------------------------------
def _emit_plan(event: str, **fields) -> None:
    """Telemetry for a plan-archive lifecycle step (no-op when off)."""
    try:
        from repro.telemetry import emit

        emit(event, **fields)
    except Exception:  # pragma: no cover - telemetry must never break a run
        pass


class PlanArchive:
    """Versioned shm publication of compiled plan caches (owner side).

    The coordinator interns every program's
    :class:`~repro.perf.plancache.MethodPlanCache` — exported as flat
    arrays by :meth:`~repro.perf.plancache.MethodPlanCache.export_arrays`
    and keyed by an opaque plan-key string — so campaign workers
    warm-start from the coordinator's compiled versions instead of
    recompiling them per process.

    Consistency protocol (readers never see a torn snapshot):

    * a tiny *directory* segment, named ``base``, holds the current
      epoch number and is the only segment updated in place;
    * each publication writes a fresh immutable *data* segment named
      ``base-e{N}`` containing every cache's arrays plus a
      ``__commit__`` stamp written after the payload, then advances the
      directory epoch to ``N``, then unlinks epoch ``N-1`` (existing
      reader mappings of the old epoch stay valid — POSIX unlink only
      removes the name);
    * readers resolve the directory epoch, attach ``base-e{N}``, and
      verify the commit stamp, retrying when a republish races the
      attach (``FileNotFoundError`` or a stale stamp).
    """

    def __init__(self, directory: SharedArraySegment, base: str) -> None:
        self._directory = directory
        self.base = base
        self._data: Optional[SharedArraySegment] = None
        self._epoch = 0

    @property
    def name(self) -> str:
        return self.base

    @property
    def epoch(self) -> int:
        return self._epoch

    @classmethod
    def create(cls, name: Optional[str] = None) -> "PlanArchive":
        """Create an empty archive (epoch 0: nothing published yet)."""
        if name is None:
            name = f"{SEGMENT_PREFIX}plans-{secrets.token_hex(8)}"
        directory = SharedArraySegment.create(
            {"epoch": np.zeros(1, dtype=np.int64)}, name=name
        )
        return cls(directory, name)

    def publish(self, exports: Dict[str, Dict[str, np.ndarray]]) -> int:
        """Publish a new epoch holding *exports*; returns the epoch.

        *exports* maps plan-key strings to
        :meth:`~repro.perf.plancache.MethodPlanCache.export_arrays`
        dictionaries.  The whole mapping is written each time — epochs
        are snapshots, not deltas, so a late-joining worker needs only
        the newest one.
        """
        epoch = self._epoch + 1
        keys = sorted(exports)
        key_blob, key_offsets = _pack_strings(keys)
        arrays: Dict[str, np.ndarray] = {
            "__commit__": np.zeros(1, dtype=np.int64),
            "__keys_blob__": key_blob,
            "__keys_offsets__": key_offsets,
        }
        entries = 0
        for i, key in enumerate(keys):
            for field, array in exports[key].items():
                arrays[f"k{i}:{field}"] = array
            entries += len(exports[key]["entry_method"])
        data = SharedArraySegment.create(arrays, name=f"{self.base}-e{epoch}")
        # commit stamp last: a reader that attached a half-written
        # republished segment sees a stale stamp and retries
        data.arrays["__commit__"][0] = epoch
        self._directory.arrays["epoch"][0] = epoch
        old = self._data
        self._data = data
        self._epoch = epoch
        if old is not None:
            old.unlink()
        _emit_plan(
            "plan.publish",
            segment=self.base,
            epoch=epoch,
            keys=len(keys),
            entries=entries,
            bytes=data.nbytes,
        )
        return epoch

    def unlink(self) -> None:
        """Destroy the directory and the live epoch; idempotent."""
        if self._data is not None:
            try:
                self._data.unlink()
            except GAError:  # pragma: no cover - defensive
                pass
            self._data = None
        try:
            self._directory.unlink()
        except GAError:  # pragma: no cover - defensive
            pass


class PlanArchiveReader:
    """Worker-side view of a :class:`PlanArchive`."""

    def __init__(self, directory: SharedArraySegment, base: str) -> None:
        self._directory = directory
        self.base = base
        self._data: Optional[SharedArraySegment] = None
        self._epoch = 0
        self._exports: Optional[Dict[str, Dict[str, np.ndarray]]] = None

    @classmethod
    def attach(cls, base: str) -> "PlanArchiveReader":
        return cls(SharedArraySegment.attach(base, readonly=True), base)

    @property
    def epoch(self) -> int:
        return self._epoch

    def snapshot(
        self, retries: int = 8
    ) -> Tuple[int, Dict[str, Dict[str, np.ndarray]]]:
        """``(epoch, {plan_key: arrays})`` for the newest committed epoch.

        The returned arrays are read-only views into the attached data
        segment, which stays mapped (and therefore valid even after the
        owner republishes and unlinks the epoch) until the next
        :meth:`snapshot` call or :meth:`close`.  Retries around a
        republish racing the attach; raises :class:`GAError` when no
        consistent snapshot can be obtained.
        """
        for _ in range(retries):
            epoch = int(self._directory.arrays["epoch"][0])
            if epoch == 0:
                return 0, {}
            if epoch == self._epoch and self._exports is not None:
                return epoch, self._exports
            try:
                data = SharedArraySegment.attach(
                    f"{self.base}-e{epoch}", readonly=True
                )
            except FileNotFoundError:
                continue  # republished under our feet; re-read the epoch
            if int(data.arrays["__commit__"][0]) != epoch:
                data.close()
                continue
            keys = _unpack_strings(
                data.arrays["__keys_blob__"], data.arrays["__keys_offsets__"]
            )
            exports: Dict[str, Dict[str, np.ndarray]] = {}
            for i, key in enumerate(keys):
                prefix = f"k{i}:"
                exports[key] = {
                    field[len(prefix):]: array
                    for field, array in data.arrays.items()
                    if field.startswith(prefix)
                }
            if self._data is not None:
                self._data.close()
            self._data = data
            self._epoch = epoch
            self._exports = exports
            _emit_plan(
                "plan.attach",
                segment=self.base,
                epoch=epoch,
                keys=len(keys),
                entries=sum(len(e["entry_method"]) for e in exports.values()),
            )
            return epoch, exports
        raise GAError(
            f"plan archive {self.base!r}: no consistent snapshot "
            f"after {retries} attempts"
        )

    def close(self) -> None:
        self._exports = None
        if self._data is not None:
            self._data.close()
            self._data = None
        self._directory.close()
