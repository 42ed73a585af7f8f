"""Layer tracing for the end-to-end benchmark, installed from outside.

This module never ships with the package under test.  ``sitecustomize``
in this directory imports it when ``E2E_TRACE_DIR`` is set, and
:func:`install` registers an import hook that wraps the layer entry
points listed in :data:`TARGETS` as soon as their module finishes
executing.  Every process started with this directory on
``PYTHONPATH`` is covered: the op process, spawned pool workers, the
service daemon and its workers.

Spans stay in memory and are written once, when the process exits
(``atexit``, or multiprocessing's exit finalizers in a fork-started
worker), to ``$E2E_TRACE_DIR/spans-<pid>.json``.  A span is
``[name, start, end, parent, thread, key]``: ``start``/``end`` are
``time.monotonic()`` seconds, which every process on the host shares;
``parent`` is the index of the enclosing span of the same thread (or
-1), and ``key`` is an optional string that lets the analysis match
spans across processes (pool submit -> worker start, admit -> cell
start).  Self time is computed later, as a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import json
import os
import sys
import threading
import time

#: module -> [(attribute path, span name, key function name or None)]
TARGETS = {
    "repro.workloads.suites": [("BenchmarkSuite.programs", "workloads.programs", None)],
    "repro.perf.fastcompile": [("TracedCompiler.compile", "fastcompile.compile", None)],
    "repro.perf.plancache": [
        ("MethodPlanCache.add", "plancache.add", None),
        ("MethodPlanCache.match_many", "plancache.match_many", None),
        ("MethodPlanCache.load_arrays", "plancache.load_arrays", None),
        ("MethodPlanCache.export_arrays", "plancache.export_arrays", None),
    ],
    "repro.perf.batch": [
        ("GenerationBatchEvaluator.run_generation", "batch.run_generation", None)
    ],
    "repro.perf.adaptivekernel": [
        ("AdaptiveBatchKernel.resolve_missing", "adaptivekernel.resolve_missing", None),
        ("AdaptiveBatchKernel.account", "adaptivekernel.account", None),
    ],
    "repro.perf.native": [
        ("KernelBackend.opt_propagate_batch", "native.propagate", None),
        ("KernelBackend.adaptive_propagate_matrix", "native.propagate", None),
        ("KernelBackend.opt_propagate_blocked", "native.propagate", None),
        ("KernelBackend.adaptive_propagate_blocked", "native.propagate", None),
    ],
    "repro.perf.planshare": [
        ("PlanSharePublisher.__init__", "planshare.publisher_init", None),
        ("PlanSharePublisher.merge", "planshare.merge", None),
        ("PlanSharePublisher.publish_if_dirty", "planshare.publish", None),
        ("persist_plan_exports", "planshare.persist", None),
    ],
    "repro.perf.storetier": [
        ("TierStore.get", "storetier.get", None),
        ("TierStore.record", "storetier.record", None),
        ("StoreTier.load_context", "storetier.load_context", None),
        ("StoreTier.compact", "storetier.compact", None),
    ],
    "repro.perf.shm": [
        ("SharedArraySegment.create", "shm.create", "segment_bytes"),
        ("SharedArraySegment.attach", "shm.attach", "segment_bytes"),
    ],
    "repro.ga.engine": [("GAEngine.run", "ga.run", None)],
    "repro.ga.parallel": [
        ("BatchEvaluator.map", "ga.evaluate", None),
        ("SerialEvaluator.map", "ga.evaluate", None),
    ],
    "repro.core.tuner": [("InliningTuner.tune", "tuner.tune", None)],
    "repro.experiments.campaign": [
        ("execute_cell", "campaign.execute_cell", "cell_key"),
        ("run_campaign", "campaign.run_campaign", None),
    ],
    "repro.resilience.supervisor": [
        ("run_supervised", "supervisor.run_supervised", None),
        ("run_supervised_serial", "supervisor.run_supervised", None),
    ],
    "repro.service.daemon": [
        ("ServiceDaemon._op_submit", "service.admit", None),
        ("ServiceDaemon._dispatch", "service.api", None),
    ],
    "repro.service.journal": [
        ("JobJournal._save_locked", "service.journal_save", None),
        ("JobJournal.admit", "service.journal_admit", "admitted_job"),
    ],
    "concurrent.futures.process": [
        ("ProcessPoolExecutor.submit", "pool.submit", "submitted_cell"),
    ],
}


# -- span keys ---------------------------------------------------------
def _request_key(request) -> str:
    """``task|workload seed|job`` of a campaign or service cell."""
    task = getattr(request, "task", None)
    if task is None:  # the campaign's positional payload tuple
        task, seed, checkpoint = request[0], request[3], request[4]
    else:
        seed, checkpoint = request.workload_seed, request.checkpoint_path
    return f"{task.name}|{seed}|{_job_of(checkpoint)}"


def _job_of(checkpoint) -> str:
    """The service job id embedded in a cell's checkpoint path."""
    if not checkpoint:
        return ""
    parts = os.path.normpath(str(checkpoint)).split(os.sep)
    if "jobs" in parts and parts.index("jobs") + 1 < len(parts):
        return parts[parts.index("jobs") + 1]
    return ""


def cell_key(args, kwargs, result) -> str:
    return _request_key(args[0] if args else kwargs["request"])


def submitted_cell(args, kwargs, result) -> str:
    # args = (executor, fn, payload); only cell submissions get a key
    try:
        return _request_key(args[2])
    except (AttributeError, IndexError, KeyError, TypeError):
        return ""


def admitted_job(args, kwargs, result) -> str:
    return str(getattr(result, "job_id", ""))


def segment_bytes(args, kwargs, result) -> str:
    return str(int(getattr(result, "nbytes", 0) or 0))


# -- the recorder --------------------------------------------------------
class _Recorder:
    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans = []
        self.local = threading.local()
        self.lock = threading.Lock()

    def wrap(self, fn, name: str, key_fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = recorder.local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            span = [name, time.monotonic(), 0.0, parent, threading.get_ident(), ""]
            with recorder.lock:
                index = len(recorder.spans)
                recorder.spans.append(span)
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.monotonic()
                stack.pop()
                if key_fn is not None:
                    try:
                        span[5] = key_fn(args, kwargs, result)
                    except Exception:  # a key is bookkeeping, never fatal
                        span[5] = ""

        traced.__e2e_traced__ = True
        return traced

    def forked(self) -> None:
        """In a forked multiprocessing child: start empty, dump at exit.

        Fork-started pool workers leave through ``os._exit``, which skips
        ``atexit``; multiprocessing's exit finalizers still run.
        """
        from multiprocessing import util

        self.spans = []
        self.local = threading.local()
        self.lock = threading.Lock()
        util.Finalize(self, self.dump, exitpriority=0)

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with self.lock:
            spans = list(self.spans)
        payload = {"pid": os.getpid(), "argv": sys.argv[:3], "spans": spans}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _patch(module, recorder: _Recorder) -> None:
    for attr_path, name, key_name in TARGETS.get(module.__name__, ()):
        owner = module
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if getattr(original, "__e2e_traced__", False):
            continue
        is_class_method = isinstance(original, classmethod)
        fn = original.__func__ if is_class_method else original
        key_fn = globals()[key_name] if key_name else None
        wrapped = recorder.wrap(fn, name, key_fn)
        setattr(owner, attr, classmethod(wrapped) if is_class_method else wrapped)


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, loader, recorder: _Recorder) -> None:
        self._loader = loader
        self._recorder = recorder

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module) -> None:
        self._loader.exec_module(module)
        _patch(module, self._recorder)

    def __getattr__(self, name):
        return getattr(self._loader, name)


class _Finder(importlib.abc.MetaPathFinder):
    def __init__(self, recorder: _Recorder) -> None:
        self._recorder = recorder

    def find_spec(self, fullname, path, target=None):
        if fullname not in TARGETS:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                if spec.loader is not None:
                    spec.loader = _PatchingLoader(spec.loader, self._recorder)
                return spec
        return None


def install(out_dir: str) -> None:
    """Trace every :data:`TARGETS` entry point in this process."""
    os.makedirs(out_dir, exist_ok=True)
    recorder = _Recorder(out_dir)
    for name in TARGETS:
        if name in sys.modules:
            _patch(sys.modules[name], recorder)
    sys.meta_path.insert(0, _Finder(recorder))
    atexit.register(recorder.dump)
    from multiprocessing import util

    util.register_after_fork(recorder, _Recorder.forked)
