"""Deterministic fault injection for the resilience test suite.

A :class:`FaultInjector` is a set of named *sites* — places in the
production code that ask "should a fault fire here?" — each configured
with a seeded probability, an optional fire budget and an optional key
filter.  Draws are derived from :func:`repro.rng.stable_hash` over
``(seed, site, key)``, so the same plan fires at the same places on
every run, on every platform, with no shared state between processes.

Fire budgets (``max_fires``) are enforced with *marker files* created
``O_EXCL`` under the plan's ``marker_dir``: the first process to reach
the site claims the marker and fires; everyone else — including the
retry of a task whose first attempt was killed — sees the marker and
passes through cleanly.  That is exactly the semantics a recovery test
needs: the fault happens once, the retry succeeds.

Supported sites (the constants below):

``worker-kill``
    ``maybe_kill`` sends ``SIGKILL`` to the calling process —
    simulates a worker dying mid-task (OOM killer, segfault, operator).
``task-exception``
    ``maybe_raise`` raises :class:`InjectedFault` from a task body —
    simulates a transient evaluator failure.
``batch-kernel``
    ``maybe_raise`` from inside the generation-batched accelerator —
    exercises the graceful-degradation fallback to the serial path.
``torn-write``
    :meth:`EvaluationStore.record` and :meth:`TierStore.record` write
    only a prefix of the JSONL line and drop the append — simulates a
    crash mid-write.
``slow-task``
    ``maybe_delay`` sleeps for the spec's ``delay`` — exercises
    per-task timeouts.
``job-admit``
    ``maybe_raise`` inside the service daemon's submission path, after
    validation but before the journal write — exercises the API's
    structured ``internal`` error (and that a client retry of the same
    job key succeeds once the fire budget is spent).
``journal-io``
    ``maybe_raise`` just before the job journal rewrites its file —
    simulates a failing state disk at the daemon's most critical write.

The injector is test-only configuration: production code calls
:func:`get_fault_injector`, which returns ``None`` unless a plan was
installed in-process (:func:`install_fault_plan`) or — so spawned
worker processes inherit it — via the ``REPRO_FAULT_PLAN`` environment
variable holding the plan as JSON.  The ``None`` check is the entire
overhead of an undisturbed run.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.rng import stable_hash

__all__ = [
    "SITE_WORKER_KILL",
    "SITE_TASK_EXCEPTION",
    "SITE_BATCH_KERNEL",
    "SITE_TORN_WRITE",
    "SITE_SLOW_TASK",
    "SITE_JOB_ADMIT",
    "SITE_JOURNAL_IO",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "install_fault_plan",
    "clear_fault_plan",
    "get_fault_injector",
]

SITE_WORKER_KILL = "worker-kill"
SITE_TASK_EXCEPTION = "task-exception"
SITE_BATCH_KERNEL = "batch-kernel"
SITE_TORN_WRITE = "torn-write"
SITE_SLOW_TASK = "slow-task"
SITE_JOB_ADMIT = "job-admit"
SITE_JOURNAL_IO = "journal-io"

#: environment variable carrying the plan JSON into spawned workers
PLAN_ENV_VAR = "REPRO_FAULT_PLAN"


class InjectedFault(RuntimeError):
    """An exception raised on purpose by the fault injector.

    Deliberately *not* a :class:`repro.errors.ReproError`: injected
    faults model unexpected failures, so they must travel through the
    same handlers that catch arbitrary crashes.
    """

    def __init__(self, site: str, key: str = "") -> None:
        super().__init__(f"injected fault at {site!r}" + (f" ({key})" if key else ""))
        self.site = site
        self.key = key


@dataclass(frozen=True)
class FaultSpec:
    """One site's firing rule."""

    #: chance of firing per (site, key) draw; 1.0 fires deterministically
    probability: float = 1.0
    #: total fires allowed across all processes (None = unlimited)
    max_fires: Optional[int] = 1
    #: restrict firing to these keys (None = any key)
    keys: Optional[Tuple[str, ...]] = None
    #: sleep applied by ``maybe_delay`` when the site fires, seconds
    delay: float = 0.0

    def as_dict(self) -> dict:
        return {
            "probability": self.probability,
            "max_fires": self.max_fires,
            "keys": list(self.keys) if self.keys is not None else None,
            "delay": self.delay,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        keys = data.get("keys")
        return cls(
            probability=float(data.get("probability", 1.0)),
            max_fires=data.get("max_fires"),
            keys=tuple(keys) if keys is not None else None,
            delay=float(data.get("delay", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault sites, serializable for worker processes."""

    sites: Dict[str, FaultSpec] = field(default_factory=dict)
    seed: int = 0
    #: directory for cross-process fire-budget markers; required when
    #: any site has a finite ``max_fires`` and workers are processes
    marker_dir: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "marker_dir": self.marker_dir,
                "sites": {name: spec.as_dict() for name, spec in self.sites.items()},
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            sites={
                name: FaultSpec.from_dict(spec)
                for name, spec in data.get("sites", {}).items()
            },
            seed=int(data.get("seed", 0)),
            marker_dir=data.get("marker_dir"),
        )


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at production call sites."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.fired: list = []  # (site, key) pairs fired by THIS process
        self._local_claims: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def should_fire(self, site: str, key: str = "") -> bool:
        """Decide (and claim budget) for one site visit."""
        spec = self.plan.sites.get(site)
        if spec is None or spec.probability <= 0.0:
            return False
        if spec.keys is not None and key not in spec.keys:
            return False
        if spec.probability < 1.0:
            draw = stable_hash(f"fault|{self.plan.seed}|{site}|{key}") / 2.0**64
            if draw >= spec.probability:
                return False
        if not self._claim(site, spec):
            return False
        self.fired.append((site, key))
        return True

    def _claim(self, site: str, spec: FaultSpec) -> bool:
        if spec.max_fires is None:
            return True
        if self.plan.marker_dir is not None:
            os.makedirs(self.plan.marker_dir, exist_ok=True)
            for i in range(spec.max_fires):
                marker = os.path.join(self.plan.marker_dir, f"{site}.{i}.fired")
                try:
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue
                os.write(fd, f"pid={os.getpid()}\n".encode())
                os.close(fd)
                return True
            return False
        used = self._local_claims.get(site, 0)
        if used >= spec.max_fires:
            return False
        self._local_claims[site] = used + 1
        return True

    # ------------------------------------------------------------------
    def maybe_raise(self, site: str, key: str = "") -> None:
        """Raise :class:`InjectedFault` if *site* fires."""
        if self.should_fire(site, key):
            raise InjectedFault(site, key)

    def maybe_kill(self, site: str = SITE_WORKER_KILL, key: str = "") -> None:
        """SIGKILL the calling process if *site* fires (no cleanup runs)."""
        if self.should_fire(site, key):
            os.kill(os.getpid(), signal.SIGKILL)

    def maybe_delay(self, site: str = SITE_SLOW_TASK, key: str = "") -> None:
        """Sleep the spec's ``delay`` if *site* fires."""
        if self.should_fire(site, key):
            spec = self.plan.sites[site]
            if spec.delay > 0.0:
                time.sleep(spec.delay)


# ----------------------------------------------------------------------
# installation / discovery
# ----------------------------------------------------------------------
_INJECTOR: Optional[FaultInjector] = None
_ENV_CHECKED = False


def install_fault_plan(plan: FaultPlan, propagate: bool = True) -> FaultInjector:
    """Install *plan* process-wide and return its injector.

    ``propagate=True`` also exports the plan via ``REPRO_FAULT_PLAN``
    so worker processes spawned afterwards pick it up on first use.
    """
    global _INJECTOR, _ENV_CHECKED
    _INJECTOR = FaultInjector(plan)
    _ENV_CHECKED = True
    if propagate:
        os.environ[PLAN_ENV_VAR] = plan.to_json()
    return _INJECTOR


def clear_fault_plan() -> None:
    """Remove the installed plan (and the environment hand-off)."""
    global _INJECTOR, _ENV_CHECKED
    _INJECTOR = None
    _ENV_CHECKED = False
    os.environ.pop(PLAN_ENV_VAR, None)


def get_fault_injector() -> Optional[FaultInjector]:
    """The process's injector, or None when no plan is configured.

    Checks the environment once per process, so spawned workers inherit
    the coordinator's plan without explicit plumbing.
    """
    global _INJECTOR, _ENV_CHECKED
    if _INJECTOR is not None:
        return _INJECTOR
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        text = os.environ.get(PLAN_ENV_VAR)
        if text:
            try:
                _INJECTOR = FaultInjector(FaultPlan.from_json(text))
            except (ValueError, KeyError, TypeError):
                _INJECTOR = None
    return _INJECTOR
