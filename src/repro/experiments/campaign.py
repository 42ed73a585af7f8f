"""Parallel multi-campaign tuning: the arch x scenario x metric grid.

A *campaign* runs several tuning tasks — the cross product of target
machines, compilation scenarios and optimization metrics — against one
shared evaluation-store tier (:mod:`repro.perf.storetier`).  Tasks are
independent (their evaluation contexts never overlap, so no genome
fitness can cross-pollute between grid cells) and run concurrently in a
process pool.

Each cell is a :class:`CellRequest` executed by :func:`execute_cell`,
the same protocol the :mod:`repro.service` daemon uses.  Every worker
appends durable records straight to its own shard of the tier, and the
coordinator compacts the cooled shards when the campaign finishes; a
re-run of the same campaign answers every genome from the tier — zero
new simulations.  A single-file JSONL store is refused as a campaign
store: ``repro store migrate`` imports one into a tier.

Each task also reports its accelerator counters (report-memo, method
cache and batch-dedup hit rates), which
:class:`CampaignResult.accelerator_totals` aggregates for the campaign.

Fault tolerance: cells run under :func:`repro.resilience.run_supervised`
(bounded retries with backoff, worker-death recovery with pool rebuild
and resubmission, optional per-task timeouts).  A cell that exhausts
its attempt budget is reported as a ``failed``
:class:`CampaignTaskResult` alongside the cells that succeeded — a
partial campaign returns its partial results plus structured
:class:`~repro.resilience.FailureReport` entries instead of raising.
With ``campaign_dir`` set, completed cells are recorded in a
crash-safe :class:`~repro.resilience.CampaignManifest` as they finish
and workers checkpoint their GA state every generation, so
``resume=True`` (CLI: ``repro campaign --resume``) skips finished
cells and restarts interrupted ones from their last generation.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch import get_machine
from repro.core.metrics import Metric
from repro.core.tuner import DEFAULT_GA_CONFIG, InliningTuner, TunedHeuristic, TuningTask
from repro.errors import CampaignError, ConfigurationError
from repro.ga.engine import GAConfig
from repro.jvm.scenario import get_scenario
from repro.perf.engine import STAT_COUNTERS, AcceleratorStats
from repro.resilience import (
    CampaignManifest,
    FailureReport,
    RetryPolicy,
    campaign_fingerprint,
    checkpoint_path_for,
    run_supervised,
    run_supervised_serial,
)
from repro.telemetry import (
    configure as telemetry_configure,
    emit as telemetry_emit,
    get_session as telemetry_get_session,
    scoped_context,
    shutdown as telemetry_shutdown,
    trace,
)

__all__ = [
    "grid_tasks",
    "run_campaign",
    "CellRequest",
    "CellOutcome",
    "execute_cell",
    "CampaignTaskResult",
    "CampaignResult",
]

#: the default campaign grid: both architectures, both scenarios,
#: tuned for the paper's primary goal (balance).
DEFAULT_MACHINES = ("pentium4", "powerpc-g4")
DEFAULT_SCENARIOS = ("adapt", "opt")
DEFAULT_METRICS = ("balance",)


def grid_tasks(
    machines: Sequence[str] = DEFAULT_MACHINES,
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    metrics: Sequence[str] = DEFAULT_METRICS,
    seed: int = 0,
) -> List[TuningTask]:
    """The cross product of the grid axes as tuning tasks."""
    if not machines or not scenarios or not metrics:
        raise ConfigurationError("every campaign grid axis needs at least one value")
    tasks: List[TuningTask] = []
    for machine_name in machines:
        machine = get_machine(machine_name)
        for scenario_name in scenarios:
            scenario = get_scenario(scenario_name)
            for metric_name in metrics:
                metric = Metric.parse(metric_name)
                tasks.append(
                    TuningTask(
                        name=f"{scenario.name}:{metric.value}@{machine.name}",
                        scenario=scenario,
                        machine=machine,
                        metric=metric,
                        seed=seed,
                    )
                )
    return tasks


@dataclass(frozen=True)
class CampaignTaskResult:
    """Outcome of one grid cell."""

    task_name: str
    #: the tuned heuristic, or None when the cell failed
    tuned: Optional[TunedHeuristic]
    #: evaluation-context key of the cell's store partition
    context: Optional[str]
    #: records this task's worker appended to the store tier
    new_records: int
    #: the task's accelerator counters (None if the evaluator ran
    #: without memoization)
    accelerator_stats: Optional[Dict[str, float]]
    #: "done" (ran to completion this run), "resumed" (answered by the
    #: campaign manifest of a previous run) or "failed"
    status: str = "done"
    #: the final failure message for a failed cell
    error: Optional[str] = None
    #: attempts this run spent on the cell (0 when resumed)
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status != "failed"


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of a whole campaign (possibly partial on failures)."""

    results: Tuple[CampaignTaskResult, ...]
    wall_seconds: float
    processes: int
    #: every failed attempt, in the order they happened; a task may
    #: appear several times, the last entry fatal if its cell failed
    failures: Tuple[FailureReport, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every grid cell completed."""
        return all(r.ok for r in self.results)

    @property
    def failed_tasks(self) -> Tuple[str, ...]:
        """Names of the cells that exhausted their attempt budget."""
        return tuple(r.task_name for r in self.results if not r.ok)

    @property
    def total_evaluations(self) -> int:
        """Genomes actually simulated by *this* run (resumed cells
        simulated theirs in the run that completed them)."""
        return sum(
            r.tuned.evaluations
            for r in self.results
            if r.tuned is not None and r.status != "resumed"
        )

    @property
    def total_new_records(self) -> int:
        """Records appended to the shared store by this campaign."""
        return sum(r.new_records for r in self.results)

    def accelerator_totals(self) -> Dict[str, float]:
        """Campaign-wide accelerator counters and hit rates."""
        total = AcceleratorStats()
        for result in self.results:
            stats = result.accelerator_stats
            if not stats:
                continue
            total.add(
                AcceleratorStats(
                    **{name: int(stats.get(name, 0)) for name in STAT_COUNTERS}
                )
            )
        return total.as_dict()


# Worker-side cache of the campaign's shared workload archive, keyed by
# segment name (one archive per campaign, attached at most once per
# worker process — every cell the worker runs then reuses the mapped
# programs instead of regenerating them).
_ARCHIVE_CACHE: Dict[str, object] = {}


def _workload_programs(workload_seed: int, archive_name: Optional[str]) -> List:
    """The training programs, from the shm archive when available.

    The archive is strictly an IPC optimization: reconstruction from
    the segment yields programs whose fingerprints equal the
    generator's, and *any* failure (segment gone, platform without
    shared memory) falls back to regenerating the suite locally.
    """
    from repro.workloads.suites import SPECJVM98

    if archive_name is not None:
        try:
            archive = _ARCHIVE_CACHE.get(archive_name)
            if archive is None:
                from repro.perf.shm import WorkloadArchive

                for stale in list(_ARCHIVE_CACHE.values()):
                    stale.close()
                _ARCHIVE_CACHE.clear()
                archive = WorkloadArchive.attach(archive_name)
                _ARCHIVE_CACHE[archive_name] = archive
            return archive.programs()
        except Exception:
            pass
    return SPECJVM98.programs(seed=workload_seed)


@dataclass(frozen=True)
class CellRequest:
    """One schedulable grid cell — the unit of work shared by the CLI
    campaign runner and the :mod:`repro.service` daemon.

    Everything a worker process needs to tune one cell rides in here
    (picklable for spawn pools): the tuning task, the GA budget, the
    shared store, and the campaign-scope optimizations (workload
    archive, plan archive) that degrade to nothing when absent.
    """

    task: TuningTask
    ga_config: GAConfig
    #: shared evaluation-store tier directory, or None
    store_path: Optional[str] = None
    workload_seed: int = 0
    #: per-cell GA checkpoint path (crash-safe resume), or None
    checkpoint_path: Optional[str] = None
    #: shared-memory workload-archive segment name (repro.perf.shm)
    archive_name: Optional[str] = None
    #: published plan-archive base name (repro.perf.planshare)
    plan_base: Optional[str] = None
    #: opt-in nearest-neighbour population seeding (tier stores only)
    warm_start_neighbors: bool = False
    #: search strategy tuning this cell (repro.search registry name)
    strategy: str = "ga"


@dataclass(frozen=True)
class CellOutcome:
    """What one executed cell hands back to its coordinator."""

    task_name: str
    tuned: TunedHeuristic
    #: evaluation-context key of the cell's store partition
    context: Optional[str]
    accelerator_stats: Optional[Dict[str, float]]
    #: compiled plan caches as flat arrays (repro.perf.planshare)
    plan_exports: Optional[dict]
    #: records the cell appended durably to the store tier
    appended: int


def execute_cell(request: CellRequest) -> CellOutcome:
    """Tune one grid cell (module-level: runs in pool workers).

    This is the cell-execution core shared by ``repro campaign`` and
    the ``repro serve`` daemon.  The store tier is appended from this
    worker directly (private shard, durable immediately) and only the
    count, :attr:`CellOutcome.appended`, rides back.  With a checkpoint
    path the GA persists its state every
    generation and resumes from an existing checkpoint, so a retried or
    resumed cell re-simulates only what the store cannot answer.
    """
    task = request.task
    if request.plan_base is not None:
        # attach the coordinator's published plan caches: accelerators
        # in this worker then warm-start instead of recompiling plans
        # another cell already produced (degrades to private caches on
        # any shm failure)
        from repro.perf import planshare

        planshare.ensure_client(request.plan_base)
    from repro.resilience.faults import get_fault_injector

    injector = get_fault_injector()
    if injector is not None:
        # test-only supervision hooks: an installed fault plan can kill
        # this worker (SIGKILL), fail the cell with an exception, or
        # stall it into a timeout; the supervisor must recover all three
        injector.maybe_kill("worker-kill", key=task.name)
        injector.maybe_raise("task-exception", key=task.name)
        injector.maybe_delay("slow-task", key=task.name)

    programs = _workload_programs(request.workload_seed, request.archive_name)
    with scoped_context(cell=task.name):
        with trace("campaign.cell", task=task.name):
            tuner = InliningTuner(
                request.ga_config,
                store_path=request.store_path,
                warm_start_neighbors=request.warm_start_neighbors,
                strategy=request.strategy,
            )
            tuned = tuner.tune(
                task, programs, checkpoint_path=request.checkpoint_path
            )
    store = tuner.last_store
    return CellOutcome(
        task_name=task.name,
        tuned=tuned,
        context=store.context if store is not None else None,
        accelerator_stats=tuner.last_accelerator_stats,
        plan_exports=tuner.last_plan_exports,
        appended=getattr(store, "appended", 0) if store is not None else 0,
    )


def _open_campaign_tier(store_path: str) -> None:
    """Create the campaign's store tier, refusing a single-file store.

    Every campaign worker appends to its own shard of the tier; a
    single-file JSONL store has one writer and cannot be shared, so an
    existing regular file is refused with the command that imports it.
    """
    if os.path.isfile(store_path):
        raise ConfigurationError(
            f"campaign store {store_path!r} is a single-file store; campaigns "
            f"share evaluations through a store tier — import it with "
            f"'repro store migrate {store_path} DIR' and pass the tier "
            f"directory instead"
        )
    from repro.perf.storetier import StoreTier

    StoreTier(store_path)


def _resumed_result(task_name: str, cell: dict) -> CampaignTaskResult:
    """A completed cell of a previous run, reconstructed from the
    manifest."""
    return CampaignTaskResult(
        task_name=task_name,
        tuned=TunedHeuristic.from_json(json.dumps(cell["tuned"])),
        context=cell.get("context"),
        new_records=0,  # persisted by the run that completed the cell
        accelerator_stats=cell.get("accelerator_stats"),
        status="resumed",
        attempts=0,
    )


def run_campaign(
    tasks: Optional[Sequence[TuningTask]] = None,
    ga_config: GAConfig = DEFAULT_GA_CONFIG,
    store_path: Optional[str] = None,
    workload_seed: int = 0,
    processes: Optional[int] = None,
    serial: bool = False,
    progress=None,
    campaign_dir: Optional[str] = None,
    resume: bool = False,
    retry_policy: Optional[RetryPolicy] = None,
    telemetry_dir: Optional[str] = None,
    warm_start_neighbors: bool = False,
    strategy: str = "ga",
) -> CampaignResult:
    """Run every task of the campaign, concurrently by default.

    *strategy* selects the search every cell runs (CLI: ``repro
    campaign --strategy``): ``ga`` (default, the paper's search),
    ``mcts``, ``cmaes``, ``bandit`` or ``pareto`` — see
    ``docs/SEARCH.md``.  Non-GA strategies join the campaign
    fingerprint, so a manifest written by one strategy cannot silently
    resume under another.

    *store_path* names the shared store-tier directory
    (:mod:`repro.perf.storetier`), created when missing: workers append
    their own durable shards and the coordinator compacts at the end.
    An existing regular file (a single-file JSONL store) raises
    :class:`~repro.errors.ConfigurationError` naming ``repro store
    migrate``.  With None there is no store and every run simulates
    from scratch.  *processes* caps the pool size (default: one per
    task, bounded by the CPU count); ``serial=True`` runs the tasks
    in-process, in order — same cell protocol, no pool.  *progress*
    (optional callable) receives one status line per finished task.

    *campaign_dir* turns on crash-safe bookkeeping: a manifest records
    each completed cell the moment the coordinator persisted it, and
    every cell checkpoints its GA state there each generation.  If the
    directory's manifest already exists it must match this campaign's
    fingerprint (tasks, GA budget, seeds, version), and its completed
    cells are skipped — ``resume=True`` additionally *requires* the
    manifest to exist, catching a mistyped directory.  When
    *store_path* is None a campaign directory supplies a default store
    tier at ``<campaign_dir>/store.tier``.

    Cells run supervised under *retry_policy* (default
    :class:`~repro.resilience.RetryPolicy`): worker deaths rebuild the
    pool and resubmit, exceptions retry with backoff, and a cell that
    exhausts its budget is returned as a failed result — the campaign
    reports partial results plus structured failures instead of
    raising.

    *telemetry_dir* (CLI: ``repro campaign --telemetry DIR``) turns on
    the observability layer for the run: a telemetry session is
    installed and propagated to the workers (structured JSONL events,
    spans, metrics; see ``docs/OBSERVABILITY.md``), and the coordinator
    writes a Prometheus text export plus a final metrics snapshot to
    DIR before returning.  The session is owned by this call — it is
    torn down (and the worker hand-off environment variable removed)
    even when the campaign raises.  Telemetry never changes results —
    the run is bitwise-identical to one without it.

    :attr:`CampaignResult.wall_seconds` runs from entry to return, so it
    includes the set-up (telemetry, store tier, workload and plan
    archive publication) as well as the cells.
    """
    start = time.perf_counter()
    with _telemetry_session(telemetry_dir):
        return _run_campaign_impl(
            start, tasks, ga_config, store_path, workload_seed, processes,
            serial, progress, campaign_dir, resume, retry_policy,
            warm_start_neighbors, strategy,
        )


@contextlib.contextmanager
def _telemetry_session(telemetry_dir: Optional[str]):
    """Own a telemetry session for one campaign when a DIR is given."""
    if telemetry_dir is None:
        yield
        return
    telemetry_configure(telemetry_dir)
    try:
        yield
    finally:
        session = telemetry_get_session()
        if session is not None:
            session.export_prometheus()
        telemetry_shutdown()


def _run_campaign_impl(
    start: float,
    tasks: Optional[Sequence[TuningTask]],
    ga_config: GAConfig,
    store_path: Optional[str],
    workload_seed: int,
    processes: Optional[int],
    serial: bool,
    progress,
    campaign_dir: Optional[str],
    resume: bool,
    retry_policy: Optional[RetryPolicy],
    warm_start_neighbors: bool,
    strategy: str,
) -> CampaignResult:
    say = progress or (lambda _msg: None)
    if tasks is None:
        tasks = grid_tasks()
    tasks = list(tasks)
    if not tasks:
        raise ConfigurationError("campaign needs at least one task")
    from repro.search.registry import STRATEGY_NAMES

    if strategy not in STRATEGY_NAMES:
        raise ConfigurationError(
            f"unknown search strategy {strategy!r}; expected one of "
            f"{', '.join(STRATEGY_NAMES)}"
        )
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate task names in campaign: {names}")
    policy = retry_policy or RetryPolicy()
    if store_path is not None:
        _open_campaign_tier(store_path)

    manifest: Optional[CampaignManifest] = None
    if campaign_dir is not None:
        if resume and not os.path.exists(os.path.join(campaign_dir, "manifest.json")):
            raise CampaignError(
                f"cannot resume: {campaign_dir!r} has no campaign manifest"
            )
        fingerprint = campaign_fingerprint(
            names, ga_config, workload_seed, strategy=strategy
        )
        manifest = CampaignManifest.open_or_create(
            campaign_dir, fingerprint, store_path
        )
        if store_path is None:
            store_path = manifest.store_path or os.path.join(
                campaign_dir, "store.tier"
            )
            _open_campaign_tier(store_path)
            if manifest.store_path != store_path:
                manifest.store_path = store_path
                manifest.save()
    elif resume:
        raise ConfigurationError("resume=True requires campaign_dir")

    resumed: Dict[str, CampaignTaskResult] = {}
    todo: List[TuningTask] = []
    for task in tasks:
        if manifest is not None and manifest.is_done(task.name):
            resumed[task.name] = _resumed_result(task.name, manifest.cell(task.name))
            say(f"{task.name}: already done, skipped")
        else:
            todo.append(task)

    parallel = not (serial or len(todo) <= 1)

    # Parallel runs intern the workload once in a shared-memory archive
    # so every spawned worker maps the programs instead of regenerating
    # the suite per process.  Purely an IPC optimization: workers fall
    # back to local generation when the segment is unreachable, and the
    # fingerprints of reconstructed programs equal the originals'.
    archive = None
    if parallel:
        try:
            from repro.perf.shm import WorkloadArchive
            from repro.workloads.suites import SPECJVM98

            archive = WorkloadArchive.publish(
                SPECJVM98.programs(seed=workload_seed)
            )
        except Exception:
            archive = None

    # Parallel runs also share *compiled plan caches*: each finished
    # cell returns its plan exports, the coordinator merges them into a
    # PlanArchive and republishes, and later cells' workers warm-start
    # from the newest epoch instead of recompiling identical plans.
    # Like the workload archive this is purely a throughput
    # optimization — warm-started cells are bitwise-identical to cold
    # ones, and any failure degrades the campaign to private caches.
    # The archive also *persists* under <tier>/plans, so a future
    # coordinator warm-starts its compiled plans from disk before the
    # first cell even finishes.
    plan_publisher = None
    if parallel:
        try:
            from repro.perf import planshare

            if planshare.plan_sharing_enabled():
                plan_publisher = planshare.PlanSharePublisher(
                    persist_dir=os.path.join(store_path, "plans")
                    if store_path is not None
                    else None
                )
        except Exception:
            plan_publisher = None

    payloads = [
        (
            task.name,
            CellRequest(
                task=task,
                ga_config=ga_config,
                store_path=store_path,
                workload_seed=workload_seed,
                checkpoint_path=checkpoint_path_for(campaign_dir, task.name)
                if campaign_dir is not None
                else None,
                archive_name=archive.name if archive is not None else None,
                plan_base=plan_publisher.base
                if plan_publisher is not None
                else None,
                warm_start_neighbors=warm_start_neighbors,
                strategy=strategy,
            ),
        )
        for task in todo
    ]

    finished: Dict[str, CampaignTaskResult] = {}

    def on_result(name: str, outcome: CellOutcome) -> None:
        # Fires in the coordinator as each cell completes.  The worker
        # already appended the cell's records to the tier; persist the
        # manifest entry immediately, so a crash later in the campaign
        # costs only the in-flight cells.
        task_name, tuned, context = outcome.task_name, outcome.tuned, outcome.context
        accel_stats = outcome.accelerator_stats
        fresh = outcome.appended
        if plan_publisher is not None and outcome.plan_exports:
            # fold the cell's compiled plans into the shared archive and
            # republish so cells still queued warm-start from them
            plan_publisher.merge(outcome.plan_exports)
            plan_publisher.publish_if_dirty()
        finished[task_name] = CampaignTaskResult(
            task_name=task_name,
            tuned=tuned,
            context=context,
            new_records=fresh,
            accelerator_stats=accel_stats,
        )
        if manifest is not None:
            manifest.record_done(
                task_name,
                tuned.to_json(),
                context,
                fresh,
                accel_stats,
                attempts=1,  # corrected below once failures are known
            )
        session = telemetry_get_session()
        if session is not None:
            session.emit("campaign.cell_done", task=task_name, ok=True,
                         new_records=fresh)
            registry = session.registry
            registry.counter("repro_cells_total", status="done").inc()
            registry.counter("repro_store_records_total").inc(fresh)
            if tuned is not None:
                if strategy == "ga":
                    registry.counter("repro_ga_generations_total").inc(
                        tuned.generations_run
                    )
                    registry.counter("repro_ga_evaluations_total").inc(
                        tuned.evaluations
                    )
                elif parallel:
                    # Worker registries die with the pool; fold the
                    # cell's ask/tell rounds and true evaluations here.
                    # Serial cells already counted these in-process via
                    # the search driver.
                    registry.counter(
                        "repro_strategy_batches_total", strategy=strategy
                    ).inc(tuned.generations_run)
                    registry.counter(
                        "repro_strategy_evaluations_total", strategy=strategy
                    ).inc(tuned.evaluations)
            if accel_stats:
                registry.absorb_counters(
                    {
                        counter: accel_stats.get(counter, 0)
                        for counter in STAT_COUNTERS
                    },
                    prefix="repro_accel_",
                )
                registry.counter("repro_plan_warm_hits_total").inc(
                    int(accel_stats.get("plan_warm_hits", 0))
                )
                registry.counter("repro_plan_recompiles_total").inc(
                    int(accel_stats.get("plan_recompiles", 0))
                )
            if store_path is not None:
                # tier hit/miss accounting: genomes the tier answered vs
                # genomes the cell had to simulate (and append)
                registry.counter("repro_tier_hits_total").inc(
                    tuned.store_hits if tuned is not None else 0
                )
                registry.counter("repro_tier_misses_total").inc(fresh)
                registry.counter("repro_tier_appends_total").inc(fresh)
        say(f"{task_name}: done")

    telemetry_emit("campaign.start", tasks=len(tasks))
    session = telemetry_get_session()
    if session is not None:
        # Materialize the IPC metric families up front so exports list
        # them even for runs that never attach a segment or pick a
        # kernel backend (e.g. serial smoke runs in CI).
        registry = session.registry
        registry.counter("repro_ipc_bytes_total", transport="shm").inc(0)
        registry.counter("repro_shm_attach_total").inc(0)
        registry.counter("repro_backend_selected_total", backend="numpy").inc(0)
        registry.counter("repro_plan_warm_hits_total").inc(0)
        registry.counter("repro_plan_recompiles_total").inc(0)
        registry.counter("repro_tier_hits_total").inc(0)
        registry.counter("repro_tier_misses_total").inc(0)
        registry.counter("repro_tier_appends_total").inc(0)
        registry.counter("repro_tier_compactions_total").inc(0)
        registry.counter("repro_ga_generations_total").inc(0)
        registry.counter("repro_ga_evaluations_total").inc(0)
        registry.counter(
            "repro_strategy_batches_total", strategy=strategy
        ).inc(0)
        registry.counter(
            "repro_strategy_evaluations_total", strategy=strategy
        ).inc(0)

    def on_pool_rebuild(reason: str) -> None:
        # Replacement workers will re-attach the workload archive; make
        # sure it still exists (a hostile operator or tmpfs cleaner may
        # have unlinked it while the pool was down) and republish when
        # it does not.  Workers degrade to local generation either way.
        nonlocal archive
        if archive is None:
            return
        try:
            from repro.perf.shm import SharedArraySegment, WorkloadArchive
            from repro.workloads.suites import SPECJVM98

            probe = SharedArraySegment.attach(archive.name, readonly=True)
            probe.close()
        except FileNotFoundError:
            # republish under the SAME name: the in-flight payloads
            # already carry it
            try:
                stale_name = archive.name
                archive.close()
                archive = WorkloadArchive.publish(
                    SPECJVM98.programs(seed=workload_seed), name=stale_name
                )
            except Exception:
                archive = None
        except Exception:
            pass

    try:
        with trace("campaign", tasks=len(todo)):
            if not parallel:
                n_processes = 1
                _, failures = run_supervised_serial(
                    payloads, execute_cell, policy=policy, on_result=on_result
                )
            else:
                if processes is not None:
                    n_processes = max(1, min(processes, len(todo)))
                else:
                    n_processes = min(len(todo), max(1, os.cpu_count() or 1))
                _, failures = run_supervised(
                    payloads,
                    execute_cell,
                    policy=policy,
                    max_workers=n_processes,
                    mp_context=multiprocessing.get_context("spawn"),
                    on_result=on_result,
                    on_pool_rebuild=on_pool_rebuild,
                )
    finally:
        if archive is not None:
            archive.unlink()
        if plan_publisher is not None:
            plan_publisher.unlink()

    if store_path is not None:
        # the campaign's writers have closed their shards; fold the
        # cooled ones (and any previous packs) into one indexed pack so
        # the next campaign loads its contexts with indexed queries
        # instead of replaying JSONL.  Best-effort: a failed compaction
        # leaves a fully readable tier for the next run to compact.
        try:
            from repro.perf.storetier import StoreTier

            summary = StoreTier(store_path).compact()
            if summary["shards"] or summary["packs"] > 1:
                say(
                    f"store tier: compacted {summary['shards']} shard(s) + "
                    f"{summary['packs']} pack(s) into "
                    f"{summary['records']} indexed records"
                )
                session = telemetry_get_session()
                if session is not None:
                    session.registry.counter(
                        "repro_tier_compactions_total"
                    ).inc()
        except Exception:  # pragma: no cover - e.g. read-only mount
            pass

    attempts_spent = {name: 1 for name in finished}
    for failure in failures:
        attempts_spent[failure.task_name] = (
            attempts_spent.get(failure.task_name, 0) + 1
        )

    results: List[CampaignTaskResult] = []
    for task in tasks:
        name = task.name
        if name in resumed:
            results.append(resumed[name])
        elif name in finished:
            result = finished[name]
            attempts = attempts_spent[name]
            if attempts != result.attempts:
                result = replace(result, attempts=attempts)
                if manifest is not None:
                    manifest.cells[name]["attempts"] = attempts
                    manifest.save()
            results.append(result)
        else:
            fatal = [f for f in failures if f.task_name == name]
            message = str(fatal[-1]) if fatal else "task never completed"
            say(f"{name}: FAILED ({message})")
            telemetry_emit(
                "campaign.cell_done", task=name, ok=False, new_records=0
            )
            results.append(
                CampaignTaskResult(
                    task_name=name,
                    tuned=None,
                    context=None,
                    new_records=0,
                    accelerator_stats=None,
                    status="failed",
                    error=message,
                    attempts=attempts_spent.get(name, policy.max_attempts),
                )
            )

    session = telemetry_get_session()
    if session is not None:
        succeeded = sum(1 for r in results if r.ok)
        failed = len(results) - succeeded
        if failed:
            session.registry.counter("repro_cells_total", status="failed").inc(
                failed
            )
        session.emit("campaign.done", succeeded=succeeded, failed=failed)
        session.emit("metrics.snapshot", metrics=session.registry.snapshot())

    return CampaignResult(
        results=tuple(results),
        wall_seconds=time.perf_counter() - start,
        processes=n_processes,
        failures=tuple(failures),
    )
