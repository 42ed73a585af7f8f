"""The off-line tuning driver (the paper's method, end to end).

One :class:`TuningTask` = one column of Table 4: a compilation
scenario, a target architecture, and an optimization goal.  The tuner
builds the training-suite evaluator, runs the GA over the Table 1
space, and returns a :class:`TunedHeuristic` — the fixed parameter
vector that would be "delivered with the compiler" for that
configuration (paper §3: the search happens once, off-line; there is no
runtime component).

The compiler's default parameters are injected into the initial
population, so on the *training* fitness the tuned result can never be
worse than the default — mirroring how the paper's search starts from a
space that contains the hand-tuned point.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.arch.base import MachineModel
from repro.core.evaluation import HeuristicEvaluator
from repro.core.metrics import Metric
from repro.core.parameters import TABLE1_SPACE, ParameterSpace
from repro.errors import TuningError
from repro.ga.engine import GAConfig, GAEngine
from repro.ga.statistics import GenerationStats
from repro.jvm.callgraph import Program
from repro.jvm.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.jvm.inlining import JIKES_DEFAULT_PARAMETERS, InliningParameters
from repro.jvm.scenario import CompilationScenario

__all__ = ["TuningTask", "TunedHeuristic", "InliningTuner", "DEFAULT_GA_CONFIG"]

#: experiment-scale GA budget.  The paper ran 20 x 500 against real
#: hardware; the simulator's landscape is noise-free, so a smaller
#: budget with early stopping converges to the same optima class.
DEFAULT_GA_CONFIG = GAConfig(
    population_size=20,
    generations=40,
    elitism=2,
    crossover_rate=0.9,
    early_stop_patience=10,
)


@dataclass(frozen=True)
class TuningTask:
    """One tuning configuration (a Table 4 column)."""

    name: str
    scenario: CompilationScenario
    machine: MachineModel
    metric: Metric
    seed: int = 0

    def __str__(self) -> str:
        return (
            f"{self.name}: scenario={self.scenario.name}, "
            f"machine={self.machine.name}, goal={self.metric.value}"
        )


@dataclass(frozen=True)
class TunedHeuristic:
    """A tuned parameter vector plus provenance.

    ``strategy`` names the search that produced it (``"ga"`` unless the
    tuner was configured otherwise); ``detail`` carries
    strategy-specific extras — the Pareto front, the MCTS decision
    prefix — and is omitted from JSON when empty.
    """

    task_name: str
    scenario_name: str
    machine_name: str
    metric: Metric
    params: InliningParameters
    fitness: float
    default_fitness: float
    generations_run: int
    evaluations: int
    wall_seconds: float
    store_hits: int = 0
    history: Tuple[GenerationStats, ...] = field(repr=False, default=())
    strategy: str = "ga"
    detail: Optional[dict] = field(repr=False, default=None)

    @property
    def improvement(self) -> float:
        """Fractional training-fitness improvement over the default
        heuristic (positive = better)."""
        if self.default_fitness <= 0:
            raise TuningError("default fitness must be positive")
        return 1.0 - self.fitness / self.default_fitness

    def to_json(self) -> str:
        """Serialize (without history) for storage alongside results."""
        payload = {
            "task": self.task_name,
            "scenario": self.scenario_name,
            "machine": self.machine_name,
            "metric": self.metric.value,
            "params": list(self.params.as_tuple()),
            "fitness": self.fitness,
            "default_fitness": self.default_fitness,
            "generations_run": self.generations_run,
            "evaluations": self.evaluations,
            "wall_seconds": self.wall_seconds,
            "store_hits": self.store_hits,
            "strategy": self.strategy,
        }
        if self.detail is not None:
            payload["detail"] = self.detail
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "TunedHeuristic":
        """Inverse of :meth:`to_json` (history is not restored)."""
        data = json.loads(text)
        return cls(
            task_name=data["task"],
            scenario_name=data["scenario"],
            machine_name=data["machine"],
            metric=Metric.parse(data["metric"]),
            params=InliningParameters.from_sequence(data["params"]),
            fitness=float(data["fitness"]),
            default_fitness=float(data["default_fitness"]),
            generations_run=int(data["generations_run"]),
            evaluations=int(data["evaluations"]),
            wall_seconds=float(data["wall_seconds"]),
            store_hits=int(data.get("store_hits", 0)),
            strategy=str(data.get("strategy", "ga")),
            detail=data.get("detail"),
        )


class InliningTuner:
    """Runs the search (GA by default) for tuning tasks."""

    def __init__(
        self,
        ga_config: GAConfig = DEFAULT_GA_CONFIG,
        space: Optional[ParameterSpace] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        evaluator_factory=None,
        store_path: Optional[str] = None,
        warm_start_neighbors: bool = False,
        strategy: str = "ga",
        strategy_budget: Optional[int] = None,
    ) -> None:
        from repro.search.registry import STRATEGY_NAMES

        if strategy not in STRATEGY_NAMES:
            raise TuningError(
                f"unknown search strategy {strategy!r}; expected one of "
                f"{', '.join(STRATEGY_NAMES)}"
            )
        #: which search proposes genomes.  ``"ga"`` is the default and
        #: runs the exact historical engine path; the others go through
        #: :func:`repro.search.driver.run_search`.
        self.strategy = strategy
        #: evaluation budget for the non-GA strategies; defaults to the
        #: GA's population x generations so convergence comparisons are
        #: per-evaluation fair (see benchmarks/bench_strategies.py).
        self.strategy_budget = strategy_budget
        self.ga_config = ga_config
        self.space = space or TABLE1_SPACE
        self.cost_model = cost_model
        self._evaluator_factory = evaluator_factory or HeuristicEvaluator
        #: when set, genome fitnesses persist here, keyed by the
        #: evaluation context; an identical re-run (same task, programs,
        #: space, cost model) re-simulates nothing.  A directory (or
        #: ``*.tier`` path) opens as a sharded
        #: :class:`~repro.perf.storetier.TierStore`, which any number of
        #: processes share; anything else as the single-process JSONL
        #: store.
        self.store_path = store_path
        #: opt-in, trajectory-changing: when the store is a tier and the
        #: task's context has no recorded entries yet, seed the initial
        #: GA population with the best genomes of the nearest-neighbour
        #: workload profiles already in the tier.
        self.warm_start_neighbors = warm_start_neighbors
        #: the store used by the most recent :meth:`tune` call (closed),
        #: and that run's accelerator counters — campaign bookkeeping.
        self.last_store = None
        self.last_accelerator_stats: Optional[Dict[str, float]] = None
        #: the most recent run's compiled plan caches as flat arrays
        #: (repro.perf.planshare), captured only when this process holds
        #: a plan-share client — campaign workers return them so the
        #: coordinator can merge and republish for later tasks.
        self.last_plan_exports = None

    # ------------------------------------------------------------------
    def tune(
        self,
        task: TuningTask,
        training_programs: Sequence[Program],
        on_generation=None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
    ) -> TunedHeuristic:
        """Tune the heuristic for *task* over *training_programs*.

        ``checkpoint_path`` makes the run resumable: engine state is
        persisted there atomically every ``checkpoint_every``
        generations, and a run finding an existing checkpoint at that
        path resumes from its last saved generation instead of starting
        over (the campaign runner uses this for ``--resume``).

        With a non-default :attr:`strategy` the search runs through the
        strategy driver instead of the GA engine; the GA path below is
        byte-for-byte the historical one.
        """
        if self.strategy != "ga":
            return self._tune_with_strategy(
                task,
                training_programs,
                on_generation=on_generation,
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every,
            )
        evaluator = self._evaluator_factory(
            programs=training_programs,
            machine=task.machine,
            scenario=task.scenario,
            metric=task.metric,
            space=self.space,
            cost_model=self.cost_model,
        )
        config = self.ga_config.scaled(
            seed=task.seed, rng_key=f"tuner:{task.name}"
        )
        store = self._open_store(task, training_programs)
        engine = GAEngine(self.space.to_ga_space(), config, store=store)

        seeds = self._warm_start_seeds(task, training_programs, store)

        resume_from = None
        if checkpoint_path is not None and os.path.exists(checkpoint_path):
            from repro.ga.checkpoint import load_checkpoint

            resume_from = load_checkpoint(checkpoint_path)

        start = time.perf_counter()
        try:
            result = engine.run(
                evaluator,
                on_generation=on_generation,
                initial_genomes=(
                    [self.space.encode(JIKES_DEFAULT_PARAMETERS)] + seeds
                ),
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every,
                resume_from=resume_from,
            )
            # evaluate before the accelerator is retired below so its
            # counters land in this run's stats snapshot
            default_fitness = evaluator.default_fitness
        finally:
            store_hits = store.hits if store is not None else 0
            if store is not None:
                store.close()
            self.last_store = store
            accelerator = getattr(evaluator, "vm", None)
            accelerator = getattr(accelerator, "_accelerator", None)
            self.last_accelerator_stats = (
                accelerator.stats.as_dict() if accelerator is not None else None
            )
            self.last_plan_exports = None
            if accelerator is not None:
                from repro.perf import planshare

                if planshare.get_client() is not None:
                    # campaign worker: hand the compiled plans back to the
                    # coordinator before the accelerator (and its caches)
                    # is retired
                    try:
                        self.last_plan_exports = (
                            planshare.export_accelerator_plans(accelerator)
                            or None
                        )
                    except Exception:
                        self.last_plan_exports = None
            if accelerator is not None:
                # this run's accelerator is done: fold its counters into
                # the process totals and drop it from live aggregation,
                # so per-task attribution never re-counts dead
                # accelerators (see perf.engine.aggregate_stats)
                accelerator.retire()
        wall = time.perf_counter() - start

        return TunedHeuristic(
            task_name=task.name,
            scenario_name=task.scenario.name,
            machine_name=task.machine.name,
            metric=task.metric,
            params=self.space.decode(result.best_genome),
            fitness=result.best_fitness,
            default_fitness=default_fitness,
            generations_run=result.generations_run,
            evaluations=result.evaluations,
            wall_seconds=wall,
            store_hits=store_hits,
            history=result.history,
        )

    def _tune_with_strategy(
        self,
        task: TuningTask,
        training_programs: Sequence[Program],
        on_generation=None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
    ) -> TunedHeuristic:
        """Run a non-GA strategy through the search driver.

        Strategy-specific wiring:

        * ``cmaes`` / ``bandit`` search the same 5-parameter space with
          the same scalar evaluator and share the evaluation store.
        * ``pareto`` uses the multi-objective evaluator and runs
          storeless — the store tiers are scalar-only by schema.
        * ``mcts`` searches inline-decision prefixes with the advice
          evaluator and runs storeless — a 0/1 decision vector must
          never collide with a parameter genome under the same store
          context.
        """
        from repro.search.driver import run_search

        cfg = self.ga_config
        name = self.strategy
        budget = self.strategy_budget or cfg.population_size * cfg.generations
        ga_space = self.space.to_ga_space()
        rng_key = f"tuner:{task.name}:{name}"
        default_genome = self.space.encode(JIKES_DEFAULT_PARAMETERS)
        store = None

        if name == "mcts":
            from repro.core.evaluation import AdviceEvaluator
            from repro.search.mcts import InlineMCTSStrategy

            evaluator = AdviceEvaluator(
                programs=training_programs,
                machine=task.machine,
                scenario=task.scenario,
                metric=task.metric,
                cost_model=self.cost_model,
            )
            strategy = InlineMCTSStrategy(
                budget=budget, seed=task.seed, rng_key=rng_key
            )
        elif name == "pareto":
            from repro.core.evaluation import MultiObjectiveEvaluator
            from repro.search.pareto import ParetoStrategy

            evaluator = MultiObjectiveEvaluator(
                programs=training_programs,
                machine=task.machine,
                scenario=task.scenario,
                metric=task.metric,
                space=self.space,
                cost_model=self.cost_model,
            )
            strategy = ParetoStrategy(
                ga_space,
                population_size=cfg.population_size,
                generations=max(1, budget // cfg.population_size),
                crossover_rate=cfg.crossover_rate,
                seed=task.seed,
                rng_key=rng_key,
                initial_genomes=[default_genome],
            )
        else:
            evaluator = self._evaluator_factory(
                programs=training_programs,
                machine=task.machine,
                scenario=task.scenario,
                metric=task.metric,
                space=self.space,
                cost_model=self.cost_model,
            )
            store = self._open_store(task, training_programs)
            if name == "cmaes":
                from repro.search.cmaes import CMAESStrategy

                strategy = CMAESStrategy(
                    ga_space,
                    budget=budget,
                    seed=task.seed,
                    rng_key=rng_key,
                    initial_genomes=[default_genome],
                )
            else:  # bandit
                from repro.search.bandit import BanditHalvingStrategy

                strategy = BanditHalvingStrategy(
                    ga_space,
                    budget=budget,
                    seed=task.seed,
                    rng_key=rng_key,
                    initial_genomes=[default_genome],
                )

        if checkpoint_path is not None and os.path.exists(checkpoint_path):
            strategy.restore_from(checkpoint_path)

        start = time.perf_counter()
        try:
            result = run_search(
                strategy,
                evaluator,
                store=store,
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every,
                on_progress=on_generation,
            )
            default_fitness = evaluator.default_fitness
            if name == "mcts":
                params = evaluator.params
                fitness = float(result.best_fitness)
                detail = dict(result.detail or {})
                detail["decisions"] = list(result.best_genome)
            elif name == "pareto":
                params = self.space.decode(result.best_genome)
                # The front trades objectives off; the scalar Perf of
                # the knee point keeps the result comparable to the
                # other strategies (and `improvement` meaningful).
                fitness = evaluator.fitness_of_params(params)
                detail = dict(result.detail or {})
                detail["objectives"] = list(result.best.fitness)
                detail["front"] = [
                    [list(genome), list(obj)] for genome, obj in result.front
                ]
            else:
                params = self.space.decode(result.best_genome)
                fitness = float(result.best_fitness)
                detail = result.detail
        finally:
            store_hits = store.hits if store is not None else 0
            if store is not None:
                store.close()
            self.last_store = store
            accelerator = getattr(evaluator, "vm", None)
            accelerator = getattr(accelerator, "_accelerator", None)
            self.last_accelerator_stats = (
                accelerator.stats.as_dict() if accelerator is not None else None
            )
            self.last_plan_exports = None
            if accelerator is not None:
                from repro.perf import planshare

                if planshare.get_client() is not None:
                    try:
                        self.last_plan_exports = (
                            planshare.export_accelerator_plans(accelerator)
                            or None
                        )
                    except Exception:
                        self.last_plan_exports = None
                accelerator.retire()
        wall = time.perf_counter() - start

        return TunedHeuristic(
            task_name=task.name,
            scenario_name=task.scenario.name,
            machine_name=task.machine.name,
            metric=task.metric,
            params=params,
            fitness=fitness,
            default_fitness=default_fitness,
            generations_run=result.iterations,
            evaluations=result.evaluations,
            wall_seconds=wall,
            store_hits=store_hits,
            history=result.history,
            strategy=name,
            detail=detail,
        )

    def _open_store(self, task: TuningTask, programs: Sequence[Program]):
        """Open the persistent evaluation store for *task*, if enabled.

        A tier path opens as a :class:`~repro.perf.storetier.TierStore`
        and the task's workload profile is registered with the tier so
        later jobs with different workloads can find it as a
        nearest-neighbour warm-start source.
        """
        if self.store_path is None:
            return None
        from repro.perf.store import evaluation_context_key
        from repro.perf.storetier import TierStore, build_profile, open_store

        context = evaluation_context_key(
            task.machine,
            task.scenario,
            task.metric,
            self.cost_model,
            self.space,
            programs,
        )
        store = open_store(self.store_path, context=context)
        if isinstance(store, TierStore):
            store.tier.register_profile(
                context,
                build_profile(
                    task.machine,
                    task.scenario,
                    task.metric,
                    self.cost_model,
                    self.space,
                    programs,
                ),
            )
        return store

    def _warm_start_seeds(
        self, task: TuningTask, programs: Sequence[Program], store
    ) -> list:
        """Nearest-neighbour population seeds from the tier (opt-in).

        Only fires when enabled, the store is a tier, and the task's own
        context is empty — a context with recorded entries already warm
        starts *exactly* through store lookups, which is strictly
        better (and bitwise-identical to a cold run, which seeding is
        not)."""
        from repro.perf.storetier import TierStore, build_profile

        if not self.warm_start_neighbors or not isinstance(store, TierStore):
            return []
        if store.size:
            return []
        seeds = store.tier.warm_start_genomes(
            build_profile(
                task.machine,
                task.scenario,
                task.metric,
                self.cost_model,
                self.space,
                programs,
            ),
            k=max(1, self.ga_config.population_size // 4),
        )
        return [tuple(seed) for seed in seeds]

    def tune_per_program(
        self,
        task: TuningTask,
        program: Program,
        on_generation=None,
    ) -> TunedHeuristic:
        """Tune for a single program (the paper's §6.5 experiment)."""
        sub_task = TuningTask(
            name=f"{task.name}:{program.name}",
            scenario=task.scenario,
            machine=task.machine,
            metric=task.metric,
            seed=task.seed,
        )
        return self.tune(sub_task, [program], on_generation=on_generation)
