"""Batch evaluators: serial and generation-batched.

The GA engine hands an evaluator the batch of *distinct, uncached*
genomes of each generation.  :class:`BatchEvaluator` (the engine's
default) forwards the whole batch to the fitness function's
``evaluate_batch`` when it offers one — for
:class:`repro.core.evaluation.HeuristicEvaluator` that enters the
generation-batched accelerator path (cross-genome dedup + matrix
accounting, see :mod:`repro.perf.batch`) — and otherwise degrades to
the serial loop.

Parallelism lives at cell granularity, not here: a campaign or the
service daemon runs whole tuning cells in pool workers
(:func:`repro.experiments.campaign.execute_cell`), and those workers
share evaluations through the store tier (:mod:`repro.perf.storetier`).
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

__all__ = ["SerialEvaluator", "BatchEvaluator"]

Genome = Tuple[int, ...]
FitnessFn = Callable[[Genome], float]


class SerialEvaluator:
    """Evaluate genomes one after another in-process."""

    def map(self, function: FitnessFn, genomes: Sequence[Genome]) -> List[float]:
        """Apply *function* to every genome, preserving order."""
        from repro.ga.fitness import coerce_fitness

        return [coerce_fitness(function(g)) for g in genomes]

    def close(self) -> None:
        """No resources to release."""


class BatchEvaluator:
    """Forward whole generations to the fitness function when it can
    take them.

    A fitness function exposing ``evaluate_batch(genomes) -> values``
    receives the generation's distinct uncached genomes in one call —
    the accelerated evaluator dedups them by plan signature and
    accounts the remainder as matrices.  Functions without the hook
    (plain callables, custom objects) are evaluated serially, so this
    evaluator is a drop-in default.
    """

    def map(self, function: FitnessFn, genomes: Sequence[Genome]) -> List[float]:
        """Apply *function* to every genome, preserving order.

        Values pass through :func:`repro.ga.fitness.coerce_fitness`, so
        multi-objective functions returning tuples work here.
        """
        from repro.ga.fitness import coerce_fitness

        batch = getattr(function, "evaluate_batch", None)
        if batch is not None:
            return [coerce_fitness(v) for v in batch(list(genomes))]
        return [coerce_fitness(function(g)) for g in genomes]

    def close(self) -> None:
        """No resources to release."""
