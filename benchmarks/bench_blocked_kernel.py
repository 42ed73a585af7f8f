"""Throughput benchmark of the cache-blocked batched propagation call.

Measures what the blocked kernels bought over the dispatch pattern they
replaced: before this layer, every representative row of an *Opt*
generation went through its own ``opt_propagate_batch`` call (one
Python/ctypes round trip per row, and one full walk of the program's
cache entries per row); the blocked entry point hands the whole
representative matrix to the compiled kernel once, which walks methods
in the outer loop over cache-sized blocks of representatives so each
entry's CSR row is applied to a whole block while hot.

The measurement uses real cache state, not synthetic matrices: one
50-genome bred generation over SPECjvm98 is evaluated through the
batched evaluator to populate every program's
:class:`~repro.perf.plancache.MethodPlanCache`, then each program's
resolved representative rows (tiled to a steady-state batch size) are
propagated both ways in interleaved timed rounds, user CPU time only
(same clock rationale as ``bench_native_kernel.py``).  The blocked
kernel replays the per-row kernel's IEEE-754 operation sequence
exactly, so the outputs are asserted byte-identical, never
approximately equal.

``run_blocked_kernel`` is importable on its own so
``tools/bench_guard.py`` can run the measurement headlessly and compare
the speedup against the committed baseline
(``benchmarks/BENCH_blocked_baseline.json``).
"""

from __future__ import annotations

import resource
from typing import Dict, List

import numpy as np

from repro.arch import PENTIUM4
from repro.jvm.inlining import InliningParameters
from repro.jvm.runtime import VirtualMachine
from repro.jvm.scenario import OPTIMIZING
from repro.perf import native
from repro.perf.batch import GenerationBatchEvaluator
from repro.workloads.suites import SPECJVM98

from bench_evaluation_speed import generation_genomes
from conftest import emit

#: every program's resolved rows are tiled up to at least this many
#: representatives so both legs measure steady-state batches (a real
#: campaign accumulates comparable row counts across generations)
MIN_REPS = 256


def run_blocked_kernel(
    n_genomes: int = 50, seed: int = 0, rounds: int = 5
) -> Dict[str, object]:
    """Measure per-row kernel dispatch vs one cache-blocked call."""
    backend = native.backend_for("cext")
    if backend is None:
        raise RuntimeError(
            "no compiled kernel backend available (no C compiler) — the "
            "blocked guard needs the cc-built C extension"
        )

    programs = SPECJVM98.programs(seed=0)
    genomes = generation_genomes(n_genomes, seed)
    params_list = [InliningParameters(*genome) for genome in genomes]

    # populate real plan caches: one full generation through the
    # batched evaluator pinned to the compiled backend
    vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=True)
    runner = GenerationBatchEvaluator(vm)
    runner.accelerator.force_native_backend(backend)
    runner.run_generation(programs, params_list, attach_params=False)

    genome_matrix = np.array(genomes, dtype=np.int64)
    work: List[tuple] = []
    for state in runner.accelerator._states.values():
        cache = state.cache
        if not len(cache):
            continue
        rows = cache.match_many(genome_matrix)
        ok = (rows[:, state.reachable_list] >= 0).all(axis=1)
        rows = rows[ok]
        if not len(rows):
            continue
        reps = int(np.ceil(MIN_REPS / len(rows)))
        rows = np.ascontiguousarray(np.tile(rows, (reps, 1)))
        offsets, callees, rates = cache.edge_csr()
        work.append(
            (
                state.program.name,
                state.program.entry_id,
                rows,
                cache.self_rate_column().copy(),
                offsets.copy(),
                callees.copy(),
                rates.copy(),
            )
        )
    if not work:
        raise RuntimeError("no resolved representative rows to propagate")

    def per_row_sweep() -> None:
        for _, entry_id, rows, self_rate, offsets, callees, rates in work:
            for r in range(len(rows)):
                backend.opt_propagate_batch(
                    rows[r : r + 1], entry_id, self_rate, offsets, callees, rates
                )

    def blocked_sweep() -> None:
        for _, entry_id, rows, self_rate, offsets, callees, rates in work:
            backend.opt_propagate_blocked(
                rows, entry_id, self_rate, offsets, callees, rates
            )

    # bitwise identity, untimed: the blocked matrix must equal the
    # per-row results stacked in order, to the last byte
    mismatched = 0
    for _, entry_id, rows, self_rate, offsets, callees, rates in work:
        stacked = np.vstack(
            [
                backend.opt_propagate_batch(
                    rows[r : r + 1], entry_id, self_rate, offsets, callees, rates
                ).copy()
                for r in range(len(rows))
            ]
        )
        blocked = backend.opt_propagate_blocked(
            rows, entry_id, self_rate, offsets, callees, rates
        )
        if stacked.tobytes() != np.ascontiguousarray(blocked).tobytes():
            mismatched += 1

    def clock() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_utime

    # warm both dispatch paths once before timing
    per_row_sweep()
    blocked_sweep()

    per_row_secs = 0.0
    blocked_secs = 0.0
    for _ in range(rounds):
        start = clock()
        per_row_sweep()
        mid = clock()
        blocked_sweep()
        end = clock()
        per_row_secs += mid - start
        blocked_secs += end - mid

    total_rows = rounds * sum(len(item[2]) for item in work)
    return {
        "backend": backend.name,
        "n_programs": len(work),
        "rounds": rounds,
        "rows": total_rows,
        "per_row_seconds": per_row_secs,
        "blocked_seconds": blocked_secs,
        "per_row_rows_per_sec": total_rows / per_row_secs,
        "blocked_rows_per_sec": total_rows / blocked_secs,
        "speedup": per_row_secs / blocked_secs,
        "mismatched_fields": mismatched,
        "accelerator_stats": vm.perf_stats.as_dict(),
    }


def test_blocked_kernel_speedup():
    """Blocked batched call: >= 1.3x over per-row dispatch, bitwise."""
    result = run_blocked_kernel()
    emit(
        "cache-blocked propagation (tiled SPECjvm98 representative rows, Opt)",
        [
            f"backend:        {result['backend']}",
            f"per-row calls:  {result['per_row_seconds']:7.3f}s "
            f"({result['per_row_rows_per_sec']:9.1f} rows/s)",
            f"blocked call:   {result['blocked_seconds']:7.3f}s "
            f"({result['blocked_rows_per_sec']:9.1f} rows/s)",
            f"speedup:        {result['speedup']:7.2f}x",
        ],
    )
    assert result["mismatched_fields"] == 0
    assert result["speedup"] >= 1.3
