"""Vectorized adaptive-scenario kernel: tier 5 of the perf stack.

The *Adapt* scenario is the paper's headline configuration, yet until
this module every adaptive plan signature that missed the report memo
was accounted one at a time: a pure-Python invocation-propagation loop
per representative (:meth:`EvaluationAccelerator._propagate_adaptive`)
followed by per-representative NumPy accounting, and every cold
promoted method was compiled once per genome.  The kernel batches all
three stages across the generation:

* **matrix invocation propagation** — the unresolved representatives of
  a generation are stacked as columns of a ``(methods, representatives)``
  counts matrix and the method-order propagation loop runs *once*.
  Each baseline method's self-recursion scaling and residual-edge
  accumulation become row-wise vector operations; promoted rows, where
  the compiled version (and hence the residual edges) differs per
  column, gather per-column self-rates for one row-wide division and
  flatten their per-entry edge tables into one scatter per row.
* **batched final-version accounting** — baseline column overwrites at
  the promoted positions, live masks, time/size fills, the sequential
  compile-cycle and installed-size reductions, hot-code-size /
  I-cache-pressure factors and the warm-up mix all run as matrix
  expressions over the representative dimension, sharing the Opt path's
  row-wise pressure helper (:func:`repro.perf.batch.batched_cache_pressure`).
* **grouped cold-path compilation** — when several genomes miss on the
  same promoted method, each freshly traced plan is fanned out to every
  still-pending genome its parameter region covers
  (:func:`repro.perf.fastcompile.region_covers`), so one
  :class:`~repro.perf.fastcompile.TracedCompiler` plan is emitted per
  distinct region instead of one per genome, while
  :meth:`MethodPlanCache.add` is fed in exactly the serial reference's
  entry order (genome-major, promotion order within a genome).

**Bitwise identity is the contract.**  Columns are independent: every
floating-point operation a column experiences — the division by
``1 - self_rate``, each ``count * rate`` product, each accumulation into
a callee's count — has the same operands in the same order as the
serial reference's scalar chain for that representative, so each
column's result is the serial result to the last bit.  Inactive columns
ride along as exact no-ops: their counts are ``+0.0``, and both
``0.0 / (1 - r)`` (positive divisor) and ``x + 0.0 * rate`` reproduce
the skipped state bit for bit on the non-negative values the
propagation produces.  The equivalence suite
(``tests/perf/test_adaptive_kernel.py``) enforces this against
``run_reference``, the serial memoized path and the per-representative
batch path across both machine models.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.jvm.inlining import InliningParameters
from repro.perf.fastcompile import region_covers
from repro.telemetry import trace

__all__ = ["AdaptiveBatchKernel"]


class AdaptiveBatchKernel:
    """Batched resolution and accounting for adaptive plan signatures.

    One instance serves one memoizing VM (shared caches, shared stats);
    :class:`~repro.perf.batch.GenerationBatchEvaluator` owns it and
    routes its adaptive work through it.  All methods operate on the
    accelerator's per-program ``_ProgramState`` with the skeleton
    already ensured.
    """

    def __init__(self, vm, accelerator) -> None:
        self.vm = vm
        self.accelerator = accelerator

    # ------------------------------------------------------------------
    # grouped cold-path compilation
    # ------------------------------------------------------------------
    def resolve_missing(
        self,
        state,
        params_list: Sequence[InliningParameters],
        values_matrix: np.ndarray,
        resolved: np.ndarray,
        missing_rows: np.ndarray,
    ) -> None:
        """Compile what the broadcast match left unresolved, grouped.

        Visits the unresolved genomes in population order and their
        promoted methods in promotion order — the serial reference
        order, so :meth:`MethodPlanCache.add` sees the identical entry
        sequence.  After each compile, the traced region's integer
        bounds are broadcast against the whole generation's parameter
        matrix and every covered genome is resolved in place: genomes
        sharing the plan's region never reach the compiler (the serial
        path rediscovered this with a full per-genome re-match).
        """
        stats = self.accelerator.stats
        skeleton = state.skeleton
        cache = state.cache
        traced = self.accelerator._traced(state)
        use_hot = self.vm.scenario.uses_hot_callsite_heuristic
        builds = 0
        for g in missing_rows.tolist():
            row = resolved[g]
            values = params_list[g].as_tuple()
            for mid, level in skeleton.promotions:
                if row[mid] >= 0:
                    continue
                version, region = traced.compile(
                    mid,
                    values,
                    level,
                    hot_sites=skeleton.hot_sites,
                    use_hot_heuristic=use_hot,
                )
                entry = cache.add(mid, region, version)
                builds += 1
                # fan the fresh version out to every genome the region
                # covers; regions of one method are disjoint, so no
                # covered genome can already hold a different entry
                covered = np.flatnonzero(region_covers(region, values_matrix))
                resolved[covered, mid] = entry
                if len(covered) > 1:
                    stats.adaptive_grouped_compiles += 1
                    stats.adaptive_group_covered += len(covered) - 1
        stats.method_builds += builds

    # ------------------------------------------------------------------
    # matrix invocation propagation
    # ------------------------------------------------------------------
    def propagate_matrix(self, state, entry_matrix: np.ndarray) -> np.ndarray:
        """All representatives' invocation counts in one forward pass.

        *entry_matrix* is ``(representatives, promotions)``; the result
        is ``(methods, representatives)``, column ``r`` bitwise equal to
        :meth:`EvaluationAccelerator._propagate_adaptive` for
        representative ``r``.  Methods run in index order exactly once;
        baseline methods (whose residual edges are column-independent)
        propagate with whole-row vector operations, promoted methods
        with a gathered row-wide division and one flattened edge
        scatter per row.

        When a compiled kernel backend is resolved
        (:mod:`repro.perf.native`), the whole propagation runs as one
        compiled call instead — each representative executes the serial
        reference's scalar chain in C doubles, which performs the
        identical IEEE-754 operation sequence, so the result is the
        same bits either way.  A kernel infrastructure failure falls
        back to the numpy path below and disables the backend for this
        accelerator; a genuine missing-version error propagates as the
        reference's :class:`SimulationError`.
        """
        backend = self.accelerator.native_backend()
        if backend is not None:
            try:
                counts = self._propagate_matrix_native(
                    backend, state, entry_matrix
                )
            except SimulationError:
                raise
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                stats = self.accelerator.stats
                stats.native_fallbacks += 1
                self.accelerator.disable_native()
            else:
                stats = self.accelerator.stats
                stats.native_propagations += 1
                stats.native_rows += len(entry_matrix)
                return counts
        program = state.program
        cache = state.cache
        baseline_info = state.baseline_info
        n_methods = len(program)
        n_reps = len(entry_matrix)
        entry_cols = {
            mid: entry_matrix[:, i] for i, mid in enumerate(state.key_mids)
        }
        self_rate_col = cache.self_rate_column()
        edge_count_col = cache.edge_count_column()
        edge_arrays = cache.edge_arrays
        rep_range = np.arange(n_reps)

        counts = np.zeros((n_methods, n_reps), dtype=np.float64)
        counts[program.entry_id] = 1.0
        for mid in range(n_methods):
            c = counts[mid]
            if not c.any():
                # no representative invokes this method: the serial
                # loop skips it column by column, we skip it wholesale
                continue
            entries = entry_cols.get(mid)
            if entries is None:
                info = baseline_info.get(mid)
                if info is None:
                    raise SimulationError(
                        f"method {mid} of {program.name!r} is invoked "
                        "but has no compiled version"
                    )
                self_rate, callees, rates = info
                if self_rate > 0.0:
                    c = c / (1.0 - self_rate)
                    counts[mid] = c
                for callee, rate in zip(callees, rates):
                    counts[callee] += c * rate
                continue
            # promoted method: the compiled version — and hence the
            # residual edges — differs per column.  The self-recursion
            # scaling gathers each column's rate and divides the whole
            # row at once (x / 1.0 is exact where the rate is zero,
            # 0.0 / (1 - r) is +0.0 for inactive columns); the edge
            # contributions of every column are flattened into one
            # (callee, column, delta) scatter.  ``np.add.at`` applies
            # the pairs unbuffered in the given column-major, edge-order
            # sequence, so a cell hit twice by one caller (baseline-style
            # duplicate call sites) accumulates in the reference's order.
            c = c / (1.0 - self_rate_col[entries])
            counts[mid] = c
            edge_counts = edge_count_col[entries]
            if not edge_counts.any():
                continue
            callee_parts = []
            rate_parts = []
            for e in entries.tolist():
                callees, rates = edge_arrays(e)
                callee_parts.append(callees)
                rate_parts.append(rates)
            col_idx = np.repeat(rep_range, edge_counts)
            callee_idx = np.concatenate(callee_parts)
            rates_flat = np.concatenate(rate_parts)
            np.add.at(counts, (callee_idx, col_idx), c[col_idx] * rates_flat)
        return counts

    def _propagate_matrix_native(
        self, backend, state, entry_matrix: np.ndarray
    ) -> np.ndarray:
        """Run the matrix propagation through the compiled backend.

        Prepares (once per program state) the flat arrays the kernel
        walks — the per-method promoted-slot map and the baseline
        residual-edge CSR — and returns the ``(methods,
        representatives)`` view of the kernel's row-major output.
        """
        program = state.program
        cache = state.cache
        ctx = state.native_ctx
        if ctx is None:
            n_methods = len(program)
            promoted_slot = np.full(n_methods, -1, dtype=np.int64)
            promoted_slot[state.key_mids_array] = np.arange(
                len(state.key_mids), dtype=np.int64
            )
            base_present = np.zeros(n_methods, dtype=np.uint8)
            base_self_rate = np.zeros(n_methods, dtype=np.float64)
            base_offsets = np.zeros(n_methods + 1, dtype=np.int64)
            callee_parts: list = []
            rate_parts: list = []
            total = 0
            for mid in range(n_methods):
                info = state.baseline_info.get(mid)
                if info is not None:
                    self_rate, callees, rates = info
                    base_present[mid] = 1
                    base_self_rate[mid] = self_rate
                    callee_parts.extend(callees)
                    rate_parts.extend(rates)
                    total += len(callees)
                base_offsets[mid + 1] = total
            ctx = (
                promoted_slot,
                base_present,
                base_self_rate,
                base_offsets,
                np.array(callee_parts, dtype=np.int64),
                np.array(rate_parts, dtype=np.float64),
            )
            state.native_ctx = ctx
        (
            promoted_slot,
            base_present,
            base_self_rate,
            base_offsets,
            base_callees,
            base_rates,
        ) = ctx
        entry_offsets, entry_callees, entry_rates = cache.edge_csr()
        counts = backend.adaptive_propagate_blocked(
            entry_matrix,
            program.entry_id,
            promoted_slot,
            cache.self_rate_column(),
            entry_offsets,
            entry_callees,
            entry_rates,
            base_present,
            base_self_rate,
            base_offsets,
            base_callees,
            base_rates,
            program_name=program.name,
        )
        return counts.T

    # ------------------------------------------------------------------
    # batched final-version accounting
    # ------------------------------------------------------------------
    def account(
        self,
        state,
        rep_rows: np.ndarray,
        rep_params: Sequence[InliningParameters],
    ) -> List[object]:
        """Reports for all miss representatives as matrix expressions.

        Mirrors :meth:`EvaluationAccelerator._account_adaptive` with the
        representative dimension vectorized; every reduction that the
        reference performs sequentially (compile cycles, installed
        size) runs as a strictly sequential ``cumsum`` over dense rows,
        where the interleaved zeros of never-invoked methods are exact
        no-ops on the non-negative partial sums.
        """
        with trace(
            "perf.adaptive.account",
            program=state.program.name,
            columns=len(rep_rows),
        ):
            return self._account(state, rep_rows, rep_params)

    def _account(
        self,
        state,
        rep_rows: np.ndarray,
        rep_params: Sequence[InliningParameters],
    ) -> List[object]:
        from repro.jvm.runtime import ExecutionReport
        from repro.perf.batch import batched_cache_pressure

        vm = self.vm
        acc = self.accelerator
        program = state.program
        skeleton = state.skeleton
        cache = state.cache
        n_methods = len(program)
        n_reps = len(rep_rows)
        entry_matrix = np.ascontiguousarray(rep_rows[:, state.key_mids_array])

        acc.stats.adaptive_matrix_propagations += 1
        acc.stats.adaptive_matrix_columns += n_reps
        counts = self.propagate_matrix(state, entry_matrix)

        # final-version columns: the baseline values broadcast across
        # representatives, overwritten at the promoted positions from
        # the cache's column arrays (positions are distinct, so the
        # reference's final_versions iteration order is immaterial)
        cc_col, size_col, cpi_col, inline_col = cache.column_arrays()
        pos = state.promoted_pos
        m = len(state.invoked)
        cpi = np.empty((n_reps, m), dtype=np.float64)
        cpi[:] = state.baseline_cpi
        sizes_col = np.empty((n_reps, m), dtype=np.float64)
        sizes_col[:] = state.baseline_sizes
        inline_mat = np.empty((n_reps, m), dtype=np.int64)
        inline_mat[:] = state.baseline_inline
        cpi[:, pos] = cpi_col[entry_matrix]
        sizes_col[:, pos] = size_col[entry_matrix]
        inline_mat[:, pos] = inline_col[entry_matrix]

        counts_inv = counts[state.invoked]  # (m, n_reps)
        live = (counts_inv > 0.0).T  # (n_reps, m)
        times = np.zeros((n_reps, n_methods), dtype=np.float64)
        times[:, state.invoked] = np.where(live, counts_inv.T * cpi, 0.0)
        sizes_dense = np.zeros((n_reps, n_methods), dtype=np.float64)
        sizes_dense[:, state.invoked] = np.where(live, sizes_col, 0.0)
        inline_sites = np.where(live, inline_mat, 0).sum(axis=1)

        totals, hots, factors = batched_cache_pressure(
            times, sizes_dense, vm.cost_model, vm.machine
        )
        running = totals * factors
        installed = sizes_dense.cumsum(axis=1)[:, -1]

        # compile cycles: the baseline total, then each promotion's
        # compile cost added in promotion order — cumsum keeps the
        # reference's left-to-right accumulation
        base = np.full((n_reps, 1), skeleton.baseline_compile_cycles)
        compile_cycles = np.concatenate(
            [base, cc_col[entry_matrix]], axis=1
        ).cumsum(axis=1)[:, -1]

        warmup = vm.cost_model.adaptive_mix_fraction
        baseline_running = skeleton.profile.total_time
        first_iter = warmup * baseline_running + (1.0 - warmup) * running
        first_iter = first_iter * (1.0 + vm.cost_model.sampling_overhead)

        n_baseline = len(skeleton.baseline_versions)
        n_promoted = len(skeleton.promotions)
        reports: List[object] = []
        for r in range(n_reps):
            reports.append(
                ExecutionReport(
                    benchmark=program.name,
                    scenario=vm.scenario.name,
                    machine=vm.machine,
                    params=rep_params[r],
                    running_cycles=float(running[r]),
                    compile_cycles=float(compile_cycles[r]),
                    first_iteration_exec_cycles=float(first_iter[r]),
                    icache_factor=float(factors[r]),
                    hot_code_size=float(hots[r]),
                    installed_code_size=float(installed[r]),
                    methods_compiled_baseline=n_baseline,
                    methods_compiled_opt=n_promoted,
                    inline_sites=int(inline_sites[r]),
                )
            )
        return reports
