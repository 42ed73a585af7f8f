"""Randomized cross-backend parity sweep for the kernel ladder.

Every rung of the graceful-degradation ladder — reference VM, serial
memoized accelerator, generation-batched numpy kernels, compiled
kernel backend — must produce bitwise-identical
:class:`~repro.jvm.runtime.ExecutionReport` fields for the same
genomes.  The sweep samples genomes uniformly from the full Table 1
parameter space (not just bred offspring near the defaults), on both
machine models, under both scenarios, so corner regions of the
heuristic space exercise the kernels too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import PENTIUM4, POWERPC_G4
from repro.core.parameters import TABLE1_SPACE
from repro.jvm.inlining import InliningParameters
from repro.jvm.runtime import VirtualMachine
from repro.jvm.scenario import ADAPTIVE, OPTIMIZING
from repro.perf import native
from repro.perf.batch import GenerationBatchEvaluator
from repro.workloads.suites import SPECJVM98

from tests.perf.test_equivalence import assert_reports_identical

#: the compiled rung when the host offers it (the cc-built C
#: extension); empty on hosts without a C compiler — those still run
#: the reference / serial / numpy legs of the sweep
COMPILED_BACKENDS = [
    backend for backend in (native.backend_for("cext"),) if backend is not None
]


def random_generation(n=12, seed=11):
    """Uniform samples of the full Table 1 space, deterministic per seed."""
    rng = np.random.default_rng(seed)
    space = TABLE1_SPACE.to_ga_space()
    return [
        InliningParameters(*(int(g) for g in space.random_genome(rng)))
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def programs():
    return SPECJVM98.programs(seed=0)[:2]


@pytest.fixture(scope="module")
def generation():
    return random_generation()


MACHINES = [PENTIUM4, POWERPC_G4]
SCENARIOS = [OPTIMIZING, ADAPTIVE]


class TestLadderParity:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_numpy_batch_matches_reference(
        self, machine, scenario, programs, generation
    ):
        """Reference VM == serial memoized == batched numpy rung."""
        ref_vm = VirtualMachine(machine, scenario, memoize=False)
        serial_vm = VirtualMachine(machine, scenario, memoize=True)
        batch_vm = VirtualMachine(machine, scenario, memoize=True)
        runner = GenerationBatchEvaluator(batch_vm)
        runner.accelerator.force_native_backend(None)  # pin the numpy rung
        rows = runner.run_generation(programs, generation)
        for g, params in enumerate(generation):
            for p, program in enumerate(programs):
                reference = ref_vm.run(program, params)
                assert_reports_identical(reference, serial_vm.run(program, params))
                assert_reports_identical(reference, rows[g][p])

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    @pytest.mark.parametrize(
        "backend", COMPILED_BACKENDS, ids=lambda b: b.name
    )
    def test_compiled_backend_matches_numpy(
        self, machine, scenario, backend, programs, generation
    ):
        """Each compiled rung reproduces the numpy rung bit for bit."""
        numpy_vm = VirtualMachine(machine, scenario, memoize=True)
        native_vm = VirtualMachine(machine, scenario, memoize=True)
        numpy_runner = GenerationBatchEvaluator(numpy_vm)
        native_runner = GenerationBatchEvaluator(native_vm)
        numpy_runner.accelerator.force_native_backend(None)
        native_runner.accelerator.force_native_backend(backend)
        numpy_rows = numpy_runner.run_generation(programs, generation)
        native_rows = native_runner.run_generation(programs, generation)
        for numpy_row, native_row in zip(numpy_rows, native_rows):
            for numpy_report, native_report in zip(numpy_row, native_row):
                assert_reports_identical(numpy_report, native_report)
        stats = native_vm.perf_stats
        assert stats.native_fallbacks == 0

    @pytest.mark.skipif(not COMPILED_BACKENDS, reason="no compiled backend")
    def test_serial_accelerator_uses_compiled_propagation(self, programs):
        """The serial memoized path also rides the compiled kernel."""
        vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=True)
        vm._accelerator.force_native_backend(COMPILED_BACKENDS[0])
        reference = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=False)
        for params in random_generation(n=4, seed=7):
            for program in programs:
                assert_reports_identical(
                    reference.run(program, params), vm.run(program, params)
                )
        assert vm.perf_stats.native_propagations > 0
        assert vm.perf_stats.native_fallbacks == 0


def _random_opt_state(rng, n_methods, n_entries, n_reps):
    """A synthetic resolved-batch + cache-entry CSR for kernel parity."""
    self_rate = rng.uniform(0.0, 0.9, size=n_entries)
    self_rate[rng.random(n_entries) < 0.5] = 0.0
    degrees = rng.integers(0, 4, size=n_entries)
    offsets = np.zeros(n_entries + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(degrees)
    n_edges = int(offsets[-1])
    callees = rng.integers(0, n_methods, size=n_edges).astype(np.int64)
    rates = rng.uniform(0.05, 1.5, size=n_edges)
    resolved = rng.integers(0, n_entries, size=(n_reps, n_methods)).astype(
        np.int64
    )
    return resolved, self_rate, offsets, callees, rates


class TestBlockedKernels:
    """The cache-blocked batched entry points replay the rep-major
    kernels byte for byte — blocking reorders *which representative's*
    work happens when, never any single representative's operation
    sequence.  Randomized structures deliberately span several blocks
    (``n_reps`` above ``block_width``) so the block boundaries, the
    partial tail block, and the transposed writeback are all hit."""

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_opt_blocked_matches_rep_major(self, backend, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        # shrink the block target so a ~300-rep batch spans many blocks
        monkeypatch.setattr(backend, "BLOCK_TARGET_BYTES", 2048)
        n_methods = int(rng.integers(5, 40))
        n_entries = int(rng.integers(2, 3 * n_methods))
        n_reps = int(rng.integers(1, 300))
        resolved, self_rate, offsets, callees, rates = _random_opt_state(
            rng, n_methods, n_entries, n_reps
        )
        rep_major = backend.opt_propagate_batch(
            resolved, 0, self_rate, offsets, callees, rates
        ).copy()
        blocked = backend.opt_propagate_blocked(
            resolved, 0, self_rate, offsets, callees, rates
        )
        assert rep_major.tobytes() == np.ascontiguousarray(blocked).tobytes()

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_adaptive_blocked_matches_rep_major(self, backend, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(backend, "BLOCK_TARGET_BYTES", 2048)
        n_methods = int(rng.integers(5, 40))
        n_entries = int(rng.integers(2, 3 * n_methods))
        n_reps = int(rng.integers(1, 300))
        _, entry_self_rate, entry_offsets, entry_callees, entry_rates = (
            _random_opt_state(rng, n_methods, n_entries, n_reps)
        )
        _, base_self_rate, base_offsets, base_callees, base_rates = (
            _random_opt_state(rng, n_methods, n_methods, 1)
        )
        promoted = rng.random(n_methods) < 0.4
        n_promoted = max(1, int(promoted.sum()))
        promoted_slot = np.full(n_methods, -1, dtype=np.int64)
        promoted_slot[np.flatnonzero(promoted)[:n_promoted]] = np.arange(
            int(promoted.sum()), dtype=np.int64
        )[:n_promoted]
        entry_matrix = rng.integers(
            0, n_entries, size=(n_reps, n_promoted)
        ).astype(np.int64)
        base_present = np.ones(n_methods, dtype=np.uint8)
        rep_major = backend.adaptive_propagate_matrix(
            entry_matrix, 0, promoted_slot,
            entry_self_rate, entry_offsets, entry_callees, entry_rates,
            base_present, base_self_rate, base_offsets,
            base_callees, base_rates,
        ).copy()
        blocked = backend.adaptive_propagate_blocked(
            entry_matrix, 0, promoted_slot,
            entry_self_rate, entry_offsets, entry_callees, entry_rates,
            base_present, base_self_rate, base_offsets,
            base_callees, base_rates,
        )
        assert rep_major.tobytes() == np.ascontiguousarray(blocked).tobytes()

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    def test_blocked_missing_version_raises(self, backend):
        """The error protocol survives blocking: an unresolved method
        raises the same SimulationError the rep-major kernel raises."""
        from repro.errors import SimulationError

        rng = np.random.default_rng(9)
        resolved, self_rate, offsets, callees, rates = _random_opt_state(
            rng, 8, 5, 4
        )
        resolved[2, 0] = -1  # entry method unresolved for one rep
        with pytest.raises(SimulationError):
            backend.opt_propagate_blocked(
                resolved, 0, self_rate, offsets, callees, rates
            )


class TestLadderSelection:
    def test_backend_env_pin_numpy(self, monkeypatch):
        """``REPRO_KERNEL_BACKEND=numpy`` pins the pure-numpy rung."""
        monkeypatch.setenv(native.ENV_BACKEND, "numpy")
        native.reset_backend_cache()
        try:
            assert native.get_backend() is None
        finally:
            monkeypatch.delenv(native.ENV_BACKEND)
            native.reset_backend_cache()

    def test_unknown_backend_name_falls_back_to_auto(self, monkeypatch):
        """A typo in the env var never breaks a run: auto resolution."""
        native.reset_backend_cache()
        monkeypatch.delenv(native.ENV_BACKEND, raising=False)
        auto = native.get_backend()
        monkeypatch.setenv(native.ENV_BACKEND, "no-such-backend")
        native.reset_backend_cache()
        try:
            resolved = native.get_backend()
            # cache reset re-resolves, so compare rungs by name
            assert (resolved and resolved.name) == (auto and auto.name)
        finally:
            monkeypatch.delenv(native.ENV_BACKEND)
            native.reset_backend_cache()
