"""Worker-death recovery in a pool-2 tier campaign.

Parallelism lives at cell granularity: SIGKILL one campaign pool worker
mid-cell and prove the campaign still completes, with results
bitwise-identical to a serial campaign, and that a cell whose worker
dies on every attempt is reported as a structured failure instead of
hanging or raising.
"""

import pytest

from repro.experiments.campaign import grid_tasks, run_campaign
from repro.ga.engine import GAConfig
from repro.resilience import RetryPolicy
from repro.resilience.faults import FaultPlan, FaultSpec, install_fault_plan

pytestmark = pytest.mark.slow

TINY = GAConfig(population_size=6, generations=2, seed=0)
FAST = RetryPolicy(max_attempts=3, backoff_base=0.0)


def _tasks_1x2():
    return grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"])


class TestWorkerDeath:
    def test_killed_worker_mid_campaign_matches_serial(self, tmp_path):
        tasks = _tasks_1x2()
        serial = run_campaign(
            tasks, ga_config=TINY, store_path=str(tmp_path / "serial.tier"),
            serial=True,
        )
        install_fault_plan(
            FaultPlan(
                sites={"worker-kill": FaultSpec(max_fires=1)},
                marker_dir=str(tmp_path / "markers"),
            )
        )
        pooled = run_campaign(
            tasks, ga_config=TINY, store_path=str(tmp_path / "pool.tier"),
            processes=2, retry_policy=FAST,
        )
        assert pooled.ok, [str(f) for f in pooled.failures]
        # every cell in flight on the broken pool reports the death
        assert pooled.failures
        assert {f.kind for f in pooled.failures} == {"worker-death"}
        for clean, dirty in zip(serial.results, pooled.results):
            assert dirty.task_name == clean.task_name
            assert dirty.tuned.fitness == clean.tuned.fitness
            assert dirty.tuned.params == clean.tuned.params

    def test_repeated_deaths_exhaust_the_retry_budget(self, tmp_path):
        install_fault_plan(
            FaultPlan(
                sites={"worker-kill": FaultSpec(max_fires=None)},  # every cell
                marker_dir=None,
            )
        )
        result = run_campaign(
            _tasks_1x2(), ga_config=TINY,
            store_path=str(tmp_path / "evals.tier"), processes=2,
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        assert not result.ok
        assert set(result.failed_tasks) == {t.name for t in _tasks_1x2()}
        assert {f.kind for f in result.failures} == {"worker-death"}
