"""Tests for the parallel multi-campaign runner."""

from __future__ import annotations

import pickle
import time

import pytest

from repro.errors import CampaignError, ConfigurationError
from repro.experiments.campaign import (
    CampaignResult,
    CellRequest,
    grid_tasks,
    run_campaign,
)
from repro.ga.engine import GAConfig
from repro.perf.store import EvaluationStore
from repro.perf.storetier import StoreTier, is_tier_path

TINY_GA = GAConfig(population_size=6, generations=2, seed=0)


class TestGridTasks:
    def test_default_grid(self):
        tasks = grid_tasks()
        assert len(tasks) == 4  # 2 machines x 2 scenarios x 1 metric
        names = [t.name for t in tasks]
        assert len(set(names)) == len(names)
        assert "Opt:balance@pentium4" in names

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_tasks(machines=[])
        with pytest.raises(ConfigurationError):
            grid_tasks(metrics=[])

    def test_unknown_names_rejected(self):
        with pytest.raises(Exception):
            grid_tasks(machines=["itanium"])


class TestRunCampaign:
    def test_rejects_empty_and_duplicate_tasks(self):
        with pytest.raises(ConfigurationError):
            run_campaign(tasks=[], ga_config=TINY_GA)
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        with pytest.raises(ConfigurationError):
            run_campaign(tasks=tasks + tasks, ga_config=TINY_GA)

    def test_serial_campaign_shares_one_store(self, tmp_path):
        store_path = str(tmp_path / "evals.tier")
        tasks = grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"])
        lines = []
        result = run_campaign(
            tasks,
            ga_config=TINY_GA,
            store_path=store_path,
            serial=True,
            progress=lines.append,
        )
        assert isinstance(result, CampaignResult)
        assert result.processes == 1
        assert [r.task_name for r in result.results] == [t.name for t in tasks]
        assert result.total_evaluations > 0
        # every simulated genome was appended to the tier by its cell
        assert result.total_new_records == result.total_evaluations
        assert [line for line in lines if line.endswith(": done")] == [
            f"{t.name}: done" for t in tasks
        ]
        assert lines[-1].startswith("store tier: compacted")

    def test_second_run_answers_entirely_from_store(self, tmp_path):
        store_path = str(tmp_path / "evals.tier")
        tasks = grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"])
        first = run_campaign(
            tasks, ga_config=TINY_GA, store_path=store_path, serial=True
        )
        second = run_campaign(
            tasks, ga_config=TINY_GA, store_path=store_path, serial=True
        )
        assert second.total_evaluations == 0
        assert second.total_new_records == 0
        for a, b in zip(first.results, second.results):
            assert b.tuned.fitness == a.tuned.fitness
            assert b.tuned.params == a.tuned.params

    def test_without_store_every_run_simulates(self):
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        result = run_campaign(tasks, ga_config=TINY_GA, store_path=None)
        assert result.total_evaluations > 0
        assert result.total_new_records == 0
        assert result.results[0].context is None

    def test_single_file_store_is_refused_with_the_migrate_hint(self, tmp_path):
        legacy = tmp_path / "evals.jsonl"
        with EvaluationStore(str(legacy), context="ctx") as store:
            store.record((1, 2, 3, 4, 5), 0.5)
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        with pytest.raises(ConfigurationError, match="repro store migrate"):
            run_campaign(tasks, ga_config=TINY_GA, store_path=str(legacy))

    def test_missing_store_path_is_created_as_a_tier(self, tmp_path):
        root = tmp_path / "fresh" / "store"
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        result = run_campaign(
            tasks, ga_config=TINY_GA, store_path=str(root), serial=True
        )
        assert is_tier_path(str(root)) and root.is_dir()
        assert sum(StoreTier(str(root)).contexts().values()) == (
            result.total_new_records
        )

    def test_wall_seconds_counts_the_set_up(self, tmp_path, monkeypatch):
        """A slow plan-publisher start (the persisted-plan load) is part
        of the campaign's wall time, not hidden before the clock."""
        from repro.perf import planshare
        from repro.perf.shm import WorkloadArchive
        from repro.resilience import run_supervised_serial

        delay = 1.0

        def slow_publisher(self, *args, **kwargs):
            time.sleep(delay)
            raise RuntimeError("publisher degraded")  # campaign carries on

        def no_archive(*args, **kwargs):
            raise OSError("no shared memory")

        def in_process(payloads, fn, policy, on_result, **_pool_options):
            return run_supervised_serial(
                payloads, fn, policy=policy, on_result=on_result
            )

        monkeypatch.setattr(planshare.PlanSharePublisher, "__init__", slow_publisher)
        monkeypatch.setattr(WorkloadArchive, "publish", no_archive)
        monkeypatch.setattr(
            "repro.experiments.campaign.run_supervised", in_process
        )
        tasks = grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"])
        began = time.perf_counter()
        result = run_campaign(
            tasks, ga_config=TINY_GA, store_path=str(tmp_path / "evals.tier")
        )
        elapsed = time.perf_counter() - began
        assert result.ok
        assert result.wall_seconds >= delay
        assert result.wall_seconds > elapsed - delay / 2

    def test_accelerator_totals_aggregated(self, tmp_path):
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        result = run_campaign(
            tasks,
            ga_config=TINY_GA,
            store_path=str(tmp_path / "evals.tier"),
            serial=True,
        )
        totals = result.accelerator_totals()
        assert totals["runs"] > 0
        assert 0.0 <= totals["report_hit_rate"] <= 1.0
        assert "batch_dedup_rate" in totals

    @pytest.mark.slow
    def test_parallel_matches_serial(self, tmp_path):
        tasks = grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"])
        serial = run_campaign(
            tasks,
            ga_config=TINY_GA,
            store_path=str(tmp_path / "serial.tier"),
            serial=True,
        )
        parallel = run_campaign(
            tasks,
            ga_config=TINY_GA,
            store_path=str(tmp_path / "parallel.tier"),
            processes=2,
        )
        assert parallel.processes == 2
        for a, b in zip(serial.results, parallel.results):
            assert b.task_name == a.task_name
            assert b.tuned.fitness == a.tuned.fitness
            assert b.tuned.params == a.tuned.params
            assert b.new_records == a.new_records


class TestCampaignStrategies:
    def test_non_ga_strategy_runs_end_to_end(self, tmp_path):
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        result = run_campaign(
            tasks,
            ga_config=TINY_GA,
            store_path=str(tmp_path / "evals.tier"),
            serial=True,
            strategy="cmaes",
        )
        assert result.failures == ()
        assert all(r.tuned.strategy == "cmaes" for r in result.results)
        assert result.total_evaluations > 0

    def test_unknown_strategy_rejected(self):
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        with pytest.raises(ConfigurationError, match="annealing"):
            run_campaign(tasks, ga_config=TINY_GA, strategy="annealing")

    def test_resume_under_a_different_strategy_is_rejected(self, tmp_path):
        campaign_dir = str(tmp_path / "campaign")
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        run_campaign(
            tasks, ga_config=TINY_GA, campaign_dir=campaign_dir, serial=True
        )
        with pytest.raises(CampaignError, match="different configuration"):
            run_campaign(
                tasks,
                ga_config=TINY_GA,
                campaign_dir=campaign_dir,
                serial=True,
                resume=True,
                strategy="cmaes",
            )

    def test_ga_resume_fingerprint_is_unchanged_by_the_field(self, tmp_path):
        # a pre-strategy manifest must keep resuming under the default
        campaign_dir = str(tmp_path / "campaign")
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        run_campaign(
            tasks, ga_config=TINY_GA, campaign_dir=campaign_dir, serial=True
        )
        resumed = run_campaign(
            tasks,
            ga_config=TINY_GA,
            campaign_dir=campaign_dir,
            serial=True,
            resume=True,
        )
        assert resumed.failures == ()
        assert resumed.total_evaluations == 0  # every cell answered by skip

    def test_cell_request_payload_strategy_roundtrip(self):
        """The CellRequest is the pool payload: the strategy survives
        the pickle that ships it to a spawned worker."""
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        default = CellRequest(task=tasks[0], ga_config=TINY_GA)
        assert pickle.loads(pickle.dumps(default)).strategy == "ga"
        tagged = CellRequest(task=tasks[0], ga_config=TINY_GA, strategy="bandit")
        shipped = pickle.loads(pickle.dumps(tagged))
        assert shipped.strategy == "bandit"
        assert shipped.task.name == tagged.task.name
