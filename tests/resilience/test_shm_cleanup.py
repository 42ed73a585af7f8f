"""Crash-safe shared-memory lifecycle under campaign worker faults.

A pool-2 tier campaign publishes its workload archive and plan archive
as ``repro-*`` segments in ``/dev/shm``.  A SIGKILLed worker (which
dies while attached to them) must leave results bitwise-identical to a
serial run, and once the campaign returns no ``repro-*`` segment may
remain — a leaked segment would accumulate across campaign restarts
until the tmpfs fills.  A workload archive that vanishes while the pool
is down is republished (or the workers degrade to generating the suite
locally); either way the results stay identical.
"""

import glob

import pytest

from repro.experiments.campaign import grid_tasks, run_campaign
from repro.ga.engine import GAConfig
from repro.perf.shm import SEGMENT_PREFIX, shared_memory_supported
from repro.resilience import RetryPolicy
from repro.resilience.faults import FaultPlan, FaultSpec, install_fault_plan

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        not shared_memory_supported(), reason="no shared-memory support"
    ),
]

TINY = GAConfig(population_size=6, generations=2, seed=0)
FAST = RetryPolicy(max_attempts=3, backoff_base=0.0)


def _tasks_1x2():
    return grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"])


def _shm_entries():
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


def _assert_bitwise(baseline, other):
    for clean, dirty in zip(baseline.results, other.results):
        assert dirty.task_name == clean.task_name
        assert dirty.tuned.fitness == clean.tuned.fitness
        assert dirty.tuned.params == clean.tuned.params


class TestShmCleanup:
    def test_killed_worker_leaks_no_segment(self, tmp_path):
        """SIGKILL mid-cell: identical results, no /dev/shm leak.

        The killed worker dies while attached to the campaign's
        archives; the resource tracker must not unlink the owner's
        segments out from under the rebuilt pool, and the coordinator's
        unlink at the end of the campaign must still remove them.
        """
        tasks = _tasks_1x2()
        serial = run_campaign(
            tasks, ga_config=TINY, store_path=str(tmp_path / "serial.tier"),
            serial=True,
        )
        before = _shm_entries()
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
        assert pooled.ok
        # every cell in flight on the broken pool reports the death
        assert pooled.failures
        assert {f.kind for f in pooled.failures} == {"worker-death"}
        _assert_bitwise(serial, pooled)
        assert _shm_entries() <= before

    def test_vanished_archive_republishes_or_degrades(self, tmp_path, monkeypatch):
        """The workload archive is unlinked under the campaign right
        before the killed worker's pool is rebuilt: the rebuild
        republishes it (or the workers regenerate the suite) and the
        results stay identical, with nothing left in /dev/shm."""
        from repro.perf.shm import WorkloadArchive

        published = []
        original_publish = WorkloadArchive.publish.__func__

        def _recording_publish(cls, programs, name=None):
            archive = original_publish(cls, programs, name=name)
            published.append(archive)
            return archive

        monkeypatch.setattr(
            WorkloadArchive, "publish", classmethod(_recording_publish)
        )
        from repro.resilience import supervisor

        original_run = supervisor.run_supervised

        def _sabotaged_run(*args, on_pool_rebuild=None, **kwargs):
            def _rebuild(reason):
                # destroy the published archive before the campaign's
                # rebuild hook probes it
                for archive in list(published):
                    try:
                        archive.segment._shm.unlink()
                    except FileNotFoundError:
                        pass
                on_pool_rebuild(reason)

            return original_run(*args, on_pool_rebuild=_rebuild, **kwargs)

        monkeypatch.setattr(
            "repro.experiments.campaign.run_supervised", _sabotaged_run
        )
        tasks = _tasks_1x2()
        serial = run_campaign(
            tasks, ga_config=TINY, store_path=str(tmp_path / "serial.tier"),
            serial=True,
        )
        before = _shm_entries()
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
        assert pooled.ok
        _assert_bitwise(serial, pooled)
        # the rebuild republished the archive under its original name
        assert len(published) == 2
        assert published[0].name == published[1].name
        assert _shm_entries() <= before
