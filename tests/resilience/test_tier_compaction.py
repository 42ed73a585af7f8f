"""Crash safety of the sharded store tier: torn shards, killed compactions.

Extends the legacy-store repair suite (``test_store_repair.py``) to the
tier's two on-disk structures: append shards share the legacy JSONL
repair rules (torn trailing line skipped, interior garbage skipped and
logged, never deleted), and compaction must survive a SIGKILL at any
point — the pack is published atomically and inputs are only removed
after, so the worst case is records duplicated between a pack and a
shard, which load-time dedup collapses.
"""

import json
import os
import signal
import subprocess
import sys

from repro.perf.storetier import StoreTier, TierStore
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    clear_fault_plan,
    install_fault_plan,
)

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def _record_line(context, genome, fitness):
    return json.dumps({"ctx": context, "genome": genome, "fitness": fitness})


def _plant_shard(tier, name, *lines, torn_tail=None):
    path = os.path.join(tier.shards_dir, name)
    with open(path, "wb") as handle:
        for line in lines:
            handle.write(line.encode() + b"\n")
        if torn_tail is not None:
            handle.write(torn_tail.encode())  # no newline: crash mid-append
    return path


class TestTornShardRepair:
    def test_torn_trailing_line_is_skipped_on_load(self, tmp_path):
        tier = StoreTier(str(tmp_path / "tier"))
        _plant_shard(
            tier,
            "w-1-dead.jsonl",
            _record_line("c", [1, 2], 0.5),
            torn_tail='{"ctx": "c", "genome": [3',
        )
        entries, _extras, repairs = tier.load_context("c")
        assert entries == {(1, 2): 0.5}
        assert any("torn trailing" in event for event in repairs)

    def test_interior_garbage_is_skipped_never_deleted(self, tmp_path):
        tier = StoreTier(str(tmp_path / "tier"))
        path = _plant_shard(
            tier,
            "w-1-dead.jsonl",
            _record_line("c", [1], 1.0),
            "!!not json!!",
            _record_line("c", [2], 2.0),
        )
        size_before = os.path.getsize(path)
        entries, _extras, repairs = tier.load_context("c")
        assert entries == {(1,): 1.0, (2,): 2.0}
        assert any("unparsable" in event for event in repairs)
        assert os.path.getsize(path) == size_before  # load never rewrites

    def test_compaction_drops_the_torn_bytes_structurally(self, tmp_path):
        tier = StoreTier(str(tmp_path / "tier"))
        _plant_shard(
            tier,
            "w-1-dead.jsonl",
            _record_line("c", [1, 2], 0.5),
            torn_tail='{"ctx": "c", "genome": [3',
        )
        summary = tier.compact()
        assert summary["records"] == 1
        assert not tier.shard_files()  # the torn shard was consumed
        entries, _extras, repairs = tier.load_context("c")
        assert entries == {(1, 2): 0.5}
        assert repairs == []  # the pack holds only intact records

    def test_tier_store_reports_repairs_like_the_legacy_store(self, tmp_path):
        root = str(tmp_path / "tier")
        tier = StoreTier(root)
        _plant_shard(
            tier, "w-1-dead.jsonl", _record_line("c", [1], 1.0), torn_tail='{"g'
        )
        store = TierStore(root, context="c")
        assert store.get((1,)) == 1.0
        assert store.repair_log
        store.close()

    def test_torn_write_fault_abandons_the_shard(self, tmp_path):
        """The ``torn-write`` fault site: the torn record stays served
        in-process, later appends go to a fresh shard, and readers and
        compaction see only the intact records."""
        root = str(tmp_path / "tier")
        install_fault_plan(
            FaultPlan(sites={"torn-write": FaultSpec(max_fires=1)}),
            propagate=False,
        )
        with TierStore(root, context="c") as store:
            for genome in ((1,), (2,), (3,)):
                store.record(genome, float(genome[0]))
            assert store.get((1,)) == 1.0  # the torn record, from memory
            assert store.appended == 3
        clear_fault_plan()
        tier = StoreTier(root)
        assert len(tier.shard_files()) == 2
        entries, _extras, repairs = tier.load_context("c")
        assert entries == {(2,): 2.0, (3,): 3.0}
        assert any("torn trailing" in event for event in repairs)
        assert tier.compact()["records"] == 2
        assert tier.load_context("c")[0] == entries


def _kill_compaction_in_child(root, site, markers):
    """Run ``StoreTier(root).compact()`` in a child that SIGKILLs itself
    at *site*; assert the kill really happened."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {REPO_SRC!r})\n"
        "from repro.resilience.faults import (FaultPlan, FaultSpec,\n"
        "                                     install_fault_plan)\n"
        "from repro.perf.storetier import StoreTier\n"
        f"install_fault_plan(FaultPlan(sites={{{site!r}: FaultSpec(max_fires=1)}},\n"
        f"                             marker_dir={markers!r}),\n"
        "                   propagate=False)\n"
        f"StoreTier({root!r}).compact()\n"
        "print('not killed')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"compaction child survived {site}: rc={proc.returncode} "
        f"out={proc.stdout!r} err={proc.stderr!r}"
    )


class TestCompactionCrashSafety:
    EXPECTED = {
        "a": {(1, 1, 1): 1.0, (2, 2, 2): 2.0},
        "b": {(3, 3, 3): 3.0},
    }

    def _seed(self, root):
        for context, records in self.EXPECTED.items():
            with TierStore(root, context=context) as store:
                for genome, fitness in records.items():
                    store.record(genome, fitness)

    def _assert_intact(self, tier):
        for context, records in self.EXPECTED.items():
            entries, _extras, repairs = tier.load_context(context)
            assert entries == records
            assert repairs == []

    def test_sigkill_before_publish_leaves_tier_readable(self, tmp_path):
        root = str(tmp_path / "tier")
        self._seed(root)
        _kill_compaction_in_child(
            root, "compact-kill-pre-publish", str(tmp_path / "markers")
        )
        tier = StoreTier(root)
        # the pack never published: shards intact, temp pack invisible
        assert tier.shard_files()
        assert not tier.pack_files()
        self._assert_intact(tier)

        # repair is just compacting again (which also reaps the orphaned
        # temp pack left by the dead process)
        summary = tier.compact()
        assert summary["records"] == 3
        assert len(tier.pack_files()) == 1
        assert not tier.shard_files()
        assert not any(
            ".sqlite.tmp-" in name for name in os.listdir(tier.packs_dir)
        )
        self._assert_intact(tier)

    def test_sigkill_after_publish_duplicates_then_collapses(self, tmp_path):
        root = str(tmp_path / "tier")
        self._seed(root)
        _kill_compaction_in_child(
            root, "compact-kill-post-publish", str(tmp_path / "markers")
        )
        tier = StoreTier(root)
        # the pack published but the consumed shards were never removed:
        # every record now exists twice, and load-time dedup collapses
        # the copies into identical entries
        assert tier.pack_files()
        assert tier.shard_files()
        self._assert_intact(tier)

        summary = tier.compact()
        assert summary["records"] == 3
        assert len(tier.pack_files()) == 1
        assert not tier.shard_files()
        self._assert_intact(tier)

    def test_killed_writers_shard_cools_and_compacts(self, tmp_path):
        """A writer that dies without close() leaves a stale lock; the
        next compaction reaps it and folds the shard in."""
        root = str(tmp_path / "tier")
        script = (
            "import sys\n"
            f"sys.path.insert(0, {REPO_SRC!r})\n"
            "import os, signal\n"
            "from repro.perf.storetier import TierStore\n"
            f"store = TierStore({root!r}, context='crashed')\n"
            "store.record((5, 5, 5), 5.0)\n"
            "store.flush()\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == -signal.SIGKILL

        tier = StoreTier(root)
        locks = [
            name for name in os.listdir(tier.shards_dir)
            if name.endswith(".lock")
        ]
        assert locks  # the dead writer never removed its lock
        summary = tier.compact()
        assert summary["skipped_hot"] == 0  # stale lock reaped, shard cold
        assert summary["records"] == 1
        entries, _extras, _repairs = tier.load_context("crashed")
        assert entries == {(5, 5, 5): 5.0}
