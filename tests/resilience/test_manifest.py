"""Tests for crash-safe campaign manifests."""

import json
import os

import pytest

from repro.errors import CampaignError
from repro.ga.engine import GAConfig
from repro.resilience.manifest import (
    CampaignManifest,
    campaign_fingerprint,
    checkpoint_path_for,
)

GA = GAConfig(population_size=6, generations=2, seed=0)
NAMES = ["Opt:balance@pentium4", "Adapt:balance@pentium4"]


class TestFingerprint:
    def test_stable(self):
        assert campaign_fingerprint(NAMES, GA, 0) == campaign_fingerprint(NAMES, GA, 0)

    def test_sensitive_to_everything_that_matters(self):
        base = campaign_fingerprint(NAMES, GA, 0)
        assert campaign_fingerprint(NAMES[:1], GA, 0) != base
        assert campaign_fingerprint(NAMES, GA.scaled(generations=3), 0) != base
        assert campaign_fingerprint(NAMES, GA.scaled(seed=1), 0) != base
        assert campaign_fingerprint(NAMES, GA, 1) != base


class TestCheckpointPath:
    def test_inside_campaign_dir(self, tmp_path):
        path = checkpoint_path_for(str(tmp_path), "Opt:balance@pentium4")
        assert path.startswith(str(tmp_path))
        assert path.endswith(".json")

    def test_hostile_names_are_sanitized(self, tmp_path):
        path = checkpoint_path_for(str(tmp_path), "../../etc/passwd")
        assert os.path.dirname(path) == os.path.join(str(tmp_path), "checkpoints")


class TestManifestLifecycle:
    def test_create_load_round_trip(self, tmp_path):
        fp = campaign_fingerprint(NAMES, GA, 0)
        manifest = CampaignManifest.create(str(tmp_path), fp, store_path="s.tier")
        assert os.path.exists(manifest.path)
        assert os.path.isdir(os.path.join(str(tmp_path), "checkpoints"))

        loaded = CampaignManifest.load(str(tmp_path))
        assert loaded.fingerprint == fp
        assert loaded.store_path == "s.tier"
        assert loaded.cells == {}

    def test_record_done_persists_immediately(self, tmp_path):
        fp = campaign_fingerprint(NAMES, GA, 0)
        manifest = CampaignManifest.create(str(tmp_path), fp, store_path=None)
        tuned_json = json.dumps({"task": NAMES[0], "fitness": 0.5})
        manifest.record_done(NAMES[0], tuned_json, "ctx", 12, {"runs": 3}, attempts=2)

        fresh = CampaignManifest.load(str(tmp_path))
        assert fresh.is_done(NAMES[0])
        assert not fresh.is_done(NAMES[1])
        cell = fresh.cell(NAMES[0])
        assert cell["tuned"]["fitness"] == 0.5
        assert cell["new_records"] == 12
        assert cell["attempts"] == 2
        assert fresh.done_tasks() == [NAMES[0]]

    def test_atomic_save_leaves_no_temp_file(self, tmp_path):
        fp = campaign_fingerprint(NAMES, GA, 0)
        CampaignManifest.create(str(tmp_path), fp, store_path=None)
        assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))

    def test_unknown_cell_raises(self, tmp_path):
        manifest = CampaignManifest.create(str(tmp_path), "fp", store_path=None)
        with pytest.raises(CampaignError):
            manifest.cell("nope")


class TestManifestSafety:
    def test_open_or_create_refuses_fingerprint_mismatch(self, tmp_path):
        CampaignManifest.create(str(tmp_path), "aaaa", store_path=None)
        with pytest.raises(CampaignError, match="different configuration"):
            CampaignManifest.open_or_create(str(tmp_path), "bbbb", store_path=None)

    def test_corrupt_manifest_raises(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{torn")
        with pytest.raises(CampaignError, match="corrupt"):
            CampaignManifest.load(str(tmp_path))

    def test_wrong_version_raises(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"version": 99}))
        with pytest.raises(CampaignError, match="unsupported"):
            CampaignManifest.load(str(tmp_path))

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignManifest.load(str(tmp_path))
