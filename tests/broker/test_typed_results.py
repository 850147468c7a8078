"""Typed experiment results and the RunConfig deprecation story."""

import dataclasses
import json

import pytest

import repro
from repro.broker.engine import run_sweep
from repro.errors import ExperimentError
from repro.harness.config import ResilienceParams, RunConfig, to_json
from repro.harness.results import (
    PortingEffort,
    PortingEffortReport,
    Table1Matrix,
)
from repro.obs.core import Observability, ObsConfig


@pytest.fixture(scope="module")
def artifacts():
    return repro.run(artifacts=("table1", "porting"), use_cache=False)


class TestTable1Matrix:
    @pytest.fixture(scope="class")
    def matrix(self, artifacts):
        return artifacts.artifact("table1")

    def test_typed(self, matrix):
        assert isinstance(matrix, Table1Matrix)
        assert "ec2" in matrix.platforms()
        assert matrix.cell("# cpu/cores", "ec2")

    def test_as_dict_shim(self, matrix):
        """The nested-dict shape is the JSON form's ``rows``."""
        data = json.loads(json.dumps(to_json(matrix)))["rows"]
        assert data["# cpu/cores"]["ec2"] == matrix.cell("# cpu/cores", "ec2")

    def test_mapping_shims_removed(self, matrix):
        # The transitional dict-style access is gone after one
        # deprecation release; typed access is the only path.
        with pytest.raises(TypeError):
            matrix["# cpu/cores"]
        assert not hasattr(matrix, "items")


class TestPortingEffort:
    @pytest.fixture(scope="class")
    def report(self, artifacts):
        return artifacts.artifact("porting")

    def test_typed(self, report):
        assert isinstance(report, PortingEffortReport)
        effort = report.effort("ec2")
        assert isinstance(effort, PortingEffort)
        assert effort.total_hours > 0
        assert effort.actions

    def test_as_dict_shim(self, report):
        """One platform's record as JSON: the codec writes its fields."""
        data = json.loads(json.dumps(to_json(report.effort("ec2"))))
        assert data["total_hours"] == report.effort("ec2").total_hours

    def test_mapping_shims_removed(self, report):
        with pytest.raises(TypeError):
            report["ec2"]
        assert not hasattr(report, "items")
        with pytest.raises(ExperimentError):
            report.effort("nonexistent")


class TestRunConfig:
    def test_frozen_and_defaulted(self):
        config = RunConfig()
        assert config.seed == 7
        assert config.obs is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 1

    def test_cache_token_tracks_values_not_plumbing(self):
        base = RunConfig()
        assert RunConfig(seed=3).cache_token() != base.cache_token()
        assert RunConfig(
            resilience=ResilienceParams(num_steps=4)
        ).cache_token() != base.cache_token()
        # Observability and cache location never change results.
        assert RunConfig(obs=ObsConfig()).cache_token() == base.cache_token()
        assert RunConfig(cache_dir="/x").cache_token() == base.cache_token()

    def test_resilience_params_validate(self):
        with pytest.raises(ExperimentError):
            ResilienceParams(num_ranks=0)
        with pytest.raises(ExperimentError):
            ResilienceParams(spike_probability=2.0)


class TestDeprecatedKeywordsRemoved:
    """The per-artifact functions and their shims are gone:
    ``config=`` (plus ``run_sweep``'s ``hub=``) is the only path."""

    def test_obs_keyword_is_gone(self):
        with pytest.raises(TypeError, match="obs"):
            repro.run("fig4", obs=Observability(ObsConfig()))

    def test_seed_keyword_is_gone(self):
        with pytest.raises(TypeError, match="seed"):
            repro.run("table2", seed=3)

    def test_hub_keyword_shares_one_hub(self):
        hub = Observability(ObsConfig())
        run_sweep("fig4", config=RunConfig(), use_cache=False, hub=hub)
        assert [root.name for root in hub.all_roots()[0]] == ["sweep_point"] * 4

    def test_hub_must_be_observability(self):
        with pytest.raises(ExperimentError, match="hub"):
            run_sweep("fig4", config=RunConfig(), use_cache=False, hub=ObsConfig())

    def test_config_path_emits_no_warning(self, recwarn):
        repro.run("fig4", config=RunConfig(), use_cache=False)
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]
