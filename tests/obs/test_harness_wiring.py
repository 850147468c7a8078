"""An observed ``repro.run`` exports once, through the sweep engine."""

import json

import repro
from repro.broker.engine import run_sweep
from repro.harness.config import RunConfig
from repro.obs.core import ObsConfig


class TestExperimentObs:
    def test_default_is_unobserved(self):
        result = repro.run("fig4", use_cache=False)
        assert result.report.artifacts == ()

    def test_obsconfig_exports_and_attaches_artifacts(self, tmp_path):
        result = repro.run(
            "fig4",
            config=RunConfig(obs=ObsConfig(out_dir=tmp_path, prefix="fig4")),
            use_cache=False,
        )
        assert len(result.report.artifacts) == 4
        names = {p.rsplit("/", 1)[-1] for p in result.report.artifacts}
        assert names == {
            "fig4-trace.json", "fig4-spans.jsonl",
            "fig4-metrics.jsonl", "fig4-metrics.prom",
        }
        doc = json.loads((tmp_path / "fig4-trace.json").read_text())
        point_slices = [
            e for e in doc["traceEvents"]
            if e.get("ph") == "X" and e.get("name") == "sweep_point"
        ]
        assert len(point_slices) == 4  # one per platform

    def test_disabled_hub_collects_nothing(self, tmp_path):
        config = RunConfig(obs=ObsConfig(enabled=False, out_dir=tmp_path))
        assert config.hub() is None
        report = run_sweep("fig4", config=config, use_cache=False)
        assert report.artifacts == () and report.health is None
        assert list(tmp_path.iterdir()) == []
