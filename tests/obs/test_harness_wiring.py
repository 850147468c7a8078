"""An observed ``repro.run`` exports once, through the sweep engine."""

import json

import repro
from repro.broker import run_sweep
from repro.harness.config import RunConfig
from repro.obs import Observability, ObsConfig


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

    def test_shared_hub_accumulates_spans(self):
        # Sharing one live hub across sweeps via run_sweep's hub=.
        hub = Observability(ObsConfig())
        run_sweep("fig4", use_cache=False, hub=hub)
        run_sweep("fig6", use_cache=False, hub=hub)
        artifacts = [root.attrs["artifact"] for root in hub.all_roots()[0]]
        assert artifacts == ["fig4"] * 4 + ["fig6"] * 5
        assert hub.metrics.counter("sweep_points_total").total(
            {"artifact": "fig6", "cached": "false"}
        ) == 5.0  # four platforms + the ec2 mix curve

    def test_disabled_hub_collects_nothing(self):
        hub = Observability(ObsConfig(enabled=False))
        report = run_sweep("fig4", use_cache=False, hub=hub)
        assert report.artifacts == ()
        assert hub.all_roots() == {}
