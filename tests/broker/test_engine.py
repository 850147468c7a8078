"""Sweep-engine mechanics: fan-out, telemetry propagation, accounting."""

import json
import pickle
from dataclasses import replace

import pytest

from repro.broker.engine import run_sweep
from repro.harness.config import RunConfig
from repro.obs.core import Observability, ObsConfig

#: Observed in memory: a hub, no exported files.
_OBSERVED = RunConfig(obs=ObsConfig())


def _capture_hubs(monkeypatch) -> list[Observability]:
    """Collect each hub a sweep's config creates, to read it back."""
    hubs = []
    make = RunConfig.hub

    def capture(config):
        hubs.append(make(config))
        return hubs[-1]

    monkeypatch.setattr(RunConfig, "hub", capture)
    return hubs


class TestRunSweep:
    def test_multiple_artifacts_one_sweep(self):
        report = run_sweep(("fig4", "fig6"), use_cache=False)
        assert set(report.results) == {"fig4", "fig6"}
        # fig4 sweeps 4 platforms; fig6 adds the ec2-mix column.
        assert report.stats.misses == 9

    def test_workers_accounted(self):
        report = run_sweep("fig4", parallel=2, use_cache=False)
        assert report.workers == 2
        report = run_sweep("fig4", use_cache=False)
        assert report.workers == 1

    def test_cached_points_skip_evaluation(self, tmp_path):
        config = RunConfig(cache_dir=str(tmp_path))
        run_sweep("fig4", config=config)
        warm = run_sweep("fig4", config=config)
        assert warm.stats.hits == 4 and warm.stats.misses == 0


class TestTelemetryPropagation:
    def test_parallel_workers_report_spans_to_parent_hub(self, tmp_path):
        config = RunConfig(obs=ObsConfig(out_dir=tmp_path, prefix="sweep"))
        report = run_sweep("fig4", config=config, parallel=2, use_cache=False)
        assert report.stats.misses == 4
        trace = json.loads((tmp_path / "sweep-trace.json").read_text())
        points = [
            e for e in trace["traceEvents"]
            if e.get("ph") == "X" and e.get("name") == "sweep_point"
        ]
        assert len(points) == 4  # one per platform, absorbed from workers

    def test_serial_observed_sweep_counts_points(self, monkeypatch):
        hubs = _capture_hubs(monkeypatch)
        run_sweep("fig4", config=_OBSERVED, parallel=0, use_cache=False)
        (hub,) = hubs
        assert hub.metrics.counter("sweep_points_total").total(
            {"artifact": "fig4", "cached": "false"}
        ) == 4.0
        assert hub.metrics.counter("sweep_cache_misses_total").total() == 4.0

    def test_cache_hits_counted_in_metrics(self, tmp_path, monkeypatch):
        config = RunConfig(cache_dir=str(tmp_path))
        run_sweep("fig4", config=config)
        hubs = _capture_hubs(monkeypatch)
        run_sweep("fig4", config=replace(config, obs=ObsConfig()))
        (hub,) = hubs
        assert hub.metrics.counter("sweep_cache_hits_total").total() == 4.0

    def test_parallel_observed_matches_serial_result(self, tmp_path):
        serial = run_sweep("fig6", use_cache=False)
        config = RunConfig(obs=ObsConfig(out_dir=tmp_path))
        fanned = run_sweep("fig6", config=config, parallel=2, use_cache=False)
        s, f = serial.results["fig6"], fanned.results["fig6"]
        assert s.columns.keys() == f.columns.keys()
        for key in s.columns:
            assert s.columns[key] == f.columns[key]


class TestHubAbsorption:
    """The cross-process telemetry payload round-trips faithfully."""

    def test_spans_and_metrics_round_trip(self):
        src = Observability(ObsConfig())
        view = src.wall_view()
        with view.span("outer", kind="test"):
            with view.span("inner"):
                view.count("things_total", flavor="a")
        payload = src.telemetry_payload()

        dst = Observability(ObsConfig())
        dst.absorb_telemetry(payload)
        roots = dst.all_roots()[0]
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner"]
        assert roots[0].attrs == {"kind": "test"}
        assert dst.metrics.counter("things_total").total({"flavor": "a"}) == 1.0

    def test_absorb_into_disabled_hub_is_noop(self):
        src = Observability(ObsConfig())
        with src.wall_view().span("x"):
            pass
        dst = Observability(ObsConfig(enabled=False))
        dst.absorb_telemetry(src.telemetry_payload())
        assert dst.all_roots() == {}


class TestObservedValuesCarryNoPaths:
    """Observing a run changes what is exported, never what is returned.

    The exports of an observed run are listed once, on
    ``SweepReport.artifacts``; the artifact values — which are also what
    the cache stores — are the values an unobserved run computes.
    """

    NAMES = ("resilience", "elasticity")

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("leak")
        cache = str(root / "cache")
        observed = run_sweep(self.NAMES, config=RunConfig(
            obs=ObsConfig(out_dir=root / "serial", prefix="run"), cache_dir=cache))
        warm = run_sweep(self.NAMES, config=RunConfig(cache_dir=cache))
        fresh = run_sweep(self.NAMES, use_cache=False)
        pooled = run_sweep(
            self.NAMES,
            config=RunConfig(obs=ObsConfig(out_dir=root / "pooled", prefix="run")),
            parallel=2, use_cache=False,
        )
        return root, observed, warm, fresh, pooled

    def test_warm_unobserved_run_equals_a_fresh_compute(self, runs):
        root, _observed, warm, fresh, _pooled = runs
        assert (warm.stats.hits, warm.stats.misses) == (2, 0)
        assert warm.artifacts == ()
        for name in self.NAMES:
            assert warm.results[name] == fresh.results[name]
            assert str(root).encode() not in pickle.dumps(warm.results[name])

    def test_observed_run_exports_one_file_set(self, runs):
        root, observed, _warm, _fresh, _pooled = runs
        written = {path.name for path in (root / "serial").iterdir()}
        assert written == (
            {path.rsplit("/", 1)[-1] for path in observed.artifacts}
            | {"stream.jsonl"}
        )
        assert all(name.startswith("run-") for name in written - {"stream.jsonl"})

    def test_serial_and_pooled_observed_runs_return_equal_values(self, runs):
        _root, observed, _warm, fresh, pooled = runs
        assert pooled.workers == 2
        assert observed.results == pooled.results == fresh.results


class TestPoolSize:
    def test_pool_is_sized_by_its_points(self, monkeypatch):
        """A tenant picks ``parallel`` over HTTP; the pool starts no more
        workers than the sweep has points to evaluate."""
        from concurrent.futures import Future

        import repro.broker.engine as engine

        sizes = []

        class StubPool:
            """Records its size, starts no process, runs each call inline."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(engine, "ProcessPoolExecutor", StubPool)
        fanned = run_sweep("fig4", parallel=100_000, use_cache=False)
        assert sizes == [4]  # fig4's four platforms
        assert fanned.workers == 4
        serial = run_sweep("fig4", use_cache=False)
        assert serial.workers == 1
        assert fanned.results["fig4"] == serial.results["fig4"]

    def test_a_warm_sweep_reports_no_pool(self, monkeypatch, tmp_path):
        """Every point cached: nothing forks, and the report, the
        ``sweep_start`` row and the run agree on one worker."""
        import repro.broker.engine as engine
        from repro.obs.streaming import read_rows, stream_path

        config = RunConfig(cache_dir=str(tmp_path / "cache"))
        run_sweep("fig4", config=config)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", None)  # must not fork
        observed = RunConfig(cache_dir=config.cache_dir,
                             obs=ObsConfig(out_dir=str(tmp_path / "obs")))
        warm = run_sweep("fig4", config=observed, parallel=8)
        assert warm.workers == 1 and warm.stats.misses == 0
        kinds = [(r["kind"], r.get("workers"))
                 for r in read_rows(stream_path(tmp_path / "obs"))]
        assert kinds[0] == ("sweep_start", 1)
        assert [k for k, _ in kinds[1:5]] == ["point"] * 4
