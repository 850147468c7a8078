"""The parallel sweep engine: points out, artifacts back.

Executes the registered paper artifacts as a flat sweep over their
points, with three properties:

* **parallelism** — point evaluation fans out over a
  ``ProcessPoolExecutor``; results are reassembled in definition order,
  and per-point seeds derive deterministically from the master seed, so
  a parallel sweep is bit-identical to a serial one;
* **content-addressed caching** — each point result is stored under a
  key of (artifact, point, config token, code fingerprint); a warm
  re-run replays from disk (:mod:`repro.broker.cache`);
* **telemetry propagation** — when the run is observed, each worker
  process measures under its own hub and ships a picklable payload
  back; the parent absorbs spans and metrics into the run's hub
  (:meth:`~repro.obs.core.Observability.absorb_telemetry`), so one
  Chrome trace shows the whole fan-out.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.broker.cache import CacheStats, SweepCache, code_fingerprint, point_key
from repro.broker.registry import ArtifactSpec, get_artifact, resolve_artifacts
from repro.harness.config import RunConfig
from repro.obs.core import NULL_RANK_OBS, Observability, ObsConfig


@dataclass(frozen=True)
class SweepReport:
    """One engine run: assembled artifacts plus execution accounting."""

    results: dict[str, object]
    stats: CacheStats
    workers: int
    wall_s: float
    artifacts: tuple[str, ...] = ()  # observability export paths
    #: The sweep's merged :class:`~repro.obs.health.RunHealthReport`
    #: (None when the run was unobserved or produced no trace).
    health: object = None

    def result(self, name: str) -> object:
        """One artifact's assembled result."""
        return self.results[name]


def _worker_evaluate(
    artifact_name: str, key: str, config: RunConfig, observed: bool
) -> tuple[object, dict | None]:
    """Evaluate one point in a worker process.

    Runs under a private hub when the parent is observed; the hub's
    telemetry payload rides back with the value.  Module-level so the
    executor can pickle it by reference.
    """
    spec = get_artifact(artifact_name)
    hub = Observability(ObsConfig(out_dir=None)) if observed else None
    view = NULL_RANK_OBS if hub is None else hub.wall_view()
    with view.span("sweep_point", artifact=artifact_name, point=key):
        value = spec.evaluate(key, config, hub)
    return value, None if hub is None else hub.telemetry_payload()


def run_sweep(
    artifacts,
    config: RunConfig | None = None,
    parallel: int = 0,
    use_cache: bool = True,
) -> SweepReport:
    """Regenerate ``artifacts`` (names, or 'all') as one point sweep.

    ``parallel`` <= 1 evaluates in-process; higher values bound the
    worker-process pool.  The sweep is observed by the hub ``config``
    creates (none when ``config.obs`` is off).
    """
    config = config if config is not None else RunConfig()
    specs = resolve_artifacts(artifacts)
    hub = config.hub()
    view = NULL_RANK_OBS if hub is None else hub.wall_view()
    observed = hub is not None and hub.config.enabled

    cache = SweepCache(config.cache_dir) if use_cache else None
    token = config.cache_token()
    fingerprint = code_fingerprint() if use_cache else ""
    t0 = time.perf_counter()

    stream = None
    if observed and hub.config.resolved_dir() is not None:
        stream = hub.attach_stream()

    # One flat point list across all requested artifacts.
    points: list[tuple[ArtifactSpec, str, str]] = []
    for spec in specs:
        for key in spec.points(config):
            points.append(
                (spec, key, point_key(spec.name, key, token, fingerprint))
            )
    values: dict[tuple[str, str], object] = {}
    hits: list[tuple[ArtifactSpec, str]] = []
    pending: list[tuple[ArtifactSpec, str, str]] = []
    for spec, key, ckey in points:
        hit, value = cache.get(ckey) if cache is not None else (False, None)
        if hit:
            values[(spec.name, key)] = value
            hits.append((spec, key))
        else:
            pending.append((spec, key, ckey))
    stats = CacheStats(hits=len(hits), misses=len(pending))

    # ``parallel`` is a tenant's to pick (over HTTP too), and the first
    # submit forks every worker: no more than there are points.
    fork = int(parallel) > 1 and bool(pending)
    workers = min(int(parallel), len(pending)) if fork else 1
    if stream is not None:
        stream.emit(
            "sweep_start",
            artifacts=[s.name for s in specs],
            points=len(points),
            workers=workers,
        )
    for spec, key in hits:
        with view.span("sweep_point", artifact=spec.name, point=key, cached=True):
            view.count("sweep_points_total", artifact=spec.name, cached="true")
        if stream is not None:
            stream.emit("point", artifact=spec.name, point=key, cached=True)

    if fork:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                (spec, key, ckey,
                 pool.submit(_worker_evaluate, spec.name, key, config, observed))
                for spec, key, ckey in pending
            ]
            # Collect in submission order: assembly order (and therefore
            # the artifact values) never depends on completion order.
            for spec, key, ckey, future in futures:
                value, telemetry = future.result()
                if observed and telemetry is not None:
                    # The worker's own sweep_point span rides in with the
                    # payload; no wrapper span here or it would be counted
                    # twice.
                    hub.absorb_telemetry(telemetry)
                    view.count("sweep_points_total", artifact=spec.name, cached="false")
                values[(spec.name, key)] = value
                if stream is not None:
                    stream.emit("point", artifact=spec.name, point=key,
                                cached=False)
                if cache is not None:
                    cache.put(ckey, value)
    else:
        for spec, key, ckey in pending:
            with view.span(
                "sweep_point", artifact=spec.name, point=key, cached=False
            ):
                value = spec.evaluate(key, config, hub)
            view.count("sweep_points_total", artifact=spec.name, cached="false")
            values[(spec.name, key)] = value
            if stream is not None:
                stream.emit("point", artifact=spec.name, point=key,
                            cached=False)
            if cache is not None:
                cache.put(ckey, value)

    results = {
        spec.name: spec.assemble(
            {key: values[(spec.name, key)] for key in spec.points(config)}, config
        )
        for spec in specs
    }
    if hub is not None:
        hub.metrics.counter("sweep_cache_hits_total").inc(float(stats.hits))
        hub.metrics.counter("sweep_cache_misses_total").inc(float(stats.misses))

    health = hub.run_health() if observed else None
    wall_s = time.perf_counter() - t0
    if stream is not None:
        stream.emit(
            "sweep_end",
            points=len(points),
            hits=stats.hits,
            misses=stats.misses,
            wall_s=wall_s,
            wait_fraction=None if health is None else health.wait_fraction,
        )
        stream.flush()

    exported: tuple[str, ...] = ()
    if observed and hub.config.resolved_dir() is not None:
        exported = tuple(str(p) for p in hub.export())

    return SweepReport(
        results=results,
        stats=stats,
        workers=workers,
        wall_s=wall_s,
        artifacts=exported,
        health=health,
    )
