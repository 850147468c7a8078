"""``repro.run()`` — the one public entry point for paper artifacts.

Everything an artifact needs (seeds, hubs, resilience knobs, the loop
over its points) is a :class:`RunRequest` here: name the
artifacts, pick a :class:`~repro.harness.config.RunConfig`, choose a
parallelism level, and the sweep engine does the rest — cached,
observed, and bit-identical whether it fans out or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.broker.cache import CacheStats
from repro.broker.engine import SweepReport, run_sweep
from repro.broker.registry import get_artifact, resolve_artifacts
from repro.errors import ExperimentError
from repro.harness.config import RunConfig, from_json, to_json


@dataclass(frozen=True)
class RunRequest:
    """What to regenerate and how hard to try.

    ``artifacts`` accepts a registered name (``fig4`` … ``resilience``)
    or the ``"all"`` alias, or a tuple or list of them.  ``parallel`` <= 1 runs in-process; higher
    values fan points out across that many worker processes, never more
    than there are points to evaluate.
    """

    artifacts: tuple[str, ...] = ("all",)
    config: RunConfig = field(default_factory=RunConfig)
    parallel: int = 0
    use_cache: bool = True

    def __post_init__(self) -> None:
        artifacts = self.artifacts
        if isinstance(artifacts, str):
            artifacts = (artifacts,)
        if not isinstance(artifacts, (tuple, list)) or not all(
                isinstance(name, str) for name in artifacts):
            raise ExperimentError(
                f"RunRequest artifacts must be names (str), got {self.artifacts!r}"
            )
        artifacts = tuple(artifacts)
        if not artifacts:
            raise ExperimentError("RunRequest needs at least one artifact")
        object.__setattr__(self, "artifacts", artifacts)

    def to_json(self) -> dict:
        """The request as the JSON object the service's submit route
        reads (:meth:`from_json`)."""
        return to_json(self)

    @classmethod
    def from_json(cls, doc) -> "RunRequest":
        """The request a :meth:`to_json` object names; a field left out
        keeps its default, an unknown or mistyped one is an
        :class:`~repro.errors.ExperimentError`."""
        return from_json(cls, doc, "request")


@dataclass(frozen=True)
class RunResult:
    """``repro.run``'s answer: artifacts plus execution accounting."""

    request: RunRequest
    report: SweepReport

    @property
    def stats(self) -> CacheStats:
        """Cache hit/miss accounting for the sweep."""
        return self.report.stats

    @property
    def health(self):
        """The run's :class:`~repro.obs.health.RunHealthReport`.

        Merged across every point the sweep evaluated (cached points
        contribute nothing — they ran no simulation).  None when the
        run was unobserved or traced no communication.
        """
        return self.report.health

    def artifact(self, name: str) -> object:
        """One assembled artifact (a typed table/report object)."""
        try:
            return self.report.results[name]
        except KeyError:
            raise ExperimentError(
                f"artifact {name!r} was not part of this run; "
                f"ran: {list(self.report.results)}"
            ) from None

    def render(self, name: str) -> str:
        """One artifact as the CLI's text rendering."""
        return get_artifact(name).render(self.artifact(name))

    def names(self) -> tuple[str, ...]:
        """The artifacts this run produced, in execution order."""
        return tuple(self.report.results)


def run(request: RunRequest | str | None = None, **kwargs) -> RunResult:
    """Regenerate paper artifacts through the sweep engine.

    Accepts a full :class:`RunRequest`, a bare artifact name
    (``repro.run("fig4")``), or keyword arguments forwarded to
    :class:`RunRequest` (``repro.run(artifacts=("fig6",), parallel=4)``).

    To run the same request on a service instead, call
    ``BrokerService.run(request, tenant=...)`` or
    ``ServiceClient(url).run(request, tenant=...)``: the same typed
    :class:`RunResult` comes back.
    """
    if request is None:
        request = RunRequest(**kwargs)
    elif isinstance(request, str):
        request = RunRequest(artifacts=(request,), **kwargs)
    elif kwargs:
        raise ExperimentError(
            "pass either a RunRequest or keyword arguments, not both"
        )
    # Validate names before any worker spins up.
    resolve_artifacts(request.artifacts)
    report = run_sweep(
        request.artifacts,
        config=request.config,
        parallel=request.parallel,
        use_cache=request.use_cache,
    )
    return RunResult(request=request, report=report)
