"""The unified run configuration threaded through :func:`repro.run`.

Before the API redesign every experiment generator grew its own
``obs=None`` / ``seed=7`` / ``checkpoint_dir=None`` keywords.  One
frozen :class:`RunConfig` now carries all of it: observability, the
master seed, the resilience-experiment parameters, and the sweep-cache
directory.  The old per-function keywords shipped one release of
:class:`DeprecationWarning` and have since been removed (see
``docs/api.md`` for the migration mapping).

The config is deliberately *frozen and picklable*: the parallel sweep
engine ships it to worker processes verbatim, and the content-addressed
cache derives part of its key from :meth:`RunConfig.cache_token`, so
two configs that would produce different numbers must never collide.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.errors import ExperimentError
from repro.obs.core import Observability, ObsConfig

#: Default master seed (the value every generator used before the redesign).
DEFAULT_SEED = 7


@dataclass(frozen=True)
class ResilienceParams:
    """Parameters of the resilience artifact (the §VII.B nightmare run).

    Defaults: a 2-rank mostly-spot assembly on a market spiking every
    other hour.  The market seed, step length and checkpoint / restart
    costs are the evaluator's constants
    (:func:`~repro.harness.experiments.resilience_report`).
    """

    num_ranks: int = 2
    num_steps: int = 8
    spike_probability: float = 0.5
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.num_ranks < 1 or self.num_steps < 1:
            raise ExperimentError("resilience run needs >= 1 rank and >= 1 step")
        if not 0.0 <= self.spike_probability <= 1.0:
            raise ExperimentError(
                f"spike_probability must be in [0, 1], got {self.spike_probability}"
            )


@dataclass(frozen=True)
class RunConfig:
    """Everything a :func:`repro.run` sweep needs beyond the artifact list.

    * ``seed`` — master seed; per-point seeds are derived from it
      deterministically (so serial and parallel execution agree);
    * ``obs`` — an :class:`~repro.obs.ObsConfig`, or None for zero
      overhead; the engine creates one hub per run and absorbs worker
      telemetry into it;
    * ``resilience`` — parameters of the resilience artifact;
    * ``cache_dir`` — where the content-addressed sweep cache lives
      (None = the engine's default ``.repro_cache``).
    """

    seed: int = DEFAULT_SEED
    obs: ObsConfig | None = None
    resilience: ResilienceParams = field(default_factory=ResilienceParams)
    cache_dir: str | None = None

    def hub(self) -> Observability | None:
        """A fresh observability hub for this config (None when off)."""
        if self.obs is None or not self.obs.enabled:
            return None
        return Observability(self.obs)

    def cache_token(self) -> str:
        """Canonical string of every field that can change result *values*.

        Observability and the cache directory are excluded on purpose:
        spans and metrics never feed back into the numbers, and the
        cache's own location must not invalidate its contents.
        """
        payload = {
            "seed": self.seed,
            "resilience": asdict(self.resilience),
        }
        # The checkpoint directory is scratch space, not an input.
        payload["resilience"].pop("checkpoint_dir", None)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
