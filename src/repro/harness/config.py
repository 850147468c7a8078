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
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from repro.errors import ExperimentError
from repro.obs.core import Observability, ObsConfig

#: Default master seed (the value every generator used before the redesign).
DEFAULT_SEED = 7

#: The resilience artifact's RD mesh (cells per axis).  Each rank runs one
#: z-slab of its Q2 lattice, two planes per cell plus one, so the lattice
#: caps the ranks; a week of hourly billing intervals caps the steps.
RESILIENCE_MESH = (4, 4, 4)
MAX_RESILIENCE_RANKS = 2 * RESILIENCE_MESH[2] + 1
MAX_RESILIENCE_STEPS = 7 * 24


def to_json(obj):
    """A frozen dataclass (nested ones too) as JSON values: tuples as
    lists, paths as strings."""
    if is_dataclass(obj):
        return {key: to_json(value) for key, value in vars(obj).items()}
    if isinstance(obj, tuple):
        return [to_json(item) for item in obj]
    return os.fspath(obj) if isinstance(obj, os.PathLike) else obj


def from_json(cls, doc, what: str):
    """The ``cls`` a :func:`to_json` object names, read against the
    dataclass's own field types: a field left out keeps its default; an
    unknown, mistyped (a bool is no number) or missing one is an
    :class:`~repro.errors.ExperimentError` naming ``what``."""
    if type(doc) is not dict:
        raise ExperimentError(f"{what} must be a JSON object, got {doc!r}")
    hints = _field_types(cls)
    unknown = sorted(doc.keys() - hints)
    if unknown:
        raise ExperimentError(
            f"{what} has no field {unknown[0]!r}; it has {sorted(hints)}")
    missing = sorted(_required_fields(cls) - doc.keys())
    if missing:
        raise ExperimentError(f"{what} needs the field {missing[0]!r}")
    return cls(**{key: _from_json(hints[key], value, f"{what}.{key}")
                  for key, value in doc.items()})


@cache
def _field_types(cls) -> dict:
    """A dataclass's field types, its string annotations evaluated."""
    return get_type_hints(cls)


@cache
def _required_fields(cls) -> frozenset:
    """The fields a dataclass has no default for."""
    return frozenset(f.name for f in fields(cls)
                     if f.default is MISSING and f.default_factory is MISSING)


def _from_json(hint, value, what: str):
    """One JSON value as the type ``hint`` names."""
    if type(value) is hint:
        return value
    if is_dataclass(hint):
        return from_json(hint, value, what)
    options = get_args(hint)
    if get_origin(hint) is tuple:
        # From a list: tuple[T, ...] of any length, tuple[T1, T2] of two;
        # any other value is the constructor's to judge.
        if type(value) is not list:
            return value
        if options[-1] is Ellipsis:
            options = options[:1] * len(value)
        elif len(value) != len(options):
            raise ExperimentError(f"{what} cannot be {value!r}")
        return tuple(_from_json(option, item, what)
                     for option, item in zip(options, value))
    if get_origin(hint) is UnionType:  # the first option that fits
        errors = []
        for option in options:
            try:
                return _from_json(option, value, what)
            except ExperimentError as exc:
                errors.append(exc)
        raise errors[0]
    if hint is float and type(value) is int and abs(value) <= 2 ** 53:
        return float(value)
    raise ExperimentError(f"{what} cannot be {value!r}")


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
        if not (1 <= self.num_ranks <= MAX_RESILIENCE_RANKS
                and 1 <= self.num_steps <= MAX_RESILIENCE_STEPS):
            raise ExperimentError(
                f"resilience run needs 1..{MAX_RESILIENCE_RANKS} ranks and "
                f"1..{MAX_RESILIENCE_STEPS} steps, got {self.num_ranks} "
                f"and {self.num_steps}")
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
        payload = to_json(self)
        del payload["obs"], payload["cache_dir"]
        # The checkpoint directory is scratch space, not an input.
        del payload["resilience"]["checkpoint_dir"]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
