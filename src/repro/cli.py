"""Shared CLI plumbing: one flag vocabulary for every subcommand.

Before this module, ``run``, ``broker``, ``trace``, ``tail`` and
``health`` each declared their own ``--seed``/``--cache-dir``/``--obs-out``
variants, with drift in names and defaults.  The helpers here are the
single source of truth the :mod:`repro.__main__` subparsers compose:

* :func:`add_config_options` / :func:`config_from_args` — the
  :class:`~repro.harness.config.RunConfig` flags (``--seed``,
  ``--cache-dir``), identical wherever a config is built (``run``,
  ``submit``); only ``run`` adds ``--obs-out``, which a service refuses;
* :func:`add_json_flag` / :func:`render` — the ``--json`` output mode
  every read-only subcommand supports: same data, machine shape;
* :func:`add_service_endpoint` — the ``--url`` flag the service-facing
  subcommands (``submit``, ``status``) share;
* :func:`fail` — the one-line ``error:`` path (stderr + exit 1), so a
  missing stream file or an unreachable service never tracebacks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable

#: Default localhost port ``repro serve`` binds (0 picks a free one).
DEFAULT_SERVE_PORT = 8642


def add_config_options(parser: argparse.ArgumentParser) -> None:
    """The RunConfig flag set, identical across config-building commands."""
    parser.add_argument("--seed", type=int, default=7,
                        help="master experiment seed (default 7)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default .repro_cache)")


def config_from_args(args: argparse.Namespace):
    """Build the :class:`~repro.harness.config.RunConfig` the flags name.

    ``--cache-dir`` is made absolute here, where the working directory
    is the user's: a service resolves nothing relative to its own.
    """
    from repro.harness.config import RunConfig
    from repro.obs.core import ObsConfig

    obs_out = getattr(args, "obs_out", None)
    obs = ObsConfig(out_dir=obs_out) if obs_out else None
    cache_dir = os.path.abspath(args.cache_dir) if args.cache_dir else None
    return RunConfig(seed=args.seed, obs=obs, cache_dir=cache_dir)


def add_json_flag(parser: argparse.ArgumentParser) -> None:
    """``--json``: machine-readable output for a read-only subcommand."""
    parser.add_argument("--json", action="store_true",
                        help="emit the result as JSON instead of text")


def render(args: argparse.Namespace, text: Callable[[], str],
           payload: Callable[[], Any]) -> str:
    """Render one read-only result: JSON when ``--json``, text otherwise.

    Both sides are thunks so neither shape is computed unless chosen.
    """
    if getattr(args, "json", False):
        return json.dumps(payload(), indent=2, default=str)
    return text()


def add_service_endpoint(parser: argparse.ArgumentParser) -> None:
    """``--url``: which running service a tenant-side command talks to."""
    parser.add_argument(
        "--url", default=f"http://127.0.0.1:{DEFAULT_SERVE_PORT}",
        help="service endpoint (default http://127.0.0.1:%d)"
             % DEFAULT_SERVE_PORT,
    )


def fail(message: str) -> int:
    """One-line error on stderr, exit code 1 — never a traceback."""
    print(f"error: {message}", file=sys.stderr)
    return 1


__all__ = [
    "DEFAULT_SERVE_PORT",
    "add_config_options",
    "config_from_args",
    "add_json_flag",
    "render",
    "add_service_endpoint",
    "fail",
]
