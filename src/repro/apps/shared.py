"""One discretization per launch, shared read-only by every rank.

Every rank of an SPMD launch constructs its own solver on the same
problem, in one process.  What a solver builds before its first step
depends on the mesh and element order only, so it is built once and
handed to every solver that asks while some solver still holds it; the
registry is weak, so the entry dies with the launch's last solver.
Only construction may go through here: the per-step phases are
*charged* (measured seconds on the virtual clock without a compute
charger), and one rank computing for the others would hand identical
ranks different virtual times (``docs/architecture.md``).  What a rank
assembles per step is its own: a distributed step cuts its owned rows
from the shared operators once (copies, never views into the bundle)
and each step writes only those.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Hashable, TypeVar

import numpy as np

T = TypeVar("T")

_lock = threading.Lock()
_live: "weakref.WeakValueDictionary[Hashable, object]" = weakref.WeakValueDictionary()


def shared_discretization(key: Hashable, build: Callable[[], T]) -> T:
    """The live bundle for ``key``; built, and frozen, if nobody holds one.

    The whole build runs under the lock, so concurrent rank threads wait
    for the one builder and never see a half-built bundle.
    """
    with _lock:
        bundle = _live.get(key)
        if bundle is None:
            bundle = build()
            _freeze(bundle, set())
            _live[key] = bundle
        return bundle


def _freeze(obj, seen: set[int]) -> None:
    """Mark every array reachable from ``obj`` read-only: through
    containers and the attributes of this package's and ``scipy.sparse``'s
    objects (a CSR matrix is its three arrays)."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
        children = (obj.base,)
    elif isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (tuple, list)):
        children = obj
    elif type(obj).__module__.startswith(("repro.", "scipy.sparse")):
        children = vars(obj).values()
    else:
        return
    for child in children:
        _freeze(child, seen)
