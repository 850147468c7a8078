"""Message, status and reduction-operator types for simmpi."""

from __future__ import annotations

import pickle
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

ANY_SOURCE = -1
ANY_TAG = -1

#: Collective operations use a reserved tag space above user tags, which
#: no user receive may name and ``ANY_TAG`` does not match.
COLL_TAG_BASE = 1 << 20


@dataclass
class Message:
    """A message in flight: routing metadata plus the virtual arrival time."""

    context: int
    source: int
    tag: int
    payload: Any
    nbytes: int
    arrival_time: float
    #: With ``source``, the message's identity: the index of its send
    #: event in the sender's :class:`~repro.simmpi.tracing.EventLog`
    #: (-1 when nothing observes the launch).  Outside the payload, so
    #: it never enters ``nbytes``, the timing model or a recording.
    seq: int = -1

    def matches(self, source: int, tag: int) -> bool:
        """Whether this message satisfies a receive for (source, tag)."""
        source_ok = source == ANY_SOURCE or source == self.source
        tag_ok = tag == self.tag or (tag == ANY_TAG and self.tag < COLL_TAG_BASE)
        return source_ok and tag_ok


@dataclass(frozen=True)
class Status:
    """Receive status: where the message came from and how big it was."""

    source: int
    tag: int
    nbytes: int


class ReduceOp:
    """A named, associative reduction operator over scalars/numpy arrays."""

    def __init__(self, name: str, func: Callable[[Any, Any], Any]):
        self.name = name
        self._func = func

    def __call__(self, a, b):
        return self._func(a, b)

    def __repr__(self) -> str:
        return f"ReduceOp({self.name})"


def _sum(a, b):
    return a + b


def _prod(a, b):
    return a * b


def _max(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def _min(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


SUM = ReduceOp("sum", _sum)
PROD = ReduceOp("prod", _prod)
MAX = ReduceOp("max", _max)
MIN = ReduceOp("min", _min)


_SCALAR_BYTES = 8


def payload_nbytes(payload: Any) -> int:
    """Wire size of a payload in bytes.

    numpy arrays use their buffer size (the paper's applications exchange
    raw double arrays); other Python objects fall back to pickle length,
    mirroring mpi4py's lowercase-method behaviour.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (bool, int, float, complex, np.generic)):
        return _SCALAR_BYTES
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(item) for item in payload) + _SCALAR_BYTES
    if isinstance(payload, dict):
        return (
            sum(payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items())
            + _SCALAR_BYTES
        )
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        # Unpicklable objects (local classes, open handles): approximate
        # with the interpreter's shallow size so simulation can proceed.
        return int(sys.getsizeof(payload))
