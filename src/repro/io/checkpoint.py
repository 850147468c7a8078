"""Chunked, checksummed binary checkpoints (the HDF5 stand-in).

File layout (all little-endian)::

    magic   b"RPRC"                      4 bytes
    version uint32                        4 bytes
    hlen    uint32                        4 bytes
    header  JSON (utf-8)                  hlen bytes
    for each field, in header order:
      for each chunk:
        clen  uint32   payload bytes
        crc   uint32   zlib.crc32 of the payload
        data  clen bytes of raw float64

The header records metadata (time, mesh shape, anything JSON-able) and
per-field lengths.  Chunking plus per-chunk CRCs gives what the paper's
runs needed HDF5 for: large arrays written incrementally and read back
with integrity checking.

Format v2 (current) keeps the byte layout of v1 unchanged and adds the
*restart contract* on top: a checkpoint carries the full BDF history,
the step index, and the solver-state counters (iterations, residual
histories, RNG state) needed for bit-exact resume — see
``docs/resilience.md``.  v1 files remain readable.

Published through :func:`repro.store.write_atomic`; why the layout is
not the store's frame yet: ``docs/architecture.md``, "On-disk formats".
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.store import write_atomic

MAGIC = b"RPRC"
VERSION = 2
READABLE_VERSIONS = (1, 2)
DEFAULT_CHUNK_ELEMENTS = 65536


class CheckpointError(ReproError):
    """Malformed, truncated, or corrupted checkpoint file."""


@dataclass
class SolverState:
    """What a solver restarts from, bit-exactly (``state()`` / ``restore()``).

    ``fields`` are global replicated vectors: each BDF history newest
    first, then any further state (NS: the pressure).  ``counters`` are
    the JSON-able per-step diagnostics a resumed run continues.
    """

    fields: list[np.ndarray]
    t: float
    step: int
    counters: dict[str, list]


@dataclass
class CheckpointData:
    """In-memory checkpoint: named float64 fields plus JSON metadata."""

    fields: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for name, values in self.fields.items():
            arr = np.ascontiguousarray(values, dtype=np.float64)
            if arr.ndim != 1:
                raise CheckpointError(
                    f"field {name!r} must be 1-D (flatten before saving), "
                    f"got shape {arr.shape}"
                )
            clean[name] = arr
        self.fields = clean

    def __eq__(self, other) -> bool:
        if not isinstance(other, CheckpointData):
            return NotImplemented
        if self.metadata != other.metadata:
            return False
        if set(self.fields) != set(other.fields):
            return False
        return all(
            np.array_equal(self.fields[k], other.fields[k]) for k in self.fields
        )


def write_checkpoint(
    path: str | Path,
    data: CheckpointData,
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
) -> int:
    """Write a checkpoint atomically (a writer that dies leaves the
    previous generation readable); returns the number of bytes written."""
    if chunk_elements < 1:
        raise CheckpointError(f"chunk_elements must be >= 1, got {chunk_elements}")
    header = {
        "metadata": data.metadata,
        "fields": {name: int(arr.size) for name, arr in data.fields.items()},
        "chunk_elements": int(chunk_elements),
    }
    try:
        header_bytes = json.dumps(header).encode("utf-8")
    except TypeError as exc:
        raise CheckpointError(f"metadata is not JSON-serializable: {exc}") from exc

    parts = [MAGIC, struct.pack("<II", VERSION, len(header_bytes)), header_bytes]
    for name in header["fields"]:
        arr = data.fields[name]
        for start in range(0, max(arr.size, 1), chunk_elements):
            payload = arr[start : start + chunk_elements].tobytes()
            parts.append(
                struct.pack("<II", len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
            )
            parts.append(payload)
    blob = b"".join(parts)
    write_atomic(path, blob)
    return len(blob)


def read_checkpoint(path: str | Path) -> CheckpointData:
    """Read a checkpoint back, verifying structure and chunk CRCs."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a repro checkpoint (bad magic)")
    version, hlen = struct.unpack_from("<II", raw, 4)
    if version not in READABLE_VERSIONS:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    offset = 12
    if offset + hlen > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[offset : offset + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    sizes = header.get("fields", {}) if isinstance(header, dict) else None
    if not isinstance(sizes, dict) or not all(
        type(size) is int and size >= 0 for size in sizes.values()
    ):
        raise CheckpointError(f"{path}: corrupt header: bad field table")
    offset += hlen

    fields: dict[str, np.ndarray] = {}
    for name, size in sizes.items():
        parts: list[np.ndarray] = []
        collected = 0
        while collected < size or (size == 0 and not parts):
            if offset + 8 > len(raw):
                raise CheckpointError(f"{path}: truncated chunk header in {name!r}")
            clen, crc = struct.unpack_from("<II", raw, offset)
            offset += 8
            if offset + clen > len(raw):
                raise CheckpointError(f"{path}: truncated chunk payload in {name!r}")
            payload = raw[offset : offset + clen]
            offset += clen
            if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                raise CheckpointError(
                    f"{path}: CRC mismatch in field {name!r} (corrupted data)"
                )
            chunk = np.frombuffer(payload, dtype=np.float64)
            parts.append(chunk)
            collected += chunk.size
            if size == 0:
                break
        arr = np.concatenate(parts) if parts else np.empty(0)
        if arr.size != size:
            raise CheckpointError(
                f"{path}: field {name!r} has {arr.size} values, header says {size}"
            )
        fields[name] = arr
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    return CheckpointData(fields=fields, metadata=header.get("metadata", {}))


# ---------------------------------------------------------------------------
# v2 restart contract: BDF history + solver state
# ---------------------------------------------------------------------------


def save_state(path: str | Path, solver, extra_metadata: dict | None = None) -> int:
    """Write a v2 restart checkpoint of ``solver`` (``solver.state()``).

    Works for any solver with ``problem`` / ``state()`` / ``restore()``
    (:class:`~repro.apps.reaction_diffusion.RDSolver`,
    :class:`~repro.apps.navier_stokes.NSSolver`): the state fields go in
    as raw float64, the clock, step and counters (iteration counts,
    residual histories) as metadata next to the problem's application
    name and discretization, against which :func:`read_state`
    validates.  ``extra_metadata`` joins the metadata as given.
    """
    problem, state = solver.problem, solver.state()
    metadata = {
        "app": problem.APP,
        "format": 2,
        "t": float(state.t),
        "step": int(state.step),
        "num_states": len(state.fields),
        "discretization": problem.discretization(),
        "solver_state": dict(state.counters),
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    fields = {
        f"state_{i}": np.asarray(values, dtype=np.float64).ravel()
        for i, values in enumerate(state.fields)
    }
    return write_checkpoint(path, CheckpointData(fields=fields, metadata=metadata))


def read_state(path: str | Path, problem) -> tuple[SolverState, dict]:
    """Read a restart checkpoint of ``problem``'s application back.

    Returns the :class:`SolverState` (fields exactly
    as saved) and the full metadata.  Every entry of
    ``problem.discretization()`` must match the checkpoint's — resuming
    onto a different discretization can never be bit-exact — and any
    malformed metadata is a :class:`CheckpointError`.
    """
    data = read_checkpoint(path)
    meta = data.metadata
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: malformed metadata {meta!r}")
    if meta.get("app") != problem.APP:
        raise CheckpointError(
            f"{path}: app mismatch (checkpoint {meta.get('app')!r}, "
            f"wanted {problem.APP!r})"
        )
    for section in ("discretization", "solver_state"):
        if not isinstance(meta.get(section, {}), dict):
            raise CheckpointError(f"{path}: malformed {section} {meta[section]!r}")
    saved_disc = meta.get("discretization", {})
    for key, wanted in problem.discretization().items():
        have = saved_disc.get(key)
        if _normalize(have) != _normalize(wanted):
            raise CheckpointError(
                f"{path}: discretization mismatch on {key!r} "
                f"(checkpoint {have!r}, solver {wanted!r})"
            )
    try:
        t = float(meta["t"])
        step = int(meta.get("step", 0))
        num_states = int(meta.get("num_states", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed restart metadata: {exc!r}") from exc
    try:
        fields = [data.fields[f"state_{i}"] for i in range(num_states)]
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing history field {exc}") from exc
    return SolverState(fields, t, step, meta.get("solver_state", {})), meta


def _normalize(value):
    """JSON round-trips tuples to lists; compare them as equals."""
    if isinstance(value, (tuple, list)):
        return [_normalize(v) for v in value]
    return value


def load_state(path: str | Path, solver) -> float:
    """Restore ``solver`` from a :func:`save_state` checkpoint; returns its time.

    The solver then continues *bit-exactly*, counters included
    (asserted by the golden resume tests).
    """
    state, _ = read_state(path, solver.problem)
    expected = len(solver.state().fields)
    if len(state.fields) != expected:
        raise CheckpointError(
            f"{path}: {len(state.fields)} state fields, the solver restores {expected}"
        )
    solver.restore(state)
    return solver.t


#: The reaction-diffusion names of the one pair (``benchmarks/perf`` imports them).
save_rd_state = save_state
load_rd_state = load_state
