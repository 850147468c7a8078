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
    offset += hlen

    fields: dict[str, np.ndarray] = {}
    for name, size in header.get("fields", {}).items():
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


def rng_state_to_json(rng: np.random.Generator) -> dict:
    """A numpy Generator's bit-generator state as JSON-able data."""
    return rng.bit_generator.state


def restore_rng(rng: np.random.Generator, state: dict) -> np.random.Generator:
    """Restore a Generator from :func:`rng_state_to_json` output in place."""
    rng.bit_generator.state = state
    return rng


def save_history_state(
    path: str | Path,
    app: str,
    states: list[np.ndarray],
    t: float,
    step: int,
    discretization: dict,
    solver_state: dict | None = None,
    rng_state: dict | None = None,
    extra_metadata: dict | None = None,
) -> int:
    """Write a v2 restart checkpoint: time-stepper history + solver state.

    ``states`` is the BDF history *newest first* (as the scheme stores
    it); ``solver_state`` carries JSON-able per-step diagnostics —
    iteration counts, residual histories, collective counters — so a
    resumed run continues them seamlessly; ``rng_state`` (from
    :func:`rng_state_to_json`) makes stochastic components resume on the
    exact same draw sequence.
    """
    metadata = {
        "app": app,
        "format": 2,
        "t": float(t),
        "step": int(step),
        "num_states": len(states),
        "discretization": dict(discretization),
        "solver_state": dict(solver_state or {}),
    }
    if rng_state is not None:
        metadata["rng_state"] = rng_state
    if extra_metadata:
        metadata.update(extra_metadata)
    fields = {
        f"state_{i}": np.asarray(state, dtype=np.float64).ravel()
        for i, state in enumerate(states)
    }
    return write_checkpoint(path, CheckpointData(fields=fields, metadata=metadata))


def load_history_state(
    path: str | Path, app: str, discretization: dict | None = None
) -> tuple[list[np.ndarray], float, int, dict]:
    """Read a restart checkpoint back; returns (states, t, step, metadata).

    ``states`` come back newest first, exactly as saved.  When
    ``discretization`` is given, every entry must match the checkpoint's
    (mesh shape, element order, BDF order, ...) — resuming onto a
    different discretization can never be bit-exact, so it is an error.
    """
    data = read_checkpoint(path)
    meta = data.metadata
    if meta.get("app") != app:
        raise CheckpointError(
            f"{path}: app mismatch (checkpoint {meta.get('app')!r}, wanted {app!r})"
        )
    saved_disc = meta.get("discretization", {})
    if discretization is not None:
        for key, wanted in discretization.items():
            have = saved_disc.get(key)
            if _normalize(have) != _normalize(wanted):
                raise CheckpointError(
                    f"{path}: discretization mismatch on {key!r} "
                    f"(checkpoint {have!r}, solver {wanted!r})"
                )
    num_states = int(meta.get("num_states", 0))
    try:
        states = [data.fields[f"state_{i}"] for i in range(num_states)]
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing history field {exc}") from exc
    return states, float(meta["t"]), int(meta.get("step", 0)), meta


def _normalize(value):
    """JSON round-trips tuples to lists; compare them as equals."""
    if isinstance(value, (tuple, list)):
        return [_normalize(v) for v in value]
    return value


def rd_discretization(problem) -> dict:
    """The RD checkpoint-compatibility key (rank count deliberately absent).

    Every entry is validated on load: a BDF history restored onto a
    different mesh, element order, scheme order or step size would
    silently continue a different trajectory.
    """
    return {
        "mesh_shape": list(problem.mesh_shape),
        "order": problem.order,
        "bdf_order": problem.bdf_order,
        "dt": problem.dt,
    }


def save_rd_state(path: str | Path, solver, extra_metadata: dict | None = None,
                  rng_state: dict | None = None) -> int:
    """Checkpoint an RD solver: BDF history, clock, and solver counters.

    Restart with :func:`load_rd_state`, which reinitializes the BDF
    history and the per-step diagnostics so the restarted trajectory
    continues *bit-exactly* (asserted by the golden resume tests).
    """
    return save_history_state(
        path,
        app="reaction-diffusion",
        states=solver.bdf._history,  # newest first
        t=solver.t,
        step=getattr(solver, "steps_taken", 0),
        discretization=rd_discretization(solver.problem),
        solver_state={
            "solve_iterations": list(solver.solve_iterations),
            "residual_norms": list(getattr(solver, "residual_norms", [])),
        },
        rng_state=rng_state,
        extra_metadata=extra_metadata,
    )


def load_rd_state(path: str | Path, solver) -> float:
    """Restore an RD solver from a checkpoint; returns the restored time.

    The solver must be configured with the same problem discretization
    (validated against the checkpoint metadata); iteration and residual
    histories continue from the checkpointed values.
    """
    states, t, step, meta = load_history_state(
        path,
        app="reaction-diffusion",
        discretization=rd_discretization(solver.problem),
    )
    if len(states) != solver.problem.bdf_order:
        raise CheckpointError(
            f"{path}: {len(states)} history states for "
            f"BDF{solver.problem.bdf_order}"
        )
    solver.bdf.initialize(list(reversed(states)))  # oldest first
    solver.t = t
    solver.steps_taken = step
    solver_state = meta.get("solver_state", {})
    solver.solve_iterations = list(solver_state.get("solve_iterations", []))
    solver.residual_norms = list(solver_state.get("residual_norms", []))
    return solver.t


def save_ns_state(path: str | Path, solver, extra_metadata: dict | None = None) -> int:
    """Checkpoint an NS solver: 3 velocity BDF histories + pressure + clock."""
    order = solver.problem.bdf_order
    states: list[np.ndarray] = []
    for comp in range(3):
        states.extend(solver.bdf[comp]._history)  # newest first per component
    states.append(solver.pressure)
    return save_history_state(
        path,
        app="navier-stokes",
        states=states,
        t=solver.t,
        step=getattr(solver, "steps_taken", 0),
        discretization={
            "mesh_shape": list(solver.problem.mesh_shape),
            "bdf_order": order,
            "dt": solver.problem.dt,
            "nu": solver.problem.nu,
        },
        solver_state={
            "momentum_iterations": list(solver.momentum_iterations),
            "pressure_iterations": list(solver.pressure_iterations),
        },
        extra_metadata=extra_metadata,
    )


def load_ns_state(path: str | Path, solver) -> float:
    """Restore an NS solver from a checkpoint; returns the restored time."""
    order = solver.problem.bdf_order
    states, t, step, meta = load_history_state(
        path,
        app="navier-stokes",
        discretization={
            "mesh_shape": list(solver.problem.mesh_shape),
            "bdf_order": order,
            "dt": solver.problem.dt,
            "nu": solver.problem.nu,
        },
    )
    if len(states) != 3 * order + 1:
        raise CheckpointError(
            f"{path}: expected {3 * order + 1} states (3 velocity histories "
            f"+ pressure), got {len(states)}"
        )
    for comp in range(3):
        history = states[comp * order : (comp + 1) * order]  # newest first
        solver.bdf[comp].initialize(list(reversed(history)))
    solver.pressure = states[3 * order]
    solver.t = t
    solver.steps_taken = step
    solver_state = meta.get("solver_state", {})
    solver.momentum_iterations = list(solver_state.get("momentum_iterations", []))
    solver.pressure_iterations = list(solver_state.get("pressure_iterations", []))
    return solver.t
