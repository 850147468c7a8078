"""Content-addressed result cache for the parallel sweep engine.

Every sweep point's result is stored under a key derived from

* the artifact name and point key (``fig6`` / ``ec2 mix``),
* the value-relevant slice of the :class:`~repro.harness.config.RunConfig`
  (:meth:`~repro.harness.config.RunConfig.cache_token`),
* a **code fingerprint** — a digest over every ``repro`` source file —

so a cache entry can never outlive the code or configuration that
produced it: edit any module, or change a seed, and the key moves.
This is the reproducible-workflows discipline (arXiv:2006.05016)
applied to the paper's sweeps: a warm re-run replays artifacts from
content-addressed storage instead of recomputing them.

Sweep points and schedule recordings are the two clients of one
:class:`KeyedStore` over :mod:`repro.store` (frame, atomic publish,
miss policy: ``docs/architecture.md``, "On-disk formats").
"""

from __future__ import annotations

import functools
import hashlib
import json
import pickle
from pathlib import Path

from repro.errors import SweepCacheError
from repro.simmpi.recording import ScheduleRecording
from repro.store import KIND_POINT, frame, link_atomic, read_entry, unframe

#: Default cache directory (relative to the working directory, like
#: ``.pytest_cache``); override via ``RunConfig.cache_dir``.
DEFAULT_CACHE_DIR = ".repro_cache"

_PICKLE_PROTOCOL = 4

@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of the installed ``repro`` package's source tree.

    Hashes every ``*.py`` file under the package root, path-stamped and
    in sorted order, so any source edit anywhere in the library
    invalidates all cached sweep results.  Computed once per process.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def point_key(
    artifact: str, point: str, config_token: str, fingerprint: str | None = None
) -> str:
    """The content address of one sweep point."""
    fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
    digest = hashlib.sha256()
    for part in (artifact, point, config_token, fingerprint):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def recording_key(
    workload: str,
    num_ranks: int,
    discretization: dict,
    config_token: str,
    fingerprint: str | None = None,
) -> str:
    """The content address of one schedule recording.

    Keyed on **what the numerics compute** — ``(workload, p,
    discretization)`` plus the semantic config token and the code
    fingerprint — and deliberately *not* on the platform: the whole
    point is that one recording serves every platform of a sweep.
    """
    fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
    blob = json.dumps(
        {"workload": workload, "num_ranks": int(num_ranks),
         "discretization": discretization},
        sort_keys=True,
    )
    digest = hashlib.sha256()
    for part in ("recording", blob, config_token, fingerprint):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


class CacheStats:
    """Hit/miss accounting for one sweep."""

    def __init__(self, hits: int = 0, misses: int = 0):
        self.hits = hits
        self.misses = misses

    @property
    def points(self) -> int:
        """Total points looked up."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when empty)."""
        return self.hits / self.points if self.points else 0.0

    def summary(self) -> str:
        """The one-line form the CLI prints and CI parses."""
        return (
            f"points={self.points} hits={self.hits} misses={self.misses} "
            f"hit_rate={100.0 * self.hit_rate:.1f}%"
        )

    def __repr__(self) -> str:
        return f"CacheStats({self.summary()})"


class KeyedStore:
    """Frame-per-key store on disk; misses are signalled, not raised.

    A subclass names its sub-directory, its suffix and its codec:
    ``_encode`` to a :func:`repro.store.frame`, ``_decode`` raising a
    :class:`~repro.errors.ReproError` on bytes it cannot vouch for.
    """

    subdir = ""
    suffix = ""

    def __init__(self, cache_dir: str | Path | None = None):
        base = cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR
        self.dir = Path(base) / self.subdir

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}{self.suffix}"

    def get(self, key: str) -> tuple[bool, object]:
        """``(hit, value)``; a damaged entry counts as a miss and is dropped."""
        return read_entry(self._path(key), self._decode)

    def put(self, key: str, value: object) -> None:
        """Store one value; atomic even under racing writers."""
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            link_atomic(self._path(key), self._encode(value))
        except OSError as exc:
            raise SweepCacheError(
                f"cannot write cache entry under {self.dir}: {exc}"
            ) from exc

    def clear(self) -> int:
        """Delete every entry, stored copy and stranded temp file (a
        writer killed mid-put leaves one); returns the entries removed."""
        entries = list(self.dir.glob(f"*{self.suffix}"))
        for path in (*entries, *self.dir.glob("*.tmp"), *self.dir.glob("objects/*")):
            path.unlink(missing_ok=True)
        return len(entries)


class SweepCache(KeyedStore):
    """Sweep-point values, pickled, at ``<cache_dir>/<key>.pkl``."""

    suffix = ".pkl"

    def _encode(self, value) -> bytes:
        return frame(KIND_POINT, pickle.dumps(value, protocol=_PICKLE_PROTOCOL))

    def _decode(self, blob: bytes):
        payload = unframe(KIND_POINT, blob, error=SweepCacheError)
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise SweepCacheError(f"sweep point failed to unpickle: {exc}") from exc


class RecordingStore(KeyedStore):
    """Schedule recordings at ``<cache_dir>/recordings/<key>.rec``."""

    subdir = "recordings"
    suffix = ".rec"
    _encode = staticmethod(ScheduleRecording.to_bytes)
    _decode = staticmethod(ScheduleRecording.from_bytes)

    def get(self, key: str):
        """The stored :class:`ScheduleRecording`, or None on miss/corruption."""
        return super().get(key)[1]
