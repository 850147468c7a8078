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
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import pickle
import threading
from pathlib import Path

from repro.errors import RecordingError, SweepCacheError

#: Default cache directory (relative to the working directory, like
#: ``.pytest_cache``); override via ``RunConfig.cache_dir``.
DEFAULT_CACHE_DIR = ".repro_cache"

_PICKLE_PROTOCOL = 4

_tmp_counter = itertools.count()


def _tmp_name(target: Path) -> Path:
    """A sibling of ``target`` unique per (process, thread, call)."""
    return target.with_name(
        f"{target.name}.{os.getpid()}.{threading.get_ident()}."
        f"{next(_tmp_counter)}.tmp"
    )


def _write_atomic(target: Path, blob: bytes) -> None:
    """Publish ``blob`` at ``target`` atomically, safe under racing writers.

    The temp name is unique per (process, thread, call): two processes
    racing ``put()`` on the same content-addressed key each write their
    own temp file and then ``os.replace`` it over the target — last
    rename wins, readers only ever see a complete entry, and nobody
    scribbles into a temp file another writer is about to publish.
    (A shared ``<key>.tmp`` name had exactly that interleaving bug.)
    """
    tmp = _tmp_name(target)
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _link_atomic(target: Path, blob: bytes) -> None:
    """Publish ``blob`` at ``target`` as one more name of the single
    stored copy of those bytes, ``objects/<sha256>`` next to it.

    Keys move with the seed even where values do not (seven of the ten
    artifacts ignore it), so a cache fills with equal entries; linked,
    a put of bytes the cache already holds allocates no inode and
    writes no data.  The copy is (re)written first when it is missing
    or no longer reads back equal — an entry damaged in place damages
    every name of its inode, and must not be linked again.  Where a
    link is not to be had (no hard links, EMLINK, a racing ``clear``)
    the entry is a plain file, as before.
    """
    obj = target.parent / "objects" / hashlib.sha256(blob).hexdigest()
    alias = _tmp_name(target)
    try:
        if not (obj.exists() and obj.read_bytes() == blob):
            obj.parent.mkdir(exist_ok=True)
            _write_atomic(obj, blob)
        os.link(obj, alias)
        os.replace(alias, target)
    except OSError:
        _write_atomic(target, blob)
    finally:
        # Renaming one name of an inode onto another is a no-op that
        # leaves both, so the alias may outlive a successful replace.
        alias.unlink(missing_ok=True)


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
    fingerprint — and deliberately *not* on the platform or the replay
    flag: the whole point is that one recording serves every platform
    of a sweep, and the non-semantic ``RunConfig.replay`` knob is
    already excluded by
    :meth:`~repro.harness.config.RunConfig.cache_token`.
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


class RecordingStore:
    """Content-addressed store for serialized schedule recordings.

    Lives beside the sweep result cache (``<cache_dir>/recordings``)
    and uses the recording's own self-validating binary format
    (:meth:`~repro.simmpi.recording.ScheduleRecording.to_bytes`): a
    corrupt or truncated entry fails its digest check and is treated
    as a miss and unlinked, exactly like :class:`SweepCache`.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        base = Path(cache_dir) if cache_dir is not None else Path(DEFAULT_CACHE_DIR)
        self.dir = base / "recordings"

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.rec"

    def get(self, key: str):
        """The stored :class:`ScheduleRecording`, or None on miss/corruption."""
        from repro.simmpi.recording import ScheduleRecording

        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            return ScheduleRecording.from_bytes(blob)
        except RecordingError:
            path.unlink(missing_ok=True)
            return None

    def put(self, key: str, recording) -> None:
        """Store one recording; atomic even under racing writers."""
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            _write_atomic(self._path(key), recording.to_bytes())
        except OSError as exc:
            raise SweepCacheError(
                f"cannot write recording under {self.dir}: {exc}"
            ) from exc

    def clear(self) -> int:
        """Delete every stored recording; returns the number removed."""
        removed = 0
        if self.dir.is_dir():
            for path in self.dir.glob("*.rec"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed


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


class SweepCache:
    """Pickle-per-key store on disk; misses are signalled, not raised."""

    def __init__(self, cache_dir: str | Path | None = None):
        self.dir = Path(cache_dir) if cache_dir is not None else Path(DEFAULT_CACHE_DIR)

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.pkl"

    def get(self, key: str) -> tuple[bool, object]:
        """``(hit, value)``; a corrupt entry counts as a miss and is dropped."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return False, None
        try:
            return True, pickle.loads(blob)
        except Exception:
            # A truncated write (crash mid-put) must not poison the sweep.
            path.unlink(missing_ok=True)
            return False, None

    def put(self, key: str, value: object) -> None:
        """Store one result; atomic even under racing writers."""
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            _link_atomic(
                self._path(key), pickle.dumps(value, protocol=_PICKLE_PROTOCOL)
            )
        except OSError as exc:
            raise SweepCacheError(
                f"cannot write sweep cache entry under {self.dir}: {exc}"
            ) from exc

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.dir.is_dir():
            for path in self.dir.glob("*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
            for path in self.dir.glob("objects/*"):
                path.unlink(missing_ok=True)
        return removed
