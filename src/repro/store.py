"""The one on-disk store: a verified frame, an atomic publish, a miss policy.

What the library keeps on disk goes through the three decisions made
here (``docs/architecture.md``, "On-disk formats"): the frame
(:func:`frame` / :func:`unframe` — nothing is decoded before its digest
has matched), the atomic publish (:func:`write_atomic`,
:func:`link_atomic`) and the corruption policy (:func:`read_entry` — a
damaged entry is a miss, so a cache can be slow but never wrong).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import struct
import threading
from pathlib import Path
from typing import Callable

from repro.errors import ReproError

#: First four bytes of every frame ("RePro Store").
MAGIC = b"RPRS"
#: Bump on any incompatible change to the frame layout.
VERSION = 1

#: Kind tags: what the payload of a frame is.
KIND_POINT = b"PNT "  # one sweep point's pickled value
KIND_RECORDING = b"REC "  # one pickled ScheduleRecording document

_HEADER = struct.Struct("<4s4sIQ32s")
_DIGEST = slice(_HEADER.size - 32, _HEADER.size)


def frame(kind: bytes, payload: bytes) -> bytes:
    """``payload`` behind a header that names, sizes and digests it."""
    return _HEADER.pack(
        MAGIC, kind, VERSION, len(payload), hashlib.sha256(payload).digest()
    ) + payload


def unframe(kind: bytes, blob: bytes, error: type[ReproError]) -> bytes:
    """The verified payload of a ``kind`` frame; raises ``error`` otherwise.

    A short read, wrong magic / kind / version, a length mismatch
    (truncation or trailing bytes) and any flipped bit (the digest)
    each raise, so a caller never decodes bytes it did not write.
    """
    if len(blob) < _HEADER.size:
        raise error(f"frame truncated: {len(blob)} bytes, the header is {_HEADER.size}")
    *tag, length, digest = _HEADER.unpack_from(blob)
    if tag != [MAGIC, kind, VERSION]:
        raise error(f"not a {MAGIC!r} {kind!r} v{VERSION} frame: header says {tag}")
    payload = blob[_HEADER.size:]
    if len(payload) != length:
        raise error(
            f"frame payload length mismatch: header says {length}, got {len(payload)}"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise error("frame payload digest mismatch (corrupted)")
    return payload


_tmp_counter = itertools.count()


def _tmp_name(target: Path) -> Path:
    """A sibling of ``target`` unique per (process, thread, call)."""
    return target.with_name(
        f"{target.name}.{os.getpid()}.{threading.get_ident()}."
        f"{next(_tmp_counter)}.tmp"
    )


def write_atomic(target: str | Path, blob: bytes) -> Path:
    """Publish ``blob`` at ``target`` atomically, safe under racing writers;
    returns the target as a :class:`~pathlib.Path`.

    The temp name is unique per (process, thread, call): two processes
    racing a put on the same key each write their own temp file and
    then ``os.replace`` it over the target — last rename wins, readers
    only ever see a complete file (or the previous generation), and
    nobody scribbles into a temp file another writer is about to
    publish.  (A shared ``<key>.tmp`` name had exactly that
    interleaving bug.)
    """
    target = Path(target)
    tmp = _tmp_name(target)
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target


def link_atomic(target: Path, blob: bytes) -> None:
    """Publish the frame ``blob`` at ``target`` as one more name of the
    single stored copy of those bytes, ``objects/<sha256>`` next to it
    (named by the payload digest the frame already carries).

    Keys move with the seed even where values do not (seven of the ten
    artifacts ignore it), so a cache fills with equal entries; linked,
    a put of bytes the cache already holds allocates no inode and
    writes no data.  The copy is (re)written first when it is missing
    or no longer reads back equal — an entry damaged in place damages
    every name of its inode, and must not be linked again.  Where a
    link is not to be had (no hard links, EMLINK, a racing ``clear``)
    the entry is a plain file.
    """
    obj = target.parent / "objects" / blob[_DIGEST].hex()
    alias = _tmp_name(target)
    try:
        if not (obj.exists() and obj.read_bytes() == blob):
            obj.parent.mkdir(exist_ok=True)
            write_atomic(obj, blob)
        os.link(obj, alias)
        os.replace(alias, target)
    except OSError:
        write_atomic(target, blob)
    finally:
        # Renaming one name of an inode onto another is a no-op that
        # leaves both, so the alias may outlive a successful replace.
        alias.unlink(missing_ok=True)


def read_entry(path: Path, decode: Callable[[bytes], object]) -> tuple[bool, object]:
    """``(hit, value)`` for one cache entry; damage is a miss, not a value.

    ``decode`` must raise a :class:`~repro.errors.ReproError` for bytes
    it cannot vouch for; such an entry is unlinked so the caller's
    recompute-and-put replaces it.
    """
    try:
        return True, decode(path.read_bytes())
    except OSError:
        return False, None
    except ReproError:
        path.unlink(missing_ok=True)
        return False, None
