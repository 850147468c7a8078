"""Streaming telemetry: incremental JSONL.

The paper ran week-long sweeps across clouds, grids and on-premises
machines with no way to ask "where is my run?" mid-flight — Netto et
al. name exactly this monitoring gap between HPC batch and cloud
service expectations.  This module is the groundwork for the streaming
status API (ROADMAP item 2):

* :class:`StreamingSink` append-flushes every telemetry row to a JSONL
  file in small batches, so an external ``python -m repro tail <dir>``
  sees progress while the sweep is still running;
* :func:`read_rows` reads such a file back tolerantly — a row half
  written by a live sweep is skipped, not fatal;
* :func:`format_row` renders one row as the single human line the
  ``tail`` CLI prints.

Rows are plain dicts with a monotone ``seq``, a ``kind`` tag and a
wall-clock ``wall`` stamp; everything else is kind-specific payload.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Iterator

#: Default telemetry file name inside an observability out_dir.
STREAM_FILENAME = "stream.jsonl"


class StreamingSink:
    """Telemetry rows, batch-flushed to an append-only file.

    ``flush_interval`` is how many rows may accumulate before an
    automatic file flush (1 = write through).  A sink without a path
    writes nothing.  The sink never *re*writes the file, so concurrent
    readers only ever race the last partial line — which
    :func:`read_rows` tolerates.
    """

    def __init__(self, path: str | os.PathLike | None, flush_interval: int = 32):
        self.path = None if path is None else os.fspath(path)
        self.flush_interval = max(1, int(flush_interval))
        self._pending: list[dict] = []
        self._seq = 0

    def emit(self, kind: str, **fields: Any) -> dict:
        """Append one telemetry row; returns the completed row."""
        row = {"seq": self._seq, "kind": kind, "wall": time.time(), **fields}
        self._seq += 1
        self._pending.append(row)
        if len(self._pending) >= self.flush_interval:
            self.flush()
        return row

    def flush(self) -> None:
        """Write pending rows to the JSONL file (no-op when pathless)."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        if self.path is None:
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            for row in pending:
                fh.write(json.dumps(row, default=_jsonable) + "\n")

    def close(self) -> None:
        """Flush whatever is pending; the sink stays usable after."""
        self.flush()

    def __enter__(self) -> "StreamingSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _jsonable(obj: Any) -> Any:
    """Fallback JSON encoder: numpy scalars and stray objects."""
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


def read_rows(path: str | os.PathLike) -> list[dict]:
    """Read a telemetry JSONL file, skipping any half-written tail line.

    A live sweep may be mid-append; a truncated or malformed final line
    is silently dropped (malformed *interior* lines are dropped too —
    the stream is diagnostics, not a ledger).
    """
    rows: list[dict] = []
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(row, dict):
                    rows.append(row)
    except FileNotFoundError:
        return []
    return rows


def stream_path(out_dir: str | os.PathLike) -> str:
    """The telemetry file path inside an observability out_dir."""
    return os.path.join(os.fspath(out_dir), STREAM_FILENAME)


def format_row(row: dict) -> str:
    """One human-readable line for the ``tail`` CLI."""
    kind = row.get("kind", "?")
    clock = time.strftime("%H:%M:%S", time.localtime(row.get("wall", 0.0)))
    body_fields = {
        k: v for k, v in row.items() if k not in ("seq", "kind", "wall")
    }
    body = " ".join(
        f"{k}={_compact(v)}" for k, v in body_fields.items()
    )
    return f"[{clock}] #{row.get('seq', '?'):>4} {kind:<12} {body}".rstrip()


def _compact(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_compact(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_compact(v) for v in value) + "]"
    return str(value)


#: Seconds ``follow_rows`` waits before reading the stream again.
_POLL_SECONDS = 0.5


def follow_rows(path: str | os.PathLike,
                kinds: tuple[str, ...] | None = None) -> Iterator[dict]:
    """Yield stream rows as they are appended (``tail -f`` semantics).

    Tolerates the file not existing yet — a service may be booting when
    ``tail --follow`` starts — by polling every :data:`_POLL_SECONDS`
    until it appears, and skips half-written or malformed lines exactly
    like :func:`read_rows`.  The generator never ends by itself: the
    consumer stops iterating (``repro tail --follow`` on Ctrl-C) or
    closes it.
    """
    target = os.fspath(path)
    offset = 0
    buffer = ""
    while True:
        try:
            with open(target, "r", encoding="utf-8") as fh:
                fh.seek(offset)
                chunk = fh.read()
                offset = fh.tell()
        except FileNotFoundError:
            time.sleep(_POLL_SECONDS)
            continue
        if not chunk:
            time.sleep(_POLL_SECONDS)
            continue
        buffer += chunk
        # Only complete lines are parsed; a trailing partial line waits
        # in the buffer for the writer's next flush.
        lines = buffer.split("\n")
        buffer = lines.pop()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(row, dict):
                continue
            if kinds and row.get("kind") not in kinds:
                continue
            yield row


__all__ = [
    "STREAM_FILENAME",
    "StreamingSink",
    "read_rows",
    "stream_path",
    "format_row",
    "follow_rows",
]
