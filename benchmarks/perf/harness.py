"""Shared plumbing of the perf benchmark: statistics, spans, environment.

Nothing here imports ``repro``; the workloads and layer programs do
that themselves, after :func:`prepare_environment` has made the import
possible and scrubbed the knobs that would change what is measured.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import statistics
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = PERF_DIR / "out"


# -- statistics --------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (the 'inclusive' method), 0 <= q <= 1."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def summarize(values) -> dict:
    """Median, quartiles and sample count of one metric's samples.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them, which
    is how the driver computes a metric's spread over ten runs; that
    method extrapolates beyond the data when there are under four
    samples, so those are interpolated instead.
    """
    if len(values) >= 4:
        q1, mid, q3 = statistics.quantiles(values, n=4)
    else:
        q1, mid, q3 = (quantile(values, q) for q in (0.25, 0.5, 0.75))
    return {"median": mid, "q1": q1, "q3": q3, "n": len(values)}


# -- environment hygiene -----------------------------------------------------


def prepare_environment() -> dict:
    """Make ``repro`` importable here and in children; scrub simmpi knobs.

    Returns the environment for CLI subprocesses.  ``REPRO_SIMMPI_*``
    would switch engine, context backend or stack size under the
    benchmark, so they are removed from this process and its children.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_SIMMPI_")]:
        del os.environ[key]
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def set_affinity(cpus) -> None:
    """Pin every thread of this process (children inherit) to ``cpus``.

    ``os.sched_setaffinity(0, ...)`` moves the calling thread only; the
    events engine parks rank programs on pooled OS threads that outlive
    a launch, so each task id is moved.
    """
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:
            pass  # the thread ended between listdir and the call


def pin_one_cpu(allowed) -> None:
    """Pin to the highest allowed CPU (CPU 0 takes most interrupts)."""
    set_affinity({max(allowed)})


def host_facts(allowed) -> dict:
    load1 = os.getloadavg()[0]
    return {
        "nproc": len(allowed),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "load1": load1,
        "load_warning": load1 > len(allowed),
    }


class ScratchArea:
    """A run-private directory under ``out/``, removed on exit.

    Caches, checkpoints and CLI working directories live here so the
    benchmark never touches the repo's ``.repro_cache`` and never writes
    outside its checkout.
    """

    def __init__(self):
        OUT_DIR.mkdir(exist_ok=True)
        self.path = OUT_DIR / f"tmp-{os.getpid()}"
        self._names = itertools.count()

    def __enter__(self) -> "ScratchArea":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir()
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def fresh_dir(self, label: str) -> Path:
        path = self.path / f"{label}-{next(self._names)}"
        path.mkdir()
        return path


# -- benchmark-side spans ----------------------------------------------------


class Spans:
    """Spans recorded by the benchmark around calls into a layer.

    Kept in memory, written by :meth:`dump` when the run ends.  A
    disabled recorder hands out one shared no-op context manager, so
    the untraced pass pays a method call per boundary and nothing else.
    """

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.rows: list[dict] = []
        self.counts: dict[str, int] = {}
        #: Parent of spans opened on a thread with no open span (client
        #: threads, rank threads): the run's root span.
        self.default_parent: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, parent: int | None = None, **attrs):
        """Context manager yielding the span id (None when disabled)."""
        if not self.enabled:
            return nullcontext()
        return self._record(name, parent, attrs)

    @contextmanager
    def _record(self, name, parent, attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else self.default_parent
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            row = {"id": span_id, "parent": parent, "name": name,
                   "start": start, "end": end, "run": self.run_id}
            if attrs:
                row["attrs"] = attrs
            with self._lock:
                self.rows.append(row)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total time, and self time.

        Self time is the span's duration minus the part of it that its
        child spans cover (children may overlap each other: ranks run
        interleaved, clients run in parallel).
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for row in self.rows:
            if row["parent"] is not None:
                children.setdefault(row["parent"], []).append(
                    (row["start"], row["end"])
                )
        out: dict[str, dict] = {}
        for row in self.rows:
            covered = 0.0
            edge = row["start"]
            for start, end in sorted(children.get(row["id"], ())):
                start, end = max(start, edge), min(end, row["end"])
                if end > start:
                    covered += end - start
                    edge = end
            total = row["end"] - row["start"]
            acc = out.setdefault(row["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            acc["calls"] += 1
            acc["total_s"] += total
            acc["self_s"] += total - covered
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "run": self.run_id,
            "spans": self.rows,
            "counts": self.counts,
            "by_name": self.self_times(),
        }, indent=1))
