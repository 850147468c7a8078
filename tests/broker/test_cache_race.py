"""Processes racing ``put()`` on one content-addressed key stay atomic.

The service coalesces duplicate submissions *within* one process, but
two independent sweeps (or two ``repro serve`` instances) can still
race the same content-addressed entry on disk.  The old scheme wrote
every racer to the same ``<key>.tmp`` before renaming, so interleaved
writes could publish a spliced, corrupt blob.  These tests pin the
fixed invariant for both stores: each writer publishes via its own
unique temp name + ``os.replace``, so a reader only ever sees one
writer's *complete* payload, exactly one entry file survives, and no
temp files leak.
"""

from __future__ import annotations

import multiprocessing
import pickle

from repro.broker.cache import RecordingStore, SweepCache
from repro.simmpi.recording import ScheduleRecording

KEY = "deadbeef" * 8
N_WRITERS = 4
N_ROUNDS = 30
#: Payload padding: big enough that a write is not one buffered syscall,
#: which is what gave the shared-temp-file bug its window.
PAD_BYTES = 256_000


def _sweep_payload(writer: int) -> tuple:
    return ("payload", writer, bytes([writer]) * PAD_BYTES)


def _sweep_writer(cache_dir: str, writer: int, failures) -> None:
    cache = SweepCache(cache_dir)
    valid = [_sweep_payload(w) for w in range(N_WRITERS)]
    for round_no in range(N_ROUNDS):
        cache.put(KEY, _sweep_payload(writer))
        # After this process's own put the entry always exists (nothing
        # ever unlinks it except the corruption path — which must never
        # trigger), so a miss OR an off-list value is a torn write.
        hit, value = cache.get(KEY)
        if not hit:
            failures.put((writer, round_no, "miss after put"))
        elif value not in valid:
            failures.put((writer, round_no, f"foreign value {value!r:.60}"))


def _recording_payload(writer: int) -> ScheduleRecording:
    ops = tuple(("c", 1.0, f"writer-{writer}") for _ in range(2000))
    return ScheduleRecording(num_ranks=1, ops=(ops,), meta={"writer": writer})


def _recording_writer(cache_dir: str, writer: int, failures) -> None:
    store = RecordingStore(cache_dir)
    for round_no in range(N_ROUNDS):
        store.put(KEY, _recording_payload(writer))
        got = store.get(KEY)
        # A None here means the digest check failed and the entry was
        # dropped — i.e. a racer published a spliced blob.
        if got is None:
            failures.put((writer, round_no, "corrupt/missing recording"))
        elif got.meta.get("writer") not in range(N_WRITERS):
            failures.put((writer, round_no, f"foreign meta {got.meta!r}"))


def _race(tmp_path, target):
    ctx = multiprocessing.get_context("spawn")
    failures = ctx.Queue()
    procs = [
        ctx.Process(target=target, args=(str(tmp_path), writer, failures))
        for writer in range(N_WRITERS)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert all(p.exitcode == 0 for p in procs)
    seen = []
    while not failures.empty():
        seen.append(failures.get())
    assert seen == []


class TestSweepCacheRace:
    def test_racing_puts_leave_one_atomic_entry(self, tmp_path):
        _race(tmp_path, _sweep_writer)
        entries = sorted(tmp_path.glob("*.pkl"))
        assert [p.name for p in entries] == [f"{KEY}.pkl"]
        assert not list(tmp_path.glob("*.tmp")), "temp files leaked"
        # The survivor is one complete payload, bit-for-bit.
        value = SweepCache(tmp_path).get(KEY)[1]
        assert value in [_sweep_payload(w) for w in range(N_WRITERS)]

    def test_failed_put_leaves_no_temp_file(self, tmp_path):
        cache = SweepCache(tmp_path)

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("boom")

        try:
            cache.put(KEY, Unpicklable())
        except Exception:
            pass
        assert not list(tmp_path.glob("*.tmp"))


class TestRecordingStoreRace:
    def test_racing_puts_leave_one_valid_recording(self, tmp_path):
        _race(tmp_path, _recording_writer)
        entries = sorted((tmp_path / "recordings").glob("*.rec"))
        assert [p.name for p in entries] == [f"{KEY}.rec"]
        assert not list((tmp_path / "recordings").glob("*.tmp"))
        got = RecordingStore(tmp_path).get(KEY)
        assert got is not None, "surviving entry failed its digest check"
        assert got.meta.get("writer") in range(N_WRITERS)
