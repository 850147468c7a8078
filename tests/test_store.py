"""The one on-disk store: frame, atomic publish, damaged-entry policy.

The damage suite is written once and run over the three things the
library keeps on disk — a sweep point, a schedule recording, a restart
checkpoint: whatever happens to the bytes, a read ends in an unlinked
miss or a typed error, never in a value.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.broker.cache import RecordingStore, SweepCache
from repro.errors import ReproError, SweepCacheError
from repro.io.checkpoint import (
    CheckpointData,
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.simmpi.recording import ScheduleRecording
from repro.store import (
    KIND_POINT,
    KIND_RECORDING,
    MAGIC,
    frame,
    unframe,
    write_atomic,
)

pytestmark = pytest.mark.resilience  # runs under CI's coverage gate too

KEY = "c0ffee" * 8


class TestFrame:
    def test_roundtrip_and_layout(self):
        blob = frame(KIND_POINT, b"payload")
        assert blob[:8] == MAGIC + KIND_POINT
        assert blob.endswith(b"payload")
        assert unframe(KIND_POINT, blob, ReproError) == b"payload"
        assert unframe(KIND_POINT, frame(KIND_POINT, b""), ReproError) == b""

    def test_wrong_kind_raises_the_callers_error(self):
        blob = frame(KIND_RECORDING, b"payload")
        with pytest.raises(SweepCacheError, match="REC "):
            unframe(KIND_POINT, blob, error=SweepCacheError)

    def test_nothing_is_unpickled_before_the_digest_matches(self, tmp_path, monkeypatch):
        """A flipped payload byte must never reach ``pickle.loads``."""
        cache = SweepCache(tmp_path)
        cache.put(KEY, {"x": 1.5})
        raw = bytearray(cache._path(KEY).read_bytes())
        raw[-3] ^= 0x01
        cache._path(KEY).write_bytes(bytes(raw))

        def forbidden(_payload):
            raise AssertionError("unpickled unverified bytes")

        monkeypatch.setattr("repro.broker.cache.pickle.loads", forbidden)
        assert cache.get(KEY) == (False, None)


# -- one damage suite, three clients -------------------------------------------


class _PointClient:
    """A sweep point in a :class:`SweepCache`: damage is a miss."""

    errors = ()

    def __init__(self, root):
        self.store = SweepCache(root)
        self.value = {"p": 512, "seconds": 98.05, "label": "ec2 mix"}
        self.path = self.store._path(KEY)

    def put(self):
        self.store.put(KEY, self.value)

    def read(self):
        hit, value = self.store.get(KEY)
        return value if hit else None


class _RecordingClient(_PointClient):
    """A schedule recording in a :class:`RecordingStore`."""

    def __init__(self, root):
        self.store = RecordingStore(root)
        self.value = ScheduleRecording(
            num_ranks=2,
            ops=((("c", 1.5, "assembly"), ("s", 1, 7, 64)), (("r", 0, 7, 64),)),
            algorithms=((("allreduce", "rabenseifner", 64, True, True),), ()),
            meta={"workload": "rd"},
        )
        self.path = self.store._path(KEY)

    def read(self):
        return self.store.get(KEY)


class _CheckpointClient:
    """A restart checkpoint: no store in front of it, so damage is a
    :class:`CheckpointError` for the runner to surface, not a miss."""

    errors = (CheckpointError,)

    def __init__(self, root):
        self.value = CheckpointData(
            fields={"u": np.arange(17.0), "v": np.linspace(0.0, 1.0, 9)},
            metadata={"t": 1.25, "step": 4},
        )
        self.path = root / "rd-restart.ckpt"

    def put(self):
        write_checkpoint(self.path, self.value, chunk_elements=5)

    def read(self):
        return read_checkpoint(self.path)


CLIENTS = {
    "point": _PointClient,
    "recording": _RecordingClient,
    "checkpoint": _CheckpointClient,
}


@pytest.fixture(params=sorted(CLIENTS))
def client(request, tmp_path):
    client = CLIENTS[request.param](tmp_path)
    client.put()
    client.sound = client.path.read_bytes()
    assert client.read() == client.value
    return client


def _assert_rejected(client, damaged: bytes, what: str) -> None:
    """Plant ``damaged`` under the entry's name; reading it is a miss
    that unlinks the entry, or the client's typed error."""
    client.path.unlink(missing_ok=True)  # never scribble into a shared inode
    client.path.write_bytes(damaged)
    try:
        got = client.read()
    except client.errors:
        return
    assert got is None, f"{what}: damaged entry read back as {got!r}"
    assert not client.path.exists(), f"{what}: damaged entry left in place"


class TestDamage:
    def test_every_truncation(self, client):
        for end in range(len(client.sound)):
            _assert_rejected(client, client.sound[:end], f"truncated to {end}")

    @pytest.mark.parametrize("mask", [0xFF, 0x01])
    def test_every_single_byte_xor(self, client, mask):
        start = 0
        if isinstance(client, _CheckpointClient) and mask != 0xFF:
            # RPRC's JSON header carries no checksum (a flipped low bit of
            # a digit is still JSON); only its chunks are CRC-protected.
            # Closed when checkpoints move onto the frame (ROADMAP 3).
            hlen = int.from_bytes(client.sound[8:12], "little")
            start = 12 + hlen
        for pos in range(start, len(client.sound)):
            damaged = bytearray(client.sound)
            damaged[pos] ^= mask
            _assert_rejected(client, bytes(damaged), f"byte {pos} ^ {mask:#x}")

    def test_trailing_garbage_and_empty_file(self, client):
        _assert_rejected(client, client.sound + b"\x00", "trailing byte")
        _assert_rejected(client, b"", "zero-length file")

    def test_blob_of_the_wrong_kind_under_the_right_name(self, client, tmp_path):
        for other in sorted(CLIENTS):
            foreign = CLIENTS[other](tmp_path / f"other-{other}")
            if type(foreign) is type(client):
                continue
            foreign.path.parent.mkdir(parents=True, exist_ok=True)
            foreign.put()
            _assert_rejected(client, foreign.path.read_bytes(), f"a {other} blob")

    def test_a_recompute_and_put_heals_the_entry(self, client):
        _assert_rejected(client, client.sound[:-1], "truncated")
        client.put()
        assert client.read() == client.value
        assert client.path.read_bytes() == client.sound


# -- a writer killed mid-put ---------------------------------------------------

PAD_BYTES = 1_000_000


def _put_for_ever(cache_dir: str, writer: int, started) -> None:
    cache = SweepCache(cache_dir)
    for round_no in range(1 << 30):
        # A new value per round, so every put writes a megabyte.
        cache.put(KEY, (writer, round_no, bytes([writer]) * PAD_BYTES))
        started.set()


class TestKilledWriter:
    def test_reader_sees_a_whole_value_or_a_miss_and_clear_leaves_nothing(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        cache = SweepCache(tmp_path)
        for writer in range(3):
            started = ctx.Event()
            proc = ctx.Process(
                target=_put_for_ever, args=(str(tmp_path), writer, started)
            )
            proc.start()
            try:
                assert started.wait(timeout=60.0), "writer never finished a put"
                time.sleep(0.007 * (writer + 1))
            finally:
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=30)
            assert proc.exitcode == -signal.SIGKILL
            hit, value = cache.get(KEY)
            if hit:  # one writer's complete value, never a splice
                who, _round, pad = value
                assert who in range(writer + 1) and pad == bytes([who]) * PAD_BYTES
        # What a kill between a temp write and its rename strands, planted
        # by hand so the assertion below never passes vacuously.
        (tmp_path / f"{KEY}.pkl.1.2.3.tmp").write_bytes(b"half a frame")
        (tmp_path / "objects" / "abc.1.2.4.tmp").write_bytes(b"half a frame")
        cache.clear()
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


class TestWriteAtomic:
    def test_returns_the_path_and_replaces_whole(self, tmp_path):
        target = tmp_path / "out.json"
        assert write_atomic(str(target), b"one") == target
        assert write_atomic(target, b"two") == target
        assert target.read_bytes() == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
