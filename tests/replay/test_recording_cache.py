"""Recording cache keying: semantic inputs move the key, others don't.

Any discretization, rank-count, config-token or code change must *miss*;
the platform is not an input, so every platform of a sweep *hits* the
same recording.
"""

import pytest

from repro.broker.cache import RecordingStore, recording_key
from repro.harness.config import RunConfig
from repro.simmpi.recording import ScheduleRecording

_DISC = {"app": "rd", "mesh_shape": [3, 3, 4], "num_steps": 2}


def _key(disc=_DISC, token="t", num_ranks=8, fingerprint="f"):
    return recording_key("rd", num_ranks, disc, token, fingerprint)


class TestRecordingKey:
    def test_deterministic(self):
        assert _key() == _key()

    def test_discretization_change_misses(self):
        for field, value in [
            ("mesh_shape", [3, 3, 5]), ("num_steps", 3), ("app", "ns"),
        ]:
            changed = dict(_DISC, **{field: value})
            assert _key(disc=changed) != _key()

    def test_rank_count_changes_key(self):
        assert _key(num_ranks=16) != _key()

    def test_config_token_and_fingerprint_change_key(self):
        assert _key(token="other") != _key()
        assert _key(fingerprint="other") != _key()

    def test_platform_is_not_an_input(self):
        """One recording serves every platform: no platform parameter at
        all, so two platforms of the same sweep share one key."""
        import inspect

        assert "platform" not in inspect.signature(recording_key).parameters


class TestConfigTokenInvariance:
    def test_seed_still_moves_the_token(self):
        assert RunConfig(seed=1).cache_token() != RunConfig(seed=2).cache_token()


class TestRecordingStore:
    @pytest.fixture
    def recording(self):
        return ScheduleRecording(
            num_ranks=2, ops=((("c", 1.0, "assembly"),), ()),
        )

    def test_miss_returns_none(self, tmp_path):
        assert RecordingStore(tmp_path).get("nope") is None

    def test_put_get_roundtrip(self, tmp_path, recording):
        store = RecordingStore(tmp_path)
        store.put("k", recording)
        assert store.get("k") == recording

    def test_corrupt_entry_is_a_miss_and_unlinked(self, tmp_path, recording):
        store = RecordingStore(tmp_path)
        store.put("k", recording)
        path = store._path("k")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert store.get("k") is None
        assert not path.exists()

    def test_entries_live_under_recordings_subdir(self, tmp_path, recording):
        store = RecordingStore(tmp_path)
        store.put("k", recording)
        assert (tmp_path / "recordings" / "k.rec").exists()

    def test_clear(self, tmp_path, recording):
        store = RecordingStore(tmp_path)
        store.put("k", recording)
        store.clear()
        assert store.get("k") is None
