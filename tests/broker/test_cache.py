"""Content-addressed sweep caching: hits, invalidation, resilience."""

import pytest

import repro
from repro.broker import engine as engine_mod
from repro.broker.cache import CacheStats, SweepCache, point_key
from repro.harness.config import RunConfig


def _request(tmp_path, **kwargs):
    kwargs.setdefault("artifacts", ("fig4",))
    kwargs.setdefault("config", RunConfig(cache_dir=str(tmp_path / "cache")))
    return repro.RunRequest(**kwargs)


class TestCacheRoundTrip:
    def test_cold_then_warm(self, tmp_path):
        cold = repro.run(_request(tmp_path))
        assert cold.stats.hits == 0 and cold.stats.misses > 0
        warm = repro.run(_request(tmp_path))
        assert warm.stats.misses == 0
        assert warm.stats.hit_rate == 1.0
        assert warm.render("fig4") == cold.render("fig4")

    def test_no_cache_bypasses(self, tmp_path):
        repro.run(_request(tmp_path))
        again = repro.run(_request(tmp_path, use_cache=False))
        assert again.stats.hits == 0

    def test_seed_change_misses(self, tmp_path):
        repro.run(_request(tmp_path, artifacts=("table2",)))
        other = repro.run(repro.RunRequest(
            artifacts=("table2",),
            config=RunConfig(seed=11, cache_dir=str(tmp_path / "cache")),
        ))
        assert other.stats.hits == 0

    def test_code_fingerprint_invalidates(self, tmp_path, monkeypatch):
        repro.run(_request(tmp_path))
        # A source edit moves the fingerprint, which moves every key.
        # The engine resolved the name at import time, so patch there.
        monkeypatch.setattr(engine_mod, "code_fingerprint", lambda: "edited")
        stale = repro.run(_request(tmp_path))
        assert stale.stats.hits == 0

    def test_parallel_run_reuses_serial_entries(self, tmp_path):
        serial = repro.run(_request(tmp_path))
        warm = repro.run(_request(tmp_path, parallel=2))
        assert warm.stats.hits == serial.stats.misses


class TestSweepCache:
    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = point_key("a", "b", "c", "d")
        cache.put(key, {"x": 1})
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        hit, value = cache.get(key)
        assert not hit and value is None
        assert not path.exists()

    def test_clear(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put(point_key("a", "1", "", ""), 1)
        cache.put(point_key("a", "2", "", ""), 2)
        assert cache.clear() == 2
        assert cache.get(point_key("a", "1", "", ""))[0] is False

    def test_equal_values_share_one_inode(self, tmp_path):
        """Keys move with the seed where values do not: the second put
        of equal bytes is a hard link, not a new file."""
        cache = SweepCache(tmp_path)
        keys = [point_key("fig4", "puma", f"seed={s}", "f") for s in (1, 2, 3)]
        for key in keys:
            cache.put(key, ("column", 1.5, 2.5))
        cache.put(point_key("fig4", "ec2", "seed=1", "f"), ("column", 9.0))
        stats = [cache._path(key).stat() for key in keys]
        assert len({s.st_ino for s in stats}) == 1
        assert stats[0].st_nlink == 4  # three keys + objects/<sha256>
        assert len(list((tmp_path / "objects").iterdir())) == 2
        assert all(cache.get(key) == (True, ("column", 1.5, 2.5)) for key in keys)
        assert not list(tmp_path.glob("*.tmp"))

    def test_rerun_of_one_key_leaves_no_alias(self, tmp_path):
        """Renaming a name of an inode onto another name of it is a
        no-op that leaves both; the put must not leak its alias."""
        cache = SweepCache(tmp_path)
        key = point_key("a", "b", "c", "d")
        for _ in range(3):
            cache.put(key, [1, 2, 3])
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{key}.pkl", "objects"]
        assert cache.get(key) == (True, [1, 2, 3])

    def test_entry_damaged_in_place_is_not_linked_again(self, tmp_path):
        """Scribbling into one entry damages every name of its inode:
        each is a miss once, and the next put writes a sound copy."""
        cache = SweepCache(tmp_path)
        first, second, third = (point_key("a", str(n), "", "") for n in range(3))
        cache.put(first, {"x": 1})
        cache.put(second, {"x": 1})
        with open(cache._path(first), "r+b") as fh:  # in place, same inode
            fh.write(b"not a pickle")
        assert cache.get(first) == (False, None)
        assert cache.get(second) == (False, None)
        cache.put(third, {"x": 1})
        cache.put(first, {"x": 1})
        assert cache.get(third) == (True, {"x": 1})
        assert cache.get(first) == (True, {"x": 1})

    def test_without_hard_links_entries_are_plain_files(self, tmp_path, monkeypatch):
        def no_link(src, dst):
            raise PermissionError("hard links are not supported here")

        monkeypatch.setattr("os.link", no_link)
        cache = SweepCache(tmp_path)
        keys = [point_key("a", str(n), "", "") for n in range(2)]
        for key in keys:
            cache.put(key, "same")
        assert [cache._path(key).stat().st_nlink for key in keys] == [1, 1]
        assert all(cache.get(key) == (True, "same") for key in keys)
        assert not list(tmp_path.glob("*.tmp"))

    def test_clear_empties_the_object_store_too(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put(point_key("a", "1", "", ""), "same")
        cache.put(point_key("a", "2", "", ""), "same")
        assert cache.clear() == 2  # entries, not stored copies
        assert not list((tmp_path / "objects").iterdir())

    def test_distinct_inputs_distinct_keys(self):
        keys = {
            point_key("fig4", "puma", "t", "f"),
            point_key("fig4", "ellipse", "t", "f"),
            point_key("fig5", "puma", "t", "f"),
            point_key("fig4", "puma", "t2", "f"),
            point_key("fig4", "puma", "t", "f2"),
        }
        assert len(keys) == 5


class TestCacheStats:
    def test_summary_is_the_ci_contract(self):
        stats = CacheStats(hits=9, misses=1)
        assert stats.summary() == "points=10 hits=9 misses=1 hit_rate=90.0%"
        assert stats.hit_rate == pytest.approx(0.9)

    def test_empty(self):
        assert CacheStats().hit_rate == 0.0


def _flip_one_byte(path, offset=-5):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0x40
    path.unlink()  # a fresh inode: damage this name only, not its aliases
    path.write_bytes(bytes(raw))


class TestDamagedEntriesUnderALiveRun:
    """ROADMAP 2(c), on-disk half: damage costs a recompute, not a number."""

    def test_flipped_table2_entry_is_one_miss_and_the_same_table(self, tmp_path):
        cold = repro.run(_request(tmp_path, artifacts=("table2",)))
        entries = sorted((tmp_path / "cache").glob("*.pkl"))
        assert len(entries) == cold.stats.misses
        victim = entries[len(entries) // 2]
        sound = victim.read_bytes()
        _flip_one_byte(victim)
        again = repro.run(_request(tmp_path, artifacts=("table2",)))
        assert (again.stats.hits, again.stats.misses) == (len(entries) - 1, 1)
        assert again.render("table2") == cold.render("table2")
        assert victim.read_bytes() == sound  # rewritten, and sound
        warm = repro.run(_request(tmp_path, artifacts=("table2",)))
        assert warm.stats.misses == 0

    def test_flipped_recording_is_one_recapture_and_the_same_clocks(
        self, tmp_path, monkeypatch
    ):
        from repro.broker import simsweep

        captures = []
        capture = simsweep.capture_recording

        def counted(*args, **kwargs):
            captures.append(args)
            return capture(*args, **kwargs)

        monkeypatch.setattr(simsweep, "capture_recording", counted)
        cold = repro.run(_request(tmp_path, artifacts=("simsweep",)))
        assert len(captures) == 1
        (recording,) = (tmp_path / "cache" / "recordings").glob("*.rec")
        sound = recording.read_bytes()
        _flip_one_byte(recording, offset=len(sound) // 2)
        # Bypass the point cache so every platform asks for the recording.
        again = repro.run(
            _request(tmp_path, artifacts=("simsweep",), use_cache=False)
        )
        assert len(captures) == 2
        assert recording.read_bytes() == sound
        rows = lambda result: [
            (row["platform"], row["clocks"], row["replayed"])
            for row in result.artifact("simsweep").rows
        ]
        assert rows(again) == rows(cold)
