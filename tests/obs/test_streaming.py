"""Streaming telemetry: batched writes, tolerant readers, live sweeps."""

import json
import time

from repro.obs import streaming
from repro.obs.streaming import (
    FLUSH_INTERVAL,
    STREAM_FILENAME,
    StreamingSink,
    follow_rows,
    format_row,
    read_rows,
    stream_path,
)


class _ScriptedPolls:
    """Stands in for ``time`` in ``repro.obs.streaming``: each poll's
    sleep runs the next scripted write instead of waiting."""

    def __init__(self, *steps):
        self.steps = list(steps)
        self.polls = 0

    def sleep(self, seconds):
        assert seconds == streaming._POLL_SECONDS
        self.polls += 1
        assert self.steps, "follow_rows polled past the end of the script"
        self.steps.pop(0)()

    def __getattr__(self, name):
        return getattr(time, name)


def _append(path, text):
    def write():
        with path.open("a") as fh:
            fh.write(text)

    return write


class TestSink:
    def test_rows_are_sequenced_and_stamped(self, tmp_path):
        with StreamingSink(tmp_path / "s.jsonl") as sink:
            sink.emit("a", x=1.5)
            sink.emit("b", y="z")
        rows = read_rows(tmp_path / "s.jsonl")
        assert [r["seq"] for r in rows] == [0, 1]
        assert rows[0]["kind"] == "a" and rows[0]["x"] == 1.5
        assert all("wall" in r for r in rows)

    def test_flush_interval_batches_writes(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sink = StreamingSink(path)
        for _ in range(FLUSH_INTERVAL - 1):
            sink.emit("tick")
        assert not path.exists()  # still pending
        sink.emit("tick")  # the interval's last row triggers the flush
        assert len(read_rows(path)) == FLUSH_INTERVAL
        sink.close()

    def test_pathless_sink_is_memory_only(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sink = StreamingSink(None)
        assert sink.emit("tick")["seq"] == 0
        sink.flush()
        assert sink.path is None and not any(tmp_path.iterdir())

    def test_numpy_payloads_serialize(self, tmp_path):
        import numpy as np

        with StreamingSink(tmp_path / "s.jsonl") as sink:
            sink.emit("stats", mean=np.float64(1.25), n=np.int64(3))
        row = read_rows(tmp_path / "s.jsonl")[0]
        assert row["mean"] == 1.25 and row["n"] == 3


class TestReaders:
    def test_half_written_tail_is_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with StreamingSink(path) as sink:
            sink.emit("a")
            sink.emit("b")
        with open(path, "a") as fh:
            fh.write('{"seq": 2, "kind": "tru')  # mid-append crash
        rows = read_rows(path)
        assert [r["kind"] for r in rows] == ["a", "b"]

    def test_malformed_interior_lines_are_dropped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"seq": 0, "kind": "ok"}\nnot json\n[1,2]\n'
                        '{"seq": 1, "kind": "ok2"}\n\n')
        rows = read_rows(path)
        assert [r["kind"] for r in rows] == ["ok", "ok2"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_rows(tmp_path / "absent.jsonl") == []

    def test_stream_path_joins_filename(self, tmp_path):
        assert stream_path(tmp_path).endswith(STREAM_FILENAME)

    def test_format_row_is_one_line(self):
        line = format_row({"seq": 3, "kind": "point", "wall": 0.0,
                           "artifact": "fig4", "wall_s": 1.23456789,
                           "meta": {"a": [1, 2]}})
        assert "\n" not in line
        assert "#   3" in line and "point" in line
        assert "artifact=fig4" in line
        assert "wall_s=1.23457" in line  # floats compacted
        assert "meta={a:[1,2]}" in line


class TestFollowRows:
    def test_file_that_appears_after_the_first_poll(self, tmp_path, monkeypatch):
        path = tmp_path / "s.jsonl"
        polls = _ScriptedPolls(_append(path, '{"kind": "a", "i": 1}\n'))
        monkeypatch.setattr(streaming, "time", polls)
        rows = follow_rows(path)
        assert next(rows) == {"kind": "a", "i": 1}
        assert polls.polls == 1
        rows.close()

    def test_partial_line_waits_for_its_newline(self, tmp_path, monkeypatch):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind": "a", "i": 1}\n{"kind": "b", ')
        polls = _ScriptedPolls(_append(path, '"i": 2}\n'))
        monkeypatch.setattr(streaming, "time", polls)
        rows = follow_rows(path)
        assert next(rows) == {"kind": "a", "i": 1}
        assert polls.polls == 0
        assert next(rows) == {"kind": "b", "i": 2}
        assert polls.polls == 1
        rows.close()

    def test_malformed_line_is_skipped(self, tmp_path, monkeypatch):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind": "a"\n[1, 2]\n\n{"kind": "b"}\n')
        monkeypatch.setattr(streaming, "time", _ScriptedPolls())
        rows = follow_rows(path)
        assert next(rows) == {"kind": "b"}
        rows.close()

    def test_kinds_filter(self, tmp_path, monkeypatch):
        path = tmp_path / "s.jsonl"
        path.write_text("".join(
            json.dumps({"kind": kind, "i": i}) + "\n"
            for i, kind in enumerate(["job", "point", "job", "sweep_end"])
        ))
        polls = _ScriptedPolls(_append(path, '{"kind": "job", "i": 4}\n'))
        monkeypatch.setattr(streaming, "time", polls)
        rows = follow_rows(path, kinds=("job",))
        assert [next(rows)["i"] for _ in range(3)] == [0, 2, 4]
        assert polls.polls == 1
        rows.close()


class TestSweepIntegration:
    def test_observed_sweep_streams_rows(self, tmp_path):
        import repro
        from repro.harness.config import RunConfig
        from repro.obs.core import ObsConfig

        out = tmp_path / "obs"
        config = RunConfig(obs=ObsConfig(out_dir=str(out)),
                           cache_dir=str(tmp_path / "cache"))
        repro.run("resilience", config=config)
        rows = read_rows(stream_path(out))
        kinds = [r["kind"] for r in rows]
        assert kinds[0] == "sweep_start"
        assert kinds[-1] == "sweep_end"
        assert "point" in kinds
        end = rows[-1]
        assert end["points"] >= 1 and "wall_s" in end
        assert "wait_fraction" in end

        # A warm re-run appends (the stream is a log, not a snapshot)
        # and marks its points as cached.
        repro.run("resilience", config=config)
        rows = read_rows(stream_path(out))
        assert [r["kind"] for r in rows].count("sweep_end") == 2
        assert any(r.get("cached") for r in rows if r["kind"] == "point")

    def test_unobserved_sweep_writes_no_stream(self, tmp_path):
        import repro
        from repro.harness.config import RunConfig

        config = RunConfig(cache_dir=str(tmp_path / "cache"))
        repro.run("table1", config=config)
        assert not list(tmp_path.glob("**/" + STREAM_FILENAME))


class TestCLI:
    def test_tail_and_health_subcommands(self, tmp_path, capsys):
        import repro
        from repro.__main__ import main as cli_main
        from repro.harness.config import RunConfig
        from repro.obs.core import ObsConfig

        out = tmp_path / "obs"
        config = RunConfig(obs=ObsConfig(out_dir=str(out)),
                           cache_dir=str(tmp_path / "cache"))
        repro.run("resilience", config=config)

        assert cli_main(["tail", str(out)]) == 0
        text = capsys.readouterr().out
        assert "sweep_start" in text and "sweep_end" in text

        assert cli_main(["tail", str(out), "--last", "1",
                         "--kind", "sweep_end"]) == 0
        text = capsys.readouterr().out
        assert "sweep_end" in text and "sweep_start" not in text

        assert cli_main(["health", str(out)]) == 0
        text = capsys.readouterr().out
        assert "run health:" in text

    def test_tail_empty_dir_exits_1_with_one_line_error(self, tmp_path,
                                                        capsys):
        """Missing telemetry is an error for scripts: exit 1, stderr,
        no traceback (see tests/service/test_cli.py for the full
        contract)."""
        from repro.__main__ import main as cli_main

        assert cli_main(["tail", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "no telemetry rows" in captured.err
