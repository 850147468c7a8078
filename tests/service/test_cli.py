"""The service-facing CLI: serve / submit / status, plus the
tail/health exit-code contract (missing telemetry is a one-line error
and exit 1, never a traceback)."""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro import RunRequest
from repro.__main__ import main
from repro.service import BrokerService, ServiceClient, ServiceConfig

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


class TestTailHealthExitCodes:
    def test_tail_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path / "nope")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no telemetry rows" in err

    def test_tail_empty_stream_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "stream.jsonl").write_text("")
        assert main(["tail", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_tail_prints_rows(self, tmp_path, capsys):
        path = tmp_path / "stream.jsonl"
        rows = [
            {"seq": 1, "kind": "point", "wall": 0.0, "artifact": "fig4"},
            {"seq": 2, "kind": "job", "wall": 0.0, "state": "done"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["tail", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "point" in out and "job" in out

    def test_tail_json_and_kind_filter(self, tmp_path, capsys):
        path = tmp_path / "stream.jsonl"
        rows = [
            {"seq": 1, "kind": "point", "wall": 0.0},
            {"seq": 2, "kind": "job", "wall": 0.0, "state": "done"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["tail", str(tmp_path), "--kind", "job", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert [r["kind"] for r in parsed] == ["job"]

    @pytest.mark.parametrize("text", ["{}", "not json", "[1]"])
    def test_health_of_a_file_that_is_no_report_fails_cleanly(
            self, tmp_path, capsys, text):
        path = tmp_path / "obs-health.json"
        path.write_text(text)
        assert main(["health", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is no health report" in err

    def test_health_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["health", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "health" in err


def echo_run(request):
    return ("ran", tuple(sorted(request.artifacts)),
            request.config.cache_token())


class TestSubmitStatusCLI:
    """submit/status against an in-process service over real HTTP."""

    @pytest.fixture()
    def url(self):
        with BrokerService(ServiceConfig(http=True)) as svc:
            yield svc.url

    def test_submit_wait_renders_the_artifact(self, url, capsys):
        assert main(["submit", "table1", "--url", url, "--wait"]) == 0
        out = capsys.readouterr().out
        assert "[submit] job" in out and "computed" in out

    def test_duplicate_submit_reports_coalesced(self, url, capsys):
        assert main(["submit", "table1", "--url", url, "--wait"]) == 0
        capsys.readouterr()
        assert main(["submit", "table1", "--url", url, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["coalesced"] is True

    def test_status_lists_jobs_and_stats(self, url, capsys):
        assert main(["submit", "table1", "--url", url, "--wait"]) == 0
        capsys.readouterr()
        assert main(["status", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "dedup hit-rate" in out
        assert main(["status", "--url", url, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["jobs"]) == 1
        assert doc["stats"]["done"] == 1

    def test_submit_offers_no_obs_out(self, capsys):
        """A service refuses every ``obs.out_dir``; submit does not ask."""
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "table1", "--url", "http://127.0.0.1:1",
                  "--obs-out", "o"])
        assert excinfo.value.code == 2
        assert "--obs-out" in capsys.readouterr().err

    def test_submit_sends_a_relative_cache_dir_resolved(
            self, url, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["submit", "table1", "--url", url, "--cache-dir",
                     "cache", "--wait"]) == 0
        assert "computed" in capsys.readouterr().out
        assert (tmp_path / "cache").is_dir()

    def test_submit_unreachable_service_fails_cleanly(self, capsys):
        assert main([
            "submit", "table1", "--url", "http://127.0.0.1:1",
        ]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_status_unreachable_service_fails_cleanly(self, capsys):
        assert main(["status", "--url", "http://127.0.0.1:1"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestServeDaemon:
    """`repro serve` as a real process: boot, serve, drain on SIGTERM."""

    def test_serve_submit_sigterm_round_trip(self, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        out_dir = tmp_path / "svc"
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", str(port), "--out-dir", str(out_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            url = f"http://127.0.0.1:{port}"
            client = ServiceClient(url)
            deadline = time.monotonic() + 30.0
            receipt = client.submit(RunRequest(artifacts=("table1",)))
            result = client.result(receipt.job_id, timeout=30.0)
            assert "table1" in result.names()
            assert client.stats()["done"] == 1
            proc.send_signal(signal.SIGTERM)
            output = proc.stdout.read()
            assert proc.wait(timeout=max(1.0, deadline - time.monotonic())) == 0
            assert "drained and stopped" in output
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # The out_dir stream survives shutdown for post-mortem tailing.
        assert (out_dir / "stream.jsonl").exists()
