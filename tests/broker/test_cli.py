"""The unified CLI: ``repro run`` and ``repro broker``."""

import json
import re

import pytest

from repro.__main__ import main


class TestRunCommand:
    def test_list(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig4", "table2", "resilience"):
            assert name in out

    def test_single_artifact_with_summary_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        match = re.search(r"\[sweep\] points=(\d+) hits=(\d+) misses=(\d+)", out)
        assert match, out
        assert match.group(1) == "4"

    def test_warm_rerun_hits_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["run", "fig4", "--cache-dir", "c"])
        capsys.readouterr()
        main(["run", "fig4", "--cache-dir", "c"])
        out = capsys.readouterr().out
        assert "hits=4 misses=0 hit_rate=100.0%" in out

    def test_no_cache_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["run", "fig4", "--cache-dir", "c"])
        capsys.readouterr()
        main(["run", "fig4", "--cache-dir", "c", "--no-cache"])
        out = capsys.readouterr().out
        assert "hits=0" in out

    def test_parallel_matches_serial_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["run", "fig6", "--no-cache"])
        serial = capsys.readouterr().out
        main(["run", "fig6", "--no-cache", "--parallel", "2"])
        fanned = capsys.readouterr().out

        def body(text):  # strip the [sweep] accounting, which differs
            return [l for l in text.splitlines() if not l.startswith("[sweep]")]

        assert body(serial) == body(fanned)

    def test_obs_out_exports(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig4", "--no-cache", "--obs-out", "o"]) == 0
        out = capsys.readouterr().out
        assert "exported" in out
        assert (tmp_path / "o" / "obs-trace.json").exists()

    def test_engine_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig4", "--engine", "threads"])
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_legacy_subcommands_are_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig4"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fig4'" in capsys.readouterr().err


class TestBrokerCommand:
    def test_section_7d_scenario(self, capsys):
        assert main([
            "broker", "--ranks", "1000", "--iterations", "100",
            "--deadline-h", "12",
        ]) == 0
        out = capsys.readouterr().out
        assert "1. ec2-mix" in out
        assert "infeasible" in out
        assert "checkpoint+rework" in out

    def test_top_limits_listing(self, capsys):
        main(["broker", "--ranks", "1000", "--top", "2"])
        out = capsys.readouterr().out
        assert "2. " in out and "3. " not in out

    def test_risk_cap(self, capsys):
        main(["broker", "--ranks", "1000", "--max-risk", "0.01"])
        out = capsys.readouterr().out
        assert "best: ec2 (on-demand)" in out

    def test_elastic_honours_flags_equal_to_the_static_defaults(self, capsys):
        """An explicit flag wins in elastic mode even when it repeats the
        static broker's default (64 ranks, 100 iterations, spike 0.06)."""
        assert main([
            "broker", "--elastic", "--ranks", "64", "--iterations", "100",
            "--spike-probability", "0.06", "--json",
        ]) == 0
        request = json.loads(capsys.readouterr().out)["request"]
        assert (request["num_ranks"], request["num_iterations"]) == (64, 100)
        assert request["spot_spike_probability"] == 0.06

    def test_each_mode_fills_in_its_own_defaults(self, capsys):
        main(["broker", "--json"])
        static = json.loads(capsys.readouterr().out)["request"]
        main(["broker", "--elastic", "--json"])
        elastic = json.loads(capsys.readouterr().out)["request"]
        assert (static["num_ranks"], static["num_iterations"]) == (64, 100)
        assert static["spot_spike_probability"] == 0.06
        assert (elastic["num_ranks"], elastic["num_iterations"]) == (128, 1000)
        assert elastic["spot_spike_probability"] == 0.12
