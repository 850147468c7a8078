"""Tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestCLI:
    def test_table1(self, capsys):
        assert main(["run", "table1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "puma" in out and "lagrange" in out

    def test_porting(self, capsys):
        assert main(["run", "porting", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "man-hours" in out
        assert "trilinos" in out

    def test_fig4(self, capsys):
        assert main(["run", "fig4", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "legend" in out

    def test_table2(self, capsys):
        assert main(["run", "table2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "est. cost" in out

    def test_fig6(self, capsys):
        assert main(["run", "fig6", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "ec2 mix" in out

    def test_compare(self):
        # `broker` is the one platform-advice verb; `compare` is gone.
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--app", "rd", "--ranks", "1000"])
        assert excinfo.value.code == 2

    def test_script(self, capsys):
        assert main(["script", "--platform", "ec2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#!/bin/bash")
        assert "yum install" in out

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3
        assert "all checks passed" in out

    def test_experiments_summary(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "Paper vs reproduction" in out
        assert "Table II" in out
        assert "162.09" in out  # the paper's 1000-rank time appears

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_script_requires_platform(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["script"])
