"""Smoke test of the perf benchmark (about a minute; not part of tier-1).

Run it explicitly::

    python -m pytest benchmarks/perf/test_perf_smoke.py -q

It drives ``run.py --smoke --trace`` once and checks the contract the
benchmark makes with ``BENCHMARK.json``: every declared workload and
metric is emitted and nothing else, nothing failed, nothing drifted
from ``reference.json``, and the layer stages account for the
end-to-end numbers they are said to explain.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path.insert(0, str(PERF_DIR))

#: One smoke run times each stage once or a few times on a shared
#: machine, so the test allows more than the 10 % README.md states for
#: a full run; the residual itself is printed by run.py.
RESIDUAL_TOLERANCE = 0.25


@pytest.fixture(scope="module")
def declared():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--smoke", "--trace", "--out", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text())


def test_declared_shape(declared):
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in declared["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_emits_exactly_what_is_declared(declared, smoke):
    from workloads import WORKLOADS

    # The all-workloads form runs the six of README.md; BENCHMARK.json
    # declares the four of them that fit the driver's time limit.
    assert list(smoke["end_to_end"]) == list(WORKLOADS)
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    for name in WORKLOADS:
        assert set(smoke["end_to_end"][name]) == end_to_end
        assert all(v > 0 for values in smoke["end_to_end"][name].values() for v in values)
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert smoke["per_layer"], "no traced run"
    for layer in smoke["per_layer"].values():
        assert set(layer) == per_layer
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    assert smoke["units"] == units


def test_nothing_failed_or_drifted(smoke):
    assert smoke["problems"] == []


def test_stages_account_for_the_end_to_end_numbers(smoke):
    from run import residuals

    found = residuals(smoke)
    assert any("plain_wall_s" in label for label in found), found
    assert any("service.job_fresh_ms" in label for label in found), found
    for label, value in found.items():
        assert abs(value) <= RESIDUAL_TOLERANCE, (label, value)
