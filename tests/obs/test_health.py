"""Wait-state health reports: exact decomposition, reconciliation, merge."""

import json
import math

import pytest

from repro.harness.config import to_json
from repro.obs.analysis import overlap_report
from repro.obs.health import (
    RankHealth,
    RunHealthReport,
    merge_reports,
    run_health,
)
from repro.simmpi import run_spmd

from .conftest import NUM_RANKS

TOL = 1e-9


def _imbalanced_program(comm):
    """Skewed compute so every wait-state class is exercised."""
    import numpy as np

    rank, size = comm.rank, comm.size
    comm.compute(1e-5 * (rank + 1), label="work")
    comm.allreduce(np.ones(16))
    if size > 1:
        comm.send(np.arange(32), dest=(rank + 1) % size, tag=3)
        comm.recv(source=(rank - 1) % size, tag=3)
    comm.compute(2e-6)
    comm.barrier()


@pytest.fixture(scope="module")
def skew_run():
    return run_spmd(_imbalanced_program, 4, trace=True)


class TestDecomposition:
    def test_identity_per_rank(self, skew_run):
        """Acceptance: send + recv-overhead + late-sender +
        collective-wait + collective-work equals each rank's merged
        communication time, exactly."""
        report = run_health(skew_run.tracer)
        assert report.num_ranks == 4
        for row in report.ranks:
            decomposed = (row.send_time + row.recv_overhead
                          + row.late_sender + row.collective_wait
                          + row.collective_work)
            assert decomposed == pytest.approx(row.comm_time, abs=TOL)

    def test_reconciles_with_overlap_report(self, skew_run):
        """Acceptance: health comm totals agree with the analysis
        layer's merged-interval comm time within 1% (they are the same
        quantity computed two ways)."""
        report = run_health(skew_run.tracer)
        overlap = overlap_report(skew_run)
        for row in report.ranks:
            expected = overlap["ranks"][row.rank]["comm"]
            assert row.comm_time == pytest.approx(expected, rel=0.01, abs=TOL)
            assert row.comm_time == pytest.approx(expected, abs=TOL)

    def test_wait_states_are_populated(self, skew_run):
        report = run_health(skew_run.tracer)
        assert report.total("collective_wait") > 0  # skewed compute
        assert report.load_imbalance > 0
        assert 0 <= report.wait_fraction <= 1
        assert report.worst_rank in range(4)
        assert report.makespan > 0
        for row in report.ranks:
            assert row.sends > 0 and row.recvs > 0 and row.collectives >= 2
            assert 0 <= row.nic_saturation <= 1

    def test_rd_fixture_run(self, rd_run):
        """The package RD fixture: decomposition identity holds on a
        real application trace too."""
        obs, _, _ = rd_run
        report = run_health(obs)
        assert report.num_ranks == NUM_RANKS
        overlap = overlap_report(obs)
        for row in report.ranks:
            decomposed = (row.send_time + row.recv_overhead
                          + row.late_sender + row.collective_wait
                          + row.collective_work)
            assert decomposed == pytest.approx(row.comm_time, abs=TOL)
            assert row.comm_time == pytest.approx(
                overlap["ranks"][row.rank]["comm"], rel=0.01, abs=TOL
            )

    def test_empty_trace_yields_empty_report(self):
        res = run_spmd(lambda comm: comm.compute(1e-6), 1, trace=True)
        report = run_health(res.tracer)
        assert report.comm_time == 0.0
        assert report.wait_fraction == 0.0
        assert report.worst_rank is not None  # rank 0 traced compute only

    def test_accepts_hub_result_or_tracer(self, skew_run):
        direct = run_health(skew_run.tracer)
        wrapped = run_health(skew_run)  # SPMDResult exposes .tracer
        assert direct.as_dict() == wrapped.as_dict()


class TestRoundtripAndMerge:
    def test_dict_roundtrip_is_exact(self, skew_run):
        report = run_health(skew_run.tracer)
        doc = json.loads(json.dumps(report.as_dict()))
        back = RunHealthReport.from_dict(doc)
        assert back.as_dict() == report.as_dict()

    def test_merge_sums_fieldwise(self, skew_run):
        report = run_health(skew_run.tracer)
        merged = merge_reports([report, report])
        assert merged.num_ranks == report.num_ranks
        for one, two in zip(report.ranks, merged.ranks):
            assert two.comm_time == pytest.approx(2 * one.comm_time, abs=TOL)
            assert two.sends == 2 * one.sends
        assert merged.makespan == report.makespan  # max, not sum

    def test_merge_edge_cases(self, skew_run):
        assert merge_reports([]) is None
        assert merge_reports([None, None]) is None
        report = run_health(skew_run.tracer)
        assert merge_reports([report]) is report
        assert merge_reports([None, report]) is report

    def test_format_is_human_readable(self, skew_run):
        text = run_health(skew_run.tracer).format()
        assert "run health: 4 ranks" in text
        assert "late-sender wait" in text
        assert "wait-at-collective" in text
        assert "worst rank" in text

    def test_rank_health_wait_time(self):
        row = RankHealth(rank=0, late_sender=1.0, collective_wait=2.5)
        assert row.wait_time == 3.5
        assert math.isclose(to_json(row)["late_sender"], 1.0)


class TestHubIntegration:
    def test_hub_run_health_from_own_trace(self):
        from repro.obs import Observability, ObsConfig

        obs = Observability(ObsConfig())
        run_spmd(_imbalanced_program, 4, observability=obs)
        report = obs.run_health()
        assert report is not None
        assert report.num_ranks == 4

    def test_telemetry_payload_carries_health(self):
        from repro.obs import Observability, ObsConfig

        obs = Observability(ObsConfig())
        run_spmd(_imbalanced_program, 2, observability=obs)
        payload = obs.telemetry_payload()
        assert "health" in payload
        parent = Observability(ObsConfig())
        parent.absorb_telemetry(payload)
        merged = parent.run_health()
        assert merged is not None
        assert merged.num_ranks == 2

    def test_run_result_health_property(self, tmp_path):
        import repro
        from repro.harness.config import RunConfig
        from repro.obs import ObsConfig

        config = RunConfig(obs=ObsConfig(out_dir=str(tmp_path / "obs")),
                           cache_dir=str(tmp_path / "cache"))
        # The resilience artifact runs real SPMD points under the hub,
        # so it is the one whose sweep produces a traced health report.
        result = repro.run("resilience", config=config)
        assert result.health is not None
        assert result.health.num_ranks >= 2
        health_files = list((tmp_path / "obs").glob("*-health.json"))
        assert health_files
        doc = json.loads(health_files[0].read_text())
        assert doc["num_ranks"] == result.health.num_ranks


class TestExportedBytes:
    """One ``*-health.json`` as the hand-written row codec wrote it."""

    def run(self, tmp_path, name):
        from repro.obs import Observability, ObsConfig

        obs = Observability(ObsConfig(out_dir=str(tmp_path / name)))
        run_spmd(_imbalanced_program, 2, observability=obs)
        return obs

    def test_health_file_bytes(self, tmp_path):
        self.run(tmp_path, "direct").export()
        assert (tmp_path / "direct" / "obs-health.json").read_text() == HEALTH_JSON

    def test_health_absorbed_from_worker_telemetry_has_the_same_bytes(
            self, tmp_path):
        """The parent hub rebuilds the report from the worker's rows
        (``RunHealthReport.from_dict``) and writes the same file."""
        from repro.obs import Observability, ObsConfig

        payload = self.run(tmp_path, "worker").telemetry_payload()
        parent = Observability(ObsConfig(out_dir=str(tmp_path / "parent")))
        parent.absorb_telemetry(payload)
        parent.export()
        assert (tmp_path / "parent" / "obs-health.json").read_text() == HEALTH_JSON


HEALTH_JSON = """\
{
  "num_ranks": 2,
  "makespan": 2.68768e-05,
  "load_imbalance": 0.2941176470588234,
  "comm_time": 1.9153599999999992e-05,
  "wait_time": 1.1800000000000002e-05,
  "wait_fraction": 0.6160721744215191,
  "nic_saturation": 0.002922730317238006,
  "worst_rank": 0,
  "totals": {
    "compute_time": 3.4000000000000007e-05,
    "send_time": 1.1023999999999981e-06,
    "recv_overhead": 9.999999999999985e-07,
    "late_sender": 1.2000000000000008e-06,
    "late_receiver": 6.00000000000001e-07,
    "collective_wait": 1.0600000000000002e-05,
    "collective_work": 5.251199999999995e-06,
    "nic_busy": 1.5359999999999926e-07
  },
  "ranks": [
    {
      "rank": 0,
      "compute_time": 1.2000000000000002e-05,
      "comm_time": 1.4876799999999998e-05,
      "send_time": 5.511999999999991e-07,
      "recv_overhead": 4.999999999999986e-07,
      "late_sender": 0.0,
      "late_receiver": 0.0,
      "collective_wait": 1.0600000000000002e-05,
      "collective_work": 3.2255999999999984e-06,
      "nic_busy": 7.679999999999963e-08,
      "nic_saturation": 0.0028574830336944735,
      "wall_time": 2.68768e-05,
      "sends": 3,
      "recvs": 1,
      "collectives": 2
    },
    {
      "rank": 1,
      "compute_time": 2.2000000000000003e-05,
      "comm_time": 4.276799999999996e-06,
      "send_time": 5.511999999999991e-07,
      "recv_overhead": 4.999999999999999e-07,
      "late_sender": 1.2000000000000008e-06,
      "late_receiver": 6.00000000000001e-07,
      "collective_wait": 0.0,
      "collective_work": 2.0255999999999963e-06,
      "nic_busy": 7.679999999999963e-08,
      "nic_saturation": 0.002922730317238006,
      "wall_time": 2.62768e-05,
      "sends": 3,
      "recvs": 1,
      "collectives": 2
    }
  ]
}
"""
