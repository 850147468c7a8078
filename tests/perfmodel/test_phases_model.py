"""Tests for the analytic phase model and its calibration anchors."""

import pytest

from repro.errors import ExperimentError
from repro.apps.workload import NS_WORKLOAD, RD_WORKLOAD, paper_rank_series
from repro.network.model import GIGABIT_ETHERNET, NetworkModel
from repro.network.topology import ClusterTopology
from repro.perfmodel.calibration import (
    NS_TIME_SCALE,
    RD_TIME_SCALE,
    calibrate_against_sequential_run,
    time_scale_for,
)
from repro.perfmodel.phases import PhaseModel
from repro.platforms.catalog import all_platforms, ec2_cc28xlarge, lagrange, puma

from repro.harness.paper_data import PAPER_TABLE2

# Table II 'full' column: measured RD iteration times on cc2.8xlarge.
PAPER_TABLE2_FULL = {mpi: row.full_time_s for mpi, row in PAPER_TABLE2.items()}


@pytest.fixture(scope="module")
def rd_model_ec2():
    return PhaseModel(RD_WORKLOAD, ec2_cc28xlarge, time_scale=RD_TIME_SCALE)


class TestPhaseModelBasics:
    def test_prediction_fields(self, rd_model_ec2):
        pred = rd_model_ec2.predict(8)
        assert pred.assembly > 0
        assert pred.preconditioner > 0
        assert pred.solve > 0
        assert pred.total == pytest.approx(
            pred.assembly + pred.preconditioner + pred.solve
        )
        assert 0.0 <= pred.comm_fraction < 1.0

    def test_single_rank_no_comm(self, rd_model_ec2):
        assert rd_model_ec2.predict(1).comm_fraction == 0.0

    def test_comm_fraction_grows(self, rd_model_ec2):
        fractions = [rd_model_ec2.predict(p).comm_fraction for p in (8, 125, 1000)]
        assert fractions == sorted(fractions)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            PhaseModel(RD_WORKLOAD, puma, elements_per_rank=0)
        with pytest.raises(ExperimentError):
            PhaseModel(RD_WORKLOAD, puma, time_scale=0.0)
        with pytest.raises(ExperimentError):
            PhaseModel(RD_WORKLOAD, puma).predict(0)

    def test_series(self, rd_model_ec2):
        preds = [rd_model_ec2.predict(p) for p in (1, 8, 27)]
        assert [p.num_ranks for p in preds] == [1, 8, 27]


class TestPaperShapeRD:
    """Figure 4 / Table II shape assertions for the RD application."""

    def test_table2_absolute_match_within_40_percent(self, rd_model_ec2):
        """The calibrated model tracks Table II's measured iteration times."""
        for ranks, measured in PAPER_TABLE2_FULL.items():
            predicted = rd_model_ec2.predict(ranks).total
            assert predicted == pytest.approx(measured, rel=0.40), (
                f"ranks={ranks}: predicted {predicted:.1f}s vs paper {measured}s"
            )

    def test_flat_through_125_then_degrading(self):
        """'The problem scales well for all targets in the range 1-125';
        beyond, everything but InfiniBand degrades sharply."""
        for platform in all_platforms():
            model = PhaseModel(RD_WORKLOAD, platform, time_scale=RD_TIME_SCALE)
            t1 = model.predict(1).total
            t125 = model.predict(125).total
            assert t125 < 6 * t1, platform.name

        ec2_model = PhaseModel(RD_WORKLOAD, ec2_cc28xlarge, time_scale=RD_TIME_SCALE)
        assert ec2_model.predict(1000).total > 15 * ec2_model.predict(1).total

    def test_lagrange_stays_flat(self):
        """'Only the HPC machine lagrange maintains a good weak scaling
        characteristic.'"""
        model = PhaseModel(RD_WORKLOAD, lagrange, time_scale=RD_TIME_SCALE)
        assert model.predict(343).total < 1.6 * model.predict(1).total

    def test_gige_worst_at_equal_ranks(self):
        """At 125 ranks the 1 GbE clusters are slower than EC2 (fewer,
        fatter nodes exchange less over the fabric) and much slower
        than InfiniBand."""
        times = {}
        for platform in all_platforms():
            model = PhaseModel(RD_WORKLOAD, platform, time_scale=RD_TIME_SCALE)
            times[platform.name] = model.predict(125).total
        assert times["lagrange"] < times["ec2"]
        assert times["ec2"] < times["ellipse"]
        assert times["ec2"] < times["puma"]

    @pytest.mark.parametrize("num_ranks", [64, 125, 512])
    def test_fat_nodes_beat_thin_nodes_on_slow_fabrics(self, num_ranks):
        """At fixed rank count and fabric, 16-core nodes communicate less
        off-node than 4-core nodes — the paper's explanation for EC2's
        relative resilience (§VII.A)."""

        def predict(cores_per_node):
            topology = ClusterTopology(
                -(-num_ranks // cores_per_node), cores_per_node,
                NetworkModel(GIGABIT_ETHERNET, aggregate_backplane=25e6),
            )
            model = PhaseModel(
                RD_WORKLOAD, puma, time_scale=RD_TIME_SCALE, topology=topology
            )
            return model.predict(num_ranks).total

        assert predict(16) < predict(4)

    def test_partial_node_granularity_bumps(self, rd_model_ec2):
        """§VII.A: 'there are certain sizes where the performance
        significantly deteriorates'.  Rank counts that partially fill an
        instance pay whole-node fabric contention: 17 ranks on two
        16-core nodes cost nearly as much fabric time as 32 ranks."""
        t17 = rd_model_ec2.predict(17)
        t32 = rd_model_ec2.predict(32)
        # Per-rank normalized fabric load equal => totals within a few %.
        assert t17.total == pytest.approx(t32.total, rel=0.10)
        # While a clean full node at 16 ranks is much cheaper.
        t16 = rd_model_ec2.predict(16)
        assert t17.total > 1.15 * t16.total

    def test_solver_phase_latency_bound_on_ethernet(self):
        """The solve phase carries the latency-bound allreduce traffic:
        on 1 GbE at scale it dominates its single-rank value."""
        model = PhaseModel(RD_WORKLOAD, puma, time_scale=RD_TIME_SCALE)
        assert model.predict(125).solve > 2 * model.predict(1).solve


class TestPaperShapeNS:
    def test_ns_scales_worse_than_rd(self):
        """'This test does not scale well in any range.'"""
        for platform in (puma, ec2_cc28xlarge):
            rd = PhaseModel(RD_WORKLOAD, platform, time_scale=RD_TIME_SCALE)
            ns = PhaseModel(NS_WORKLOAD, platform, time_scale=NS_TIME_SCALE)
            rd_growth = rd.predict(125).total / rd.predict(1).total
            ns_growth = ns.predict(125).total / ns.predict(1).total
            assert ns_growth > rd_growth, platform.name

    def test_ec2_competitive_with_hpc_at_small_scale(self):
        """'For computationally intensive tasks for a small number of
        processes, Amazon EC2 performance is comparable to the HPC class
        machine and can considerably improve time to completion in
        comparison to the department class computing clusters.'"""
        times = {}
        for platform in all_platforms():
            model = PhaseModel(NS_WORKLOAD, platform, time_scale=NS_TIME_SCALE)
            times[platform.name] = model.predict(8).total
        assert times["ec2"] < 1.25 * times["lagrange"]
        assert times["ec2"] < 0.6 * times["puma"]
        assert times["ec2"] < 0.6 * times["ellipse"]

    def test_ec2_declines_sharply_at_scale(self):
        """'The performance of Amazon cluster nodes declines sharply as
        the problem size/number of processes increases.'"""
        model = PhaseModel(NS_WORKLOAD, ec2_cc28xlarge, time_scale=NS_TIME_SCALE)
        assert model.predict(1000).total > 30 * model.predict(1).total


class TestCalibration:
    def test_time_scale_lookup(self):
        assert time_scale_for(RD_WORKLOAD) == RD_TIME_SCALE
        assert time_scale_for(NS_WORKLOAD) == NS_TIME_SCALE

    def test_unknown_workload(self):
        from repro.apps.workload import AppWorkload

        other = AppWorkload(
            name="other", fields=1, order=1, assembly_flops_per_element=1,
            precond_flops_per_dof=1, solve_flops_per_dof_iter=1,
            base_solver_iters=1, iter_growth=0,
        )
        with pytest.raises(ExperimentError):
            time_scale_for(other)

    def test_host_calibration_runs_real_solver(self):
        cal = calibrate_against_sequential_run(mesh_per_dim=4, num_steps=3)
        assert cal.elements == 64
        assert cal.measured_assembly_s > 0
        assert cal.model_assembly_flops > 0
        # The workload flop model should land within two orders of
        # magnitude of executed reality on any sane host.
        flops = cal.model_assembly_flops + cal.model_solve_flops
        seconds = cal.measured_assembly_s + cal.measured_solve_s
        assert 0.01 < flops / seconds / 1e9 < 100.0

    def test_calibration_validation(self):
        with pytest.raises(ExperimentError):
            calibrate_against_sequential_run(mesh_per_dim=1)

    def test_iteration_growth_measured_from_executed_runs(self):
        """The workload's iteration-growth law is anchored to executed
        distributed solves: block-Jacobi CG degradation per unit of
        p^(1/3) is positive, shrinks as subdomains get thicker, and the
        model constant (for the paper's fat 20^3-per-rank subdomains)
        sits below the thin-subdomain measurements."""
        from repro.perfmodel.calibration import calibrate_iteration_growth

        thin = calibrate_iteration_growth(mesh_per_dim=6)
        thick = calibrate_iteration_growth(mesh_per_dim=10)
        assert thin > thick > 0.0
        assert RD_WORKLOAD.iter_growth < thick

    def test_iteration_growth_validation(self):
        from repro.perfmodel.calibration import calibrate_iteration_growth

        with pytest.raises(ExperimentError):
            calibrate_iteration_growth(rank_counts=(8,))


class TestCrossValidationAgainstSimulator:
    """DESIGN.md promise: the analytic model and the executed virtual-time
    simulation agree on ordering at small scale."""

    def _simulated_time(self, platform, num_ranks=4):
        from repro.apps.reaction_diffusion import RDProblem, run_rd_distributed
        from repro.simmpi.launcher import run_spmd

        problem = RDProblem(mesh_shape=(4, 4, 4), num_steps=3)
        # One rank per node isolates the interconnect difference.
        topo = ClusterTopologyFactory(platform, num_ranks)

        def main(comm):
            _owned, log, _err = run_rd_distributed(
                comm, problem, preconditioner="jacobi", discard=1,
                cpu_speed_factor=platform.node.cpu.sustained_gflops,
            )
            return log.averages().total

        result = run_spmd(main, num_ranks, topology=topo, real_timeout=60.0)
        return max(result.returns)

    def test_interconnect_ordering_matches_model(self):
        """Executed simulation and analytic model agree: at equal rank
        counts, lagrange(IB) iterations finish faster than puma(1GbE)."""
        sim_puma = self._simulated_time(puma)
        sim_lagrange = self._simulated_time(lagrange)
        assert sim_lagrange < sim_puma

        model_puma = PhaseModel(RD_WORKLOAD, puma, time_scale=RD_TIME_SCALE).predict(64)
        model_lagrange = PhaseModel(
            RD_WORKLOAD, lagrange, time_scale=RD_TIME_SCALE
        ).predict(64)
        assert model_lagrange.total < model_puma.total


def ClusterTopologyFactory(platform, num_ranks):
    """One rank per node on the platform's fabric (for cross-validation)."""
    from repro.network.model import NetworkModel
    from repro.network.topology import ClusterTopology

    return ClusterTopology(num_ranks, 1, NetworkModel(platform.interconnect))
