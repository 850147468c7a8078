"""The analytic per-phase performance model.

Per iteration and per rank, each phase costs::

    t_phase = time_scale * flops_phase / core_rate        (computation)
            + n_messages * alpha_eff + bytes / beta_eff    (communication)

where ``alpha_eff``/``beta_eff`` come from the platform's interconnect
with NIC-contention sharing (:mod:`repro.network.contention`), plus
latency-bound allreduce trees for the solver's dot products.

The per-phase communication volumes follow the paper's observation that
"the assembly phase needs more data than preconditioning which needs
more data tha[n] the solver" *per exchange*: assembly ships matrix-row
ghost blocks (nnz-wide per interface DOF), the preconditioner ships
diagonal-block boundary data, and the solver exchanges many small
vector halos — which makes the *solver* the latency-dominated phase and
assembly the bandwidth-dominated one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.apps.workload import ELEMENTS_PER_RANK, AppWorkload
from repro.network.contention import estimate_offnode_fraction, nic_sharing_factor
from repro.network.model import LinkModel, NetworkModel
from repro.network.topology import ClusterTopology
from repro.platforms.spec import PlatformSpec
from repro.simmpi import collectives as coll
from repro.simmpi.selector import CollectiveSelector, Selection

#: Distinct (links, cores per node, p, payload) inputs the allreduce
#: memo holds; the paper's catalog needs at most 36 per payload.
ALLREDUCE_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=ALLREDUCE_MEMO_SIZE)
def priced_allreduce(
    internode: LinkModel,
    intranode: LinkModel,
    cores_per_node: int,
    num_ranks: int,
    nbytes: float,
) -> tuple[Selection, float]:
    """The selector's allreduce for ``num_ranks`` ranks and ``nbytes``,
    and the phase model's seconds per call of it.

    Memoized per process: the answer is a pure function of these values.
    The selector reads nothing of a topology but its two links and
    ``cores_per_node``, and this function hands it a topology rebuilt
    from exactly those, so no other input can reach the answer.
    """
    topo = ClusterTopology(
        -(-num_ranks // cores_per_node), cores_per_node,
        NetworkModel(internode, intranode),
    )
    selector = CollectiveSelector(topo, num_ranks)
    chosen = selector.select_allreduce(int(nbytes))
    shape = coll.allreduce_shape(
        chosen.algorithm, num_ranks, nbytes, ranks_per_node=selector.ranks_per_node
    )
    # The runs the selector priced and the simulator executes; the model
    # keeps its round-trip convention (each round charges the exchange
    # both ways) on the round's gating link.
    per_call = 0.0
    for r in shape.rounds:
        link = internode if r.internode else intranode
        flows = r.flows if r.internode else 1.0
        per_round = 2.0 * link.latency + r.nbytes * flows / link.bandwidth
        per_call = coll.add_run(per_call, per_round, r.count)
    return chosen, per_call


@dataclass(frozen=True)
class PhasePrediction:
    """Predicted per-iteration phase times (seconds) at one rank count."""

    num_ranks: int
    assembly: float
    preconditioner: float
    solve: float
    comm_fraction: float  # share of the total spent communicating

    @property
    def total(self) -> float:
        """Predicted max iteration time."""
        return self.assembly + self.preconditioner + self.solve


class PhaseModel:
    """Predicts phase times for one application on one platform."""

    # Matrix-row ghost width relative to a vector halo entry: how many
    # matrix entries ride along per interface DOF during assembly.
    ASSEMBLY_ROW_FACTOR = 9.0
    # Preconditioner setup ships block-boundary data once per iteration.
    PRECOND_ROW_FACTOR = 3.0

    def __init__(
        self,
        workload: AppWorkload,
        platform: PlatformSpec,
        time_scale: float = 1.0,
        topology: ClusterTopology | None = None,
        fused_solver: bool = False,
    ):
        if time_scale <= 0:
            raise ExperimentError("time_scale must be positive")
        if fused_solver:
            # Chronopoulos–Gear CG: one batched allreduce round per
            # iteration instead of three — the latency term of the solve
            # phase shrinks accordingly.
            workload = workload.with_fused_solver()
        self.fused_solver = fused_solver
        self.workload = workload
        self.platform = platform
        self.time_scale = time_scale
        self._topology_override = topology

    def _topology(self, num_ranks: int) -> ClusterTopology:
        if self._topology_override is not None:
            return self._topology_override
        nodes = max(self.platform.nodes_for_ranks(num_ranks), 1)
        if self.platform.on_demand:
            return self.platform.topology(num_nodes=nodes)
        return self.platform.topology()

    # -- cost primitives ----------------------------------------------------

    def _compute_time(self, flops: float) -> float:
        return self.time_scale * flops / self.platform.core_flops()

    def _comm_params(
        self, topo: ClusterTopology, num_ranks: int
    ) -> tuple[float, float]:
        """(alpha, beta) seen by one rank's off-node traffic."""
        if num_ranks <= topo.cores_per_node:
            link = topo.network.intranode
            return link.latency, link.bandwidth
        link = topo.network.internode
        sharing = nic_sharing_factor(topo, num_ranks)
        return link.latency, link.bandwidth / sharing

    def _point_to_point_time(
        self, topo: ClusterTopology, num_ranks: int, messages: float,
        total_bytes: float,
    ) -> float:
        """Latency + the *worse* of per-flow and fabric-wide bandwidth.

        The per-flow alpha-beta term models an uncontended path; the
        backplane term models the bulk-synchronous reality of a CFD halo
        exchange — every node transmitting at once through a shared
        fabric whose effective many-to-many capacity
        (``aggregate_backplane``) is far below per-link line rate on
        oversubscribed Ethernet trees and the 2012 EC2 network.  This is
        the mechanism behind the paper's degradation beyond ~125 ranks
        everywhere except InfiniBand.
        """
        if num_ranks == 1 or messages <= 0:
            return 0.0
        alpha, beta = self._comm_params(topo, num_ranks)
        per_flow = total_bytes / beta
        backplane = topo.network.aggregate_backplane
        if backplane is not None and num_ranks > topo.cores_per_node:
            offnode = total_bytes * estimate_offnode_fraction(topo, num_ranks)
            # Partial-node granularity: rank counts that do not fill the
            # last node still drive whole-node fabric contention — the
            # "certain sizes where the performance significantly
            # deteriorates" bumps of §VII.A.
            nodes = -(-num_ranks // topo.cores_per_node)
            granularity = (nodes * topo.cores_per_node) / num_ranks
            fabric_wide = num_ranks * offnode * granularity / backplane
            per_flow = max(per_flow, fabric_wide)
        return messages * alpha + per_flow

    def _priced(
        self, topo: ClusterTopology, num_ranks: int
    ) -> tuple[Selection, float]:
        network = topo.network
        return priced_allreduce(
            network.internode, network.intranode, topo.cores_per_node,
            num_ranks, self.workload.allreduce_bytes,
        )

    def _allreduce_time(
        self, topo: ClusterTopology, num_ranks: int, count: float
    ) -> float:
        if num_ranks == 1 or count <= 0:
            return 0.0
        return count * self._priced(topo, num_ranks)[1]

    # -- phases ----------------------------------------------------------------

    def predict(self, num_ranks: int) -> PhasePrediction:
        """Per-iteration phase times at ``num_ranks`` (weak scaling)."""
        if num_ranks < 1:
            raise ExperimentError(f"num_ranks must be >= 1, got {num_ranks}")
        w = self.workload
        e = ELEMENTS_PER_RANK
        topo = self._topology(num_ranks)
        neighbors = w.halo_neighbors(num_ranks)
        halo_unit = w.face_dofs(e) * 8.0  # one vector halo plane, bytes

        assembly_comp = self._compute_time(w.assembly_flops(e))
        assembly_comm = self._point_to_point_time(
            topo,
            num_ranks,
            messages=neighbors,
            total_bytes=neighbors * halo_unit * self.ASSEMBLY_ROW_FACTOR,
        )

        precond_comp = self._compute_time(w.precond_flops(e))
        precond_comm = self._point_to_point_time(
            topo,
            num_ranks,
            messages=neighbors,
            total_bytes=neighbors * halo_unit * self.PRECOND_ROW_FACTOR,
        )

        iters = w.solver_iterations(num_ranks)
        solve_comp = self._compute_time(w.solve_flops(e, num_ranks))
        solve_comm = self._point_to_point_time(
            topo,
            num_ranks,
            messages=iters * neighbors,
            total_bytes=iters * neighbors * halo_unit,
        ) + self._allreduce_time(topo, num_ranks, w.allreduce_count(num_ranks))

        comm = assembly_comm + precond_comm + solve_comm
        total = assembly_comp + precond_comp + solve_comp + comm
        return PhasePrediction(
            num_ranks=num_ranks,
            assembly=assembly_comp + assembly_comm,
            preconditioner=precond_comp + precond_comm,
            solve=solve_comp + solve_comm,
            comm_fraction=comm / total if total > 0 else 0.0,
        )
