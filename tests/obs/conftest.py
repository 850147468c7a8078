"""One observed distributed RD run shared by the obs test modules."""

import pytest

from repro.apps.reaction_diffusion import RDProblem, run_rd_distributed
from repro.obs.core import Observability, ObsConfig
from repro.simmpi.launcher import run_spmd

NUM_RANKS = 2
NUM_STEPS = 6
DISCARD = 3
MESH = (5, 5, 5)


@pytest.fixture(scope="package")
def rd_run():
    """(hub, per-rank PhaseLogs, nodal error) of an instrumented RD run."""
    obs = Observability(ObsConfig(discard=DISCARD))
    problem = RDProblem(mesh_shape=MESH, num_steps=NUM_STEPS)

    def main(comm):
        return run_rd_distributed(
            comm, problem, preconditioner="block-jacobi", discard=DISCARD,
            obs=obs,
        )

    result = run_spmd(main, NUM_RANKS, observability=obs, real_timeout=120.0)
    obs.check_balanced()
    logs = {rank: ret[1] for rank, ret in enumerate(result.returns)}
    return obs, logs, result.returns[0][2]
