"""repro: reproduction of "Experiences with Target-Platform Heterogeneity
in Clouds, Grids, and On-Premises Resources" (Emory TR-2012-004).

The public API re-exports the objects a downstream user needs most; the
subpackages remain importable directly for everything else:

* ``repro.fem`` / ``repro.la`` / ``repro.partition`` — the numerical
  substrate (LifeV / Trilinos / ParMETIS work-alikes);
* ``repro.simmpi`` / ``repro.network`` — the virtual-time MPI runtime
  and interconnect models;
* ``repro.platforms`` / ``repro.cloud`` / ``repro.costs`` — the four
  target platforms, the EC2 simulation, and the dollar models;
* ``repro.apps`` / ``repro.perfmodel`` / ``repro.harness`` — the two
  paper applications, the calibrated performance model, and the
  point functions behind each paper table/figure;
* ``repro.core`` — the deployment/characterization framework;
* ``repro.broker`` — the assembly broker and the parallel sweep engine
  behind :func:`repro.run`;
* ``repro.service`` — the broker as a persistent multi-tenant service
  (job queue, request coalescing, admission control) behind
  ``BrokerService.run`` and ``ServiceClient(url).run``.
"""

from repro.errors import ReproError
from repro.apps.navier_stokes import NSProblem, NSSolver
from repro.apps.reaction_diffusion import RDProblem, RDSolver
from repro.core.deployment import deploy_and_run
from repro.platforms.catalog import (
    all_platforms,
    ec2_cc28xlarge,
    ellipse,
    lagrange,
    platform_by_name,
    puma,
)
from repro.harness.config import ResilienceParams, RunConfig
from repro.broker import (
    AssemblyPlan,
    BrokerReport,
    BrokerRequest,
    RunRequest,
    RunResult,
    artifact_names,
    broker_assemblies,
    run,
    section_7d_request,
)
from repro.service import (
    AdmissionPolicy,
    BrokerService,
    ServiceClient,
    ServiceConfig,
    TenantQuota,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "RDProblem",
    "RDSolver",
    "NSProblem",
    "NSSolver",
    "deploy_and_run",
    "all_platforms",
    "platform_by_name",
    "puma",
    "ellipse",
    "lagrange",
    "ec2_cc28xlarge",
    "RunConfig",
    "ResilienceParams",
    "RunRequest",
    "RunResult",
    "run",
    "artifact_names",
    "AssemblyPlan",
    "BrokerReport",
    "BrokerRequest",
    "broker_assemblies",
    "section_7d_request",
    "AdmissionPolicy",
    "BrokerService",
    "ServiceClient",
    "ServiceConfig",
    "TenantQuota",
    "__version__",
]
