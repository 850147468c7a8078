"""repro: reproduction of "Experiences with Target-Platform Heterogeneity
in Clouds, Grids, and On-Premises Resources" (Emory TR-2012-004).

The public API re-exports the objects a downstream user needs most, each
imported from its defining module on first use (so ``import repro`` loads
no FEM stack); the subpackages remain importable directly for everything
else:

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

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "repro.errors": ("ReproError",),
    "repro.apps.reaction_diffusion": ("RDProblem", "RDSolver"),
    "repro.apps.navier_stokes": ("NSProblem", "NSSolver"),
    "repro.core.deployment": ("deploy_and_run",),
    "repro.platforms.catalog": (
        "all_platforms",
        "platform_by_name",
        "puma",
        "ellipse",
        "lagrange",
        "ec2_cc28xlarge",
    ),
    "repro.harness.config": ("RunConfig", "ResilienceParams"),
    "repro.broker.api": ("RunRequest", "RunResult", "run"),
    "repro.broker.registry": ("artifact_names",),
    "repro.broker.assembly": (
        "AssemblyPlan",
        "BrokerReport",
        "BrokerRequest",
        "broker_assemblies",
        "section_7d_request",
    ),
    "repro.service.admission": ("AdmissionPolicy", "TenantQuota"),
    "repro.service.service": ("BrokerService", "ServiceConfig"),
    "repro.service.client": ("ServiceClient",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]
