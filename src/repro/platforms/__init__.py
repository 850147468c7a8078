"""The four heterogeneous target platforms of the paper, as executable data.

Table I of the paper — CPU architecture, cores, RAM, network, storage,
access modality, support level, build environment, pre-installed
dependencies, MPI availability and scheduler — becomes
:class:`~repro.platforms.spec.PlatformSpec` instances in
:mod:`~repro.platforms.catalog`.  The porting narrative of §VI becomes
the provisioning planner; the execution pathologies of §VII (ellipse's
mpiexec ceiling, lagrange's InfiniBand data-volume cap) become the rank
ceiling :func:`~repro.platforms.limits.rank_ceiling_reason` reports.
"""

from repro.platforms.spec import (
    AccessMode,
    SupportLevel,
    CPUModel,
    NodeSpec,
    AvailabilityModel,
    PlatformSpec,
)
from repro.platforms.catalog import (
    puma,
    ellipse,
    lagrange,
    ec2_cc28xlarge,
    all_platforms,
    platform_by_name,
    table1_rows,
)
from repro.platforms.software import (
    Package,
    PackageRegistry,
    lifev_stack_registry,
    LIFEV_TARGET,
)
from repro.platforms.provisioning import (
    ProvisioningAction,
    ProvisioningPlan,
    plan_provisioning,
)
from repro.platforms.schedulers import (
    JobRequest,
    BatchScheduler,
    PBSScheduler,
    SGEScheduler,
    ShellLauncher,
    make_scheduler,
)

__all__ = [
    "AccessMode",
    "SupportLevel",
    "CPUModel",
    "NodeSpec",
    "AvailabilityModel",
    "PlatformSpec",
    "puma",
    "ellipse",
    "lagrange",
    "ec2_cc28xlarge",
    "all_platforms",
    "platform_by_name",
    "table1_rows",
    "Package",
    "PackageRegistry",
    "lifev_stack_registry",
    "LIFEV_TARGET",
    "ProvisioningAction",
    "ProvisioningPlan",
    "plan_provisioning",
    "JobRequest",
    "BatchScheduler",
    "PBSScheduler",
    "SGEScheduler",
    "ShellLauncher",
    "make_scheduler",
]
