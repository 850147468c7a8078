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

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.platforms.catalog": ("puma", "lagrange", "ec2_cc28xlarge"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
