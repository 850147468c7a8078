"""The provisioning planner: §VI of the paper as an algorithm.

Given a platform's capability matrix (pre-installed packages, available
install channels) and the LifeV dependency closure, the planner emits an
ordered install plan with the cheapest viable channel per package and a
total man-hour estimate.  Cloud targets get the extra preparation
actions the authors describe for EC2: system update, ssh mutual
authentication, security-group configuration, boot-volume resize and
image creation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.platforms.spec import AccessMode, PlatformSpec
from repro.platforms.software import LIFEV_TARGET, lifev_stack_registry


@dataclass(frozen=True)
class ProvisioningAction:
    """One step of the plan: install a package or perform a platform task."""

    name: str
    method: str  # "preinstalled" | "module" | "yum" | "source" | "config"
    hours: float
    note: str = ""

    def __str__(self) -> str:
        return f"{self.name:<14} via {self.method:<12} ({self.hours:.2f} h)"


@dataclass
class ProvisioningPlan:
    """An ordered provisioning plan for one platform."""

    platform: str
    actions: list[ProvisioningAction] = field(default_factory=list)

    @property
    def total_hours(self) -> float:
        """Total man-hours of the plan."""
        return sum(a.hours for a in self.actions)

    @property
    def installed_packages(self) -> list[str]:
        """Packages the plan actually installs (excludes preinstalled/config)."""
        return [
            a.name for a in self.actions if a.method not in ("preinstalled", "config")
        ]

    def by_method(self) -> dict[str, list[str]]:
        """Group action names by install method (the Table I cell colors)."""
        out: dict[str, list[str]] = {}
        for a in self.actions:
            out.setdefault(a.method, []).append(a.name)
        return out

    def __str__(self) -> str:
        lines = [f"Provisioning plan for {self.platform} "
                 f"({self.total_hours:.1f} man-hours):"]
        lines += [f"  {a}" for a in self.actions]
        return "\n".join(lines)


# EC2-specific preparation the paper describes in §VI.D.
_CLOUD_CONFIG_ACTIONS = (
    ProvisioningAction(
        "system-update", "config", 0.5, "yum update of the obsolete CentOS image"
    ),
    ProvisioningAction(
        "ssh-keys", "config", 0.5,
        "pre-generate and store host keys for mpiexec mutual authentication",
    ),
    ProvisioningAction(
        "security-group", "config", 0.25,
        "open all intranet TCP ports for MPI intercommunication",
    ),
    ProvisioningAction(
        "boot-volume-resize", "config", 0.5,
        "grow the 20 GB partition to stage the problem meshes",
    ),
    ProvisioningAction(
        "private-image", "config", 0.75,
        "snapshot the preconditioned instance as a reusable AMI",
    ),
)


def channel_available(platform: PlatformSpec, channel: str) -> bool:
    """Whether the platform offers an install channel.

    yum requires root (it writes to the system); module requires the
    administrators to have published modules; source always works (all
    four platforms at least had or could get a compiler).
    """
    if channel == "yum":
        return "yum" in platform.install_channels and platform.access == AccessMode.ROOT
    return channel in platform.install_channels


def plan_provisioning(platform: PlatformSpec) -> ProvisioningPlan:
    """Compute the provisioning plan that elevates ``platform`` to LifeV.

    Reproduces the §VI narratives:

    * puma — everything preinstalled, only the generic Makefile to use;
    * ellipse — source-build the whole stack minus compilers (~8 h);
    * lagrange — modules for MPI and MKL, source for the rest (~8 h);
    * ec2 — yum for toolchain/MPI, source for the scientific stack, plus
      the cloud-configuration actions (~a working day).
    """
    registry = lifev_stack_registry()
    plan = ProvisioningPlan(platform=platform.name)

    for name in registry.closure([LIFEV_TARGET]):
        pkg = registry.get(name)
        if name in platform.preinstalled:
            plan.actions.append(
                ProvisioningAction(name, "preinstalled", 0.0, pkg.note)
            )
            continue
        # Every package builds from source, and every platform can.
        channel = next(c for c in pkg.channels() if channel_available(platform, c))
        plan.actions.append(
            ProvisioningAction(name, channel, pkg.effort_hours[channel], pkg.note)
        )

    if platform.on_demand:
        plan.actions.extend(_CLOUD_CONFIG_ACTIONS)
    return plan


def deployment_gap(platform: PlatformSpec) -> list[str]:
    """The LifeV-stack packages missing on the platform (Table I's colored cells)."""
    return [
        name
        for name in lifev_stack_registry().closure([LIFEV_TARGET])
        if name not in platform.preinstalled
    ]
