"""Platform specification types (the schema of Table I)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import PlatformError
from repro.network.model import LinkModel
from repro.network.topology import ClusterTopology
from repro.network.model import NetworkModel


class AccessMode(enum.Enum):
    """How users reach the machine: unprivileged or root (EC2)."""

    USER_SPACE = "user space"
    ROOT = "root"


class SupportLevel(enum.Enum):
    """Administrative/user support available on the platform (Table I)."""

    FULL = "full"
    LIMITED = "limited"
    VERY_LIMITED = "very limited"
    NONE = "none"


@dataclass(frozen=True)
class CPUModel:
    """A processor model with a sustained per-core flop rate.

    ``sustained_gflops`` is the *effective* double-precision rate FEM
    kernels achieve (sparse, memory-bound — roughly 10-20% of peak); it
    feeds the performance model, so only ratios between platforms matter
    for reproducing the paper's orderings.
    """

    name: str
    architecture: str  # "Opteron" | "Xeon"
    clock_ghz: float
    cores: int  # per socket
    sustained_gflops: float

    def __post_init__(self) -> None:
        if self.clock_ghz <= 0 or self.cores < 1 or self.sustained_gflops <= 0:
            raise PlatformError(f"invalid CPU model parameters: {self}")


@dataclass(frozen=True)
class NodeSpec:
    """One compute node: sockets x CPU model, memory, scratch disk."""

    cpu: CPUModel
    sockets: int
    ram_per_core_gb: float
    scratch_gb: float

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise PlatformError(f"node needs at least one socket, got {self.sockets}")
        if self.ram_per_core_gb <= 0:
            raise PlatformError("ram_per_core_gb must be positive")

    @property
    def cores(self) -> int:
        """Total cores per node."""
        return self.sockets * self.cpu.cores


@dataclass(frozen=True)
class AvailabilityModel:
    """Queue-wait behaviour: how long until a job of a given size starts.

    ``base_wait_s`` is the fixed pre-run latency (provision/boot/prologue);
    ``mean_queue_wait_s`` scales with the requested fraction of the
    machine — asking for the whole of ellipse waits much longer than one
    node, while EC2's "queue" is just instance boot time regardless of
    size (until capacity runs out).
    """

    base_wait_s: float
    mean_queue_wait_s: float
    size_sensitivity: float = 1.0  # exponent on the requested fraction

    def expected_wait(self, requested_cores: int, total_cores: int) -> float:
        """Expected seconds from submission to job start."""
        if requested_cores < 1:
            raise PlatformError(f"requested_cores must be >= 1, got {requested_cores}")
        if requested_cores > total_cores:
            raise PlatformError(
                f"requested {requested_cores} cores of a {total_cores}-core machine"
            )
        fraction = requested_cores / total_cores
        return self.base_wait_s + self.mean_queue_wait_s * fraction**self.size_sensitivity


@dataclass(frozen=True)
class PlatformSpec:
    """A complete target platform: Table I row + performance parameters."""

    name: str
    description: str
    node: NodeSpec
    num_nodes: int
    interconnect: LinkModel
    scheduler_name: str  # "pbs" | "sge" | "shell"
    access: AccessMode
    support: SupportLevel
    has_build_env: bool
    compiler: str | None  # e.g. "GCC 4.3.4"; None = must be installed
    preinstalled: frozenset[str]
    install_channels: frozenset[str]  # {"module", "yum", "source"}
    storage_adequate: bool
    storage_note: str
    parallel_jobs_supported: bool
    cost_per_core_hour: float  # dollars; EC2 uses node-hour billing too
    charges_whole_nodes: bool
    availability: AvailabilityModel
    max_launch_ranks: int | None = None  # ellipse's mpiexec ceiling
    data_volume_cap_ranks: int | None = None  # lagrange's IB budget, in ranks
    on_demand: bool = False  # EC2: nodes materialize on request
    # Effective fabric-wide capacity under many-to-many MPI load
    # (bytes/s); None = unconstrained.  See NetworkModel.
    backplane_bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise PlatformError(f"{self.name}: num_nodes must be >= 1")
        if self.cost_per_core_hour < 0:
            raise PlatformError(f"{self.name}: negative cost")
        if "source" not in self.install_channels:
            raise PlatformError(
                f"{self.name}: every platform can at least build from source"
            )

    @property
    def cores_per_node(self) -> int:
        """Cores per node (Table I '# cpu/cores' product)."""
        return self.node.cores

    @property
    def total_cores(self) -> int:
        """Machine capacity in cores."""
        return self.num_nodes * self.node.cores

    def topology(self, num_nodes: int | None = None) -> ClusterTopology:
        """A simmpi/perfmodel topology for this platform.

        ``num_nodes`` overrides the node count for on-demand platforms
        (an EC2 "cluster" is exactly as many instances as were launched).
        """
        nodes = num_nodes if num_nodes is not None else self.num_nodes
        return ClusterTopology(
            nodes,
            self.cores_per_node,
            NetworkModel(
                self.interconnect, aggregate_backplane=self.backplane_bandwidth
            ),
        )

    def nodes_for_ranks(self, num_ranks: int) -> int:
        """Nodes needed to host ``num_ranks`` (block placement)."""
        return -(-num_ranks // self.cores_per_node)

    def core_flops(self) -> float:
        """Sustained flop/s of one core."""
        return self.node.cpu.sustained_gflops * 1e9
