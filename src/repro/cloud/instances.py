"""EC2 instance-type catalog (2012 offerings named in §V.D).

Prices are the era's us-east-1 rates; the cc2.8xlarge numbers are the
ones the paper's Table II experiment ran under: $2.40/h on demand and
about $0.54/h on the spot market.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CloudError
from repro.network.model import LinkModel, TEN_GIGABIT_ETHERNET

# The "slow network interconnections" of the small instances: shared,
# sub-gigabit, high-jitter virtual NICs.
_LOW_NET = LinkModel("low-ec2", latency=250e-6, bandwidth=60e6)


@dataclass(frozen=True)
class InstanceType:
    """One EC2 resource class (what users pick when requesting chunks)."""

    name: str
    cores: int
    ram_gb: float
    network: LinkModel
    on_demand_hourly: float  # dollars per instance-hour
    typical_spot_hourly: float
    bits: int = 64
    hvm: bool = True  # cluster instances require HVM virtualization
    placement_groups: bool = False  # network-aware allocation support

    def __post_init__(self) -> None:
        if self.cores < 1 or self.ram_gb <= 0:
            raise CloudError(f"invalid instance shape: {self}")
        if self.on_demand_hourly <= 0 or self.typical_spot_hourly <= 0:
            raise CloudError(f"invalid pricing: {self}")

    def core_hourly(self, spot: bool = False) -> float:
        """Per-core hourly price (the paper's 15 cents / 3.375 cents)."""
        price = self.typical_spot_hourly if spot else self.on_demand_hourly
        return price / self.cores


T1_MICRO = InstanceType(
    name="t1.micro", cores=1, ram_gb=0.613, network=_LOW_NET,
    on_demand_hourly=0.02, typical_spot_hourly=0.003, bits=32, hvm=False,
)
M1_SMALL = InstanceType(
    name="m1.small", cores=1, ram_gb=1.7, network=_LOW_NET,
    on_demand_hourly=0.08, typical_spot_hourly=0.026, bits=32, hvm=False,
)
CC1_4XLARGE = InstanceType(
    name="cc1.4xlarge", cores=8, ram_gb=23.0, network=TEN_GIGABIT_ETHERNET,
    on_demand_hourly=1.30, typical_spot_hourly=0.52, placement_groups=True,
)
CC2_8XLARGE = InstanceType(
    name="cc2.8xlarge", cores=16, ram_gb=60.5, network=TEN_GIGABIT_ETHERNET,
    on_demand_hourly=2.40, typical_spot_hourly=0.54, placement_groups=True,
)
