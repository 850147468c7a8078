"""EC2 instance types: the cc2.8xlarge of §V.D.

Prices are the era's us-east-1 rates, the ones the paper's Table II
experiment ran under: $2.40/h on demand and about $0.54/h on the spot
market.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CloudError
from repro.network.model import LinkModel, TEN_GIGABIT_ETHERNET


@dataclass(frozen=True)
class InstanceType:
    """One EC2 resource class (what users pick when requesting chunks)."""

    name: str
    cores: int
    ram_gb: float
    network: LinkModel
    on_demand_hourly: float  # dollars per instance-hour
    typical_spot_hourly: float
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


CC2_8XLARGE = InstanceType(
    name="cc2.8xlarge", cores=16, ram_gb=60.5, network=TEN_GIGABIT_ETHERNET,
    on_demand_hourly=2.40, typical_spot_hourly=0.54, placement_groups=True,
)
