"""EC2 billing: whole-instance hourly charging.

"Amazon charges the users for the entire machine" (§VII.D) — a 1-rank
job on a 16-core cc2.8xlarge pays all 16 cores, which is why the EC2
cost curves in Figures 6-7 sit high at 1 and 8 processes.  2012 billing
rounded usage up to whole instance-hours; the paper's per-iteration
tables divide linearly, so both conventions are offered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import BillingError
from repro.cloud.instances import InstanceType
from repro.units import HOUR


@dataclass
class InstanceBill:
    """Accrued usage for one instance."""

    instance_id: str
    instance_type: InstanceType
    hourly_price: float
    running_s: float = 0.0
    stopped: bool = False

    def accrue(self, seconds: float) -> None:
        """Add running time."""
        if self.stopped:
            raise BillingError(f"{self.instance_id}: cannot accrue after stop")
        if seconds < 0:
            raise BillingError(f"negative usage {seconds}")
        self.running_s += seconds

    def stop(self) -> None:
        """Terminate the instance (idempotent stop is an error)."""
        if self.stopped:
            raise BillingError(f"{self.instance_id}: double stop")
        self.stopped = True

    def cost(self, round_up_hours: bool = False) -> float:
        """Dollar cost of the accrued usage."""
        hours = self.running_s / HOUR
        if round_up_hours:
            hours = float(math.ceil(hours)) if hours > 0 else 0.0
        return hours * self.hourly_price


@dataclass
class BillingEngine:
    """Account-level aggregation of instance bills."""

    bills: dict[str, InstanceBill] = field(default_factory=dict)

    def open_bill(
        self, instance_id: str, instance_type: InstanceType, hourly_price: float
    ) -> InstanceBill:
        """Start billing a new instance."""
        if instance_id in self.bills:
            raise BillingError(f"instance {instance_id} already billed")
        if hourly_price < 0:
            raise BillingError(f"negative price {hourly_price}")
        bill = InstanceBill(instance_id, instance_type, hourly_price)
        self.bills[instance_id] = bill
        return bill

    def accrue_all(self, seconds: float) -> None:
        """Add running time to every live instance (a cluster-wide run)."""
        for bill in self.bills.values():
            if not bill.stopped:
                bill.accrue(seconds)

    def stop_all(self) -> None:
        """Terminate every live instance."""
        for bill in self.bills.values():
            if not bill.stopped:
                bill.stop()

    def total_cost(self) -> float:
        """Total dollars across all instances, billed per second."""
        return sum(b.cost() for b in self.bills.values())

    def live_count(self) -> int:
        """Number of still-running instances."""
        return sum(1 for b in self.bills.values() if not b.stopped)
