"""Amazon EC2 simulation (2012-era IaaS, §V.D and §VII.B of the paper).

Instance-type catalog (t1.micro through cc2.8xlarge), AMI preconditioning
persistence, placement groups with a network-distance model, a stochastic
spot market (including the observed impossibility of filling a 63-node
spot-only assembly), and a billing engine with whole-node hourly charging.
"""

from repro.cloud.instances import (
    InstanceType,
    T1_MICRO,
    M1_SMALL,
    CC1_4XLARGE,
    CC2_8XLARGE,
)
from repro.cloud.images import MachineImage, BASE_CENTOS_IMAGE, precondition_image
from repro.cloud.placement import PlacementGroup, PlacementMap
from repro.cloud.spot import SpotMarket, SpotRequestResult
from repro.cloud.billing import BillingEngine, InstanceBill
from repro.cloud.ec2 import EC2Service, Instance, CloudCluster

__all__ = [
    "InstanceType",
    "T1_MICRO",
    "M1_SMALL",
    "CC1_4XLARGE",
    "CC2_8XLARGE",
    "MachineImage",
    "BASE_CENTOS_IMAGE",
    "precondition_image",
    "PlacementGroup",
    "PlacementMap",
    "SpotMarket",
    "SpotRequestResult",
    "BillingEngine",
    "InstanceBill",
    "EC2Service",
    "Instance",
    "CloudCluster",
]
