"""Amazon EC2 simulation (2012-era IaaS, §V.D and §VII.B of the paper).

The cc2.8xlarge instance type, AMI preconditioning
persistence, placement groups with a network-distance model, a stochastic
spot market (including the observed impossibility of filling a 63-node
spot-only assembly), and a billing engine with whole-node hourly charging.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.cloud.instances": ("CC2_8XLARGE",),
    "repro.cloud.images": ("BASE_CENTOS_IMAGE", "precondition_image"),
    "repro.cloud.spot": ("SpotMarket",),
    "repro.cloud.ec2": ("EC2Service",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
