"""Machine images (AMIs) and preconditioning persistence.

§VI.D: the authors started from the bare *EC2 CentOS 5.4 HVM* image
(ami-7ea24a17), installed the toolchain and the scientific stack, grew
the 20 GB boot partition for the meshes, and snapshotted the result as a
private image whose copies behave like cluster nodes.  This module
models exactly that lifecycle so deployment cost is paid once per image,
not once per instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from repro.errors import CloudError

_image_counter = itertools.count(1)


@dataclass(frozen=True)
class MachineImage:
    """An AMI: operating system, installed packages, boot volume size."""

    image_id: str
    name: str
    os: str
    packages: frozenset[str] = field(default_factory=frozenset)
    boot_volume_gb: float = 20.0
    hvm: bool = True
    private: bool = False

    def __post_init__(self) -> None:
        if self.boot_volume_gb <= 0:
            raise CloudError(f"boot volume must be positive, got {self.boot_volume_gb}")


BASE_CENTOS_IMAGE = MachineImage(
    image_id="ami-7ea24a17",
    name="EC2 CentOS 5.4 HVM",
    os="CentOS 5.4",
    packages=frozenset(),  # "only the essential packages" (§VI.D)
    boot_volume_gb=20.0,
    hvm=True,
    private=False,
)


def precondition_image(
    base: MachineImage,
    install_packages: set[str],
    grow_boot_volume_gb: float = 0.0,
    name: str | None = None,
) -> MachineImage:
    """Create a private image with packages installed and volume grown.

    The returned image is what subsequent instance launches use —
    "on-demand hosts behave like cluster nodes" without repeating the
    provisioning.
    """
    if grow_boot_volume_gb < 0:
        raise CloudError("cannot shrink the boot volume")
    new_id = f"ami-private-{next(_image_counter):04d}"
    return replace(
        base,
        image_id=new_id,
        name=name or f"{base.name} (preconditioned)",
        packages=base.packages | frozenset(install_packages),
        boot_volume_gb=base.boot_volume_gb + grow_boot_volume_gb,
        private=True,
    )
