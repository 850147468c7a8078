"""Provisioning-script generation: the paper's stated future work.

§VIII: "Use of third party software to address mundane, repeatable
tasks (e.g. [doit]) or predefined images for IaaS could significantly
reduce this cost and will form the focus of our future work."  This
module is that automation: it turns a :class:`ProvisioningPlan` into an
executable shell script — module loads, yum installs, source builds
with the 2012 URLs/versions of §VI, and the EC2 configuration steps.
"""

from __future__ import annotations

import shlex

from repro.errors import ProvisioningError
from repro.platforms.provisioning import ProvisioningPlan
from repro.platforms.software import lifev_stack_registry
from repro.platforms.spec import PlatformSpec

# Source tarballs as §VI names them (versions from the paper).
_SOURCE_RECIPES: dict[str, list[str]] = {
    "gcc": ["# building GCC from source takes hours; yum it where possible"],
    "gfortran": ["# gfortran ships with the GCC build"],
    "make": ["./configure --prefix=$PREFIX && make && make install"],
    "autotools": [
        "for pkg in libtool-1.5.22 autoconf-2.59 automake-1.9.6; do",
        "  tar xzf $pkg.tar.gz && (cd $pkg && ./configure --prefix=$PREFIX && make install)",
        "done",
    ],
    "cmake": [
        "tar xzf cmake-2.8.0.tar.gz",
        "(cd cmake-2.8.0 && ./bootstrap --prefix=$PREFIX && make && make install)",
    ],
    "openmpi": [
        "tar xzf openmpi-1.4.4.tar.gz",
        "(cd openmpi-1.4.4 && ./configure --prefix=$PREFIX && make -j4 && make install)",
    ],
    "blas-lapack": [
        "tar xzf GotoBLAS2-1.13.tar.gz && (cd GotoBLAS2 && make && cp libgoto2.a $PREFIX/lib)",
        "tar xzf lapack-3.3.1.tgz && (cd lapack-3.3.1 && make blaslib lapacklib && cp *.a $PREFIX/lib)",
    ],
    "boost": [
        "tar xzf boost_1_47_0.tar.gz",
        "(cd boost_1_47_0 && ./bootstrap.sh --prefix=$PREFIX && ./bjam install)",
    ],
    "hdf5": [
        "tar xzf hdf5-1.8.7.tar.gz",
        "(cd hdf5-1.8.7 && CC=$PREFIX/bin/mpicc ./configure --prefix=$PREFIX \\",
        "   --enable-parallel --with-default-api-version=v16 && make && make install)",
        "# note: built with the 1.6 version interface for compatibility (§IV.D)",
    ],
    "parmetis": [
        "tar xzf ParMetis-3.1.1.tar.gz",
        "(cd ParMetis-3.1.1 && make CC=$PREFIX/bin/mpicc && cp lib*.a $PREFIX/lib)",
    ],
    "suitesparse": [
        "tar xzf SuiteSparse-3.6.1.tar.gz",
        "(cd SuiteSparse && make && cp -r lib/* $PREFIX/lib && cp -r include/* $PREFIX/include)",
    ],
    "trilinos": [
        "tar xzf trilinos-10.6.4-Source.tar.gz",
        "mkdir -p trilinos-build && cd trilinos-build",
        "$PREFIX/bin/cmake ../trilinos-10.6.4-Source \\",
        "  -DCMAKE_INSTALL_PREFIX=$PREFIX -DTPL_ENABLE_MPI=ON \\",
        "  -DTrilinos_ENABLE_Epetra=ON -DTrilinos_ENABLE_AztecOO=ON \\",
        "  -DTrilinos_ENABLE_Ifpack=ON -DTrilinos_ENABLE_ML=ON \\",
        "  -DTPL_ENABLE_ParMETIS=ON",
        "make -j4 && make install && cd ..",
    ],
    "lifev": [
        "tar xzf lifev-2.0.0.tar.gz",
        "(cd lifev-2.0.0 && ./configure --prefix=$PREFIX \\",
        "   --with-trilinos=$PREFIX --with-parmetis=$PREFIX --with-hdf5=$PREFIX \\",
        "   --with-boost=$PREFIX && make -j4 && make install)",
        "# then update the application Makefile against $PREFIX (§VI)",
    ],
}

_CONFIG_RECIPES: dict[str, list[str]] = {
    "system-update": ["yum update -y  # the image ships obsolete packages (§VI.D)"],
    "ssh-keys": [
        "ssh-keygen -t rsa -N '' -f ~/.ssh/id_rsa",
        "cat ~/.ssh/id_rsa.pub >> ~/.ssh/authorized_keys",
        "# bake host keys into the image so mpiexec can reach every copy",
    ],
    "security-group": [
        "ec2-authorize lifev-cluster -P tcp -p 0-65535 -o lifev-cluster",
        "# open all intranet TCP ports for MPI intercommunication (§VI.D)",
    ],
    "boot-volume-resize": [
        "ec2-modify-instance-attribute $INSTANCE --block-device-mapping /dev/sda1=:60",
        "resize2fs /dev/sda1  # stage the problem meshes on the boot volume",
    ],
    "private-image": [
        "ec2-create-image $INSTANCE --name lifev-cfd --no-reboot",
        "# copies of this image behave like cluster nodes (§VI.D)",
    ],
}


def provisioning_script(
    plan: ProvisioningPlan,
    platform: PlatformSpec,
) -> str:
    """Render an executable shell script for a provisioning plan.

    User-space platforms install under ``$HOME/sw``; root platforms (EC2)
    use yum where the plan says so.  Raises if the plan and platform
    disagree (a yum step on a user-space machine).
    """
    registry = lifev_stack_registry()
    lines = [
        "#!/bin/bash",
        "# Auto-generated provisioning script: "
        f"{platform.name} -> LifeV stack ({plan.total_hours:.1f} est. man-hours)",
        "set -euo pipefail",
        "export PREFIX=$HOME/sw",
        'mkdir -p "$PREFIX"/{bin,lib,include}',
        'export PATH="$PREFIX/bin:$PATH"',
        'export LD_LIBRARY_PATH="$PREFIX/lib:${LD_LIBRARY_PATH:-}"',
        "",
    ]
    for action in plan.actions:
        lines.append(f"# --- {action.name} ({action.method}) ---")
        if action.note:
            lines.append(f"# {action.note}")
        if action.method == "preinstalled":
            lines.append(f": # {action.name} already provided by the platform")
        elif action.method == "module":
            lines.append(f"module load {shlex.quote(action.name)}")
        elif action.method == "yum":
            if "yum" not in platform.install_channels:
                raise ProvisioningError(
                    f"plan wants yum for {action.name} but {platform.name} has no yum"
                )
            pkg = registry.get(action.name)
            lines.append(f"yum install -y {shlex.quote(action.name)}  # {pkg.version}")
        elif action.method == "source":
            recipe = _SOURCE_RECIPES.get(action.name)
            if recipe is None:
                raise ProvisioningError(f"no source recipe for {action.name!r}")
            lines.extend(recipe)
        elif action.method == "config":
            recipe = _CONFIG_RECIPES.get(action.name)
            if recipe is None:
                raise ProvisioningError(f"no config recipe for {action.name!r}")
            lines.extend(recipe)
        else:
            raise ProvisioningError(f"unknown action method {action.method!r}")
        lines.append("")
    lines.append('echo "provisioning complete: $PREFIX"')
    return "\n".join(lines) + "\n"
