"""The LifeV software stack as a dependency graph (§IV.D of the paper).

Every package the paper lists — compilers, deployment tools, MPI, BLAS
flavors, Boost, HDF5 (1.6-interface build), ParMETIS, SuiteSparse,
Trilinos and LifeV itself — with its dependencies and the effort (in
man-hours) each installation channel costs.  The provisioning planner
walks this graph against a platform's capability matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProvisioningError

# Installation channels in preference order (cheapest effort first).
CHANNEL_PREFERENCE = ("module", "yum", "source")


@dataclass(frozen=True)
class Package:
    """One installable unit of the stack.

    ``effort_hours`` maps channel -> man-hours for an experienced LifeV
    developer (the paper's §VI yardstick); a missing channel means the
    package cannot be obtained that way (e.g. Trilinos has no yum
    package on 2012 CentOS).
    """

    name: str
    version: str
    kind: str  # "compiler" | "tool" | "mpi" | "library" | "application"
    depends: tuple[str, ...] = ()
    effort_hours: dict[str, float] = field(default_factory=dict)
    note: str = ""

    def channels(self) -> tuple[str, ...]:
        """Channels this package supports, in preference order."""
        return tuple(c for c in CHANNEL_PREFERENCE if c in self.effort_hours)


class PackageRegistry:
    """A name -> Package map with dependency-closure queries."""

    def __init__(self, packages: list[Package]):
        self._packages: dict[str, Package] = {}
        for pkg in packages:
            if pkg.name in self._packages:
                raise ProvisioningError(f"duplicate package {pkg.name!r}")
            self._packages[pkg.name] = pkg
        for pkg in packages:
            for dep in pkg.depends:
                if dep not in self._packages:
                    raise ProvisioningError(
                        f"package {pkg.name!r} depends on unknown {dep!r}"
                    )

    def __contains__(self, name: str) -> bool:
        return name in self._packages

    def get(self, name: str) -> Package:
        """Look a package up by name."""
        try:
            return self._packages[name]
        except KeyError:
            raise ProvisioningError(f"unknown package {name!r}") from None

    def closure(self, targets: list[str]) -> list[str]:
        """Topologically ordered dependency closure of ``targets``.

        Dependencies come before dependents; raises on cycles.
        """
        order: list[str] = []
        state: dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(name: str, chain: tuple[str, ...]) -> None:
            if state.get(name) == 1:
                return
            if state.get(name) == 0:
                raise ProvisioningError(
                    f"dependency cycle: {' -> '.join(chain + (name,))}"
                )
            state[name] = 0
            for dep in self.get(name).depends:
                visit(dep, chain + (name,))
            state[name] = 1
            order.append(name)

        for target in targets:
            visit(target, ())
        return order


# ---------------------------------------------------------------------------
# The actual stack (§IV.D, §VI)
# ---------------------------------------------------------------------------

LIFEV_TARGET = "lifev"


def lifev_stack_registry() -> PackageRegistry:
    """The paper's complete dependency stack with §VI effort estimates.

    Source-build hours are tuned so the planner reproduces the reported
    efforts: ~8 man-hours each on ellipse and lagrange, and roughly a
    working day on EC2 once the cloud-specific actions are added.
    """
    return PackageRegistry(
        [
            Package(
                "gcc", "4.x", "compiler",
                effort_hours={"yum": 0.1, "source": 4.0},
                note="GCC 4 or above required",
            ),
            Package(
                "gfortran", "4.x", "compiler", depends=("gcc",),
                effort_hours={"yum": 0.1, "source": 1.0},
                note="optional Fortran compiler, needed for BLAS/LAPACK source builds",
            ),
            Package(
                "make", "3.x", "tool",
                effort_hours={"yum": 0.05, "source": 0.5},
            ),
            Package(
                "autotools", "2.59/1.9.6", "tool", depends=("make",),
                effort_hours={"yum": 0.1, "source": 0.5},
                note="libtool 1.5.22 with autoconf 2.59, automake 1.9.6 on EC2",
            ),
            Package(
                "cmake", "2.8", "tool", depends=("make",),
                effort_hours={"source": 0.5},
                note="2.8 not in 2012 CentOS repos: source install even on EC2 (§VI.D)",
            ),
            Package(
                "openmpi", "1.4.4", "mpi", depends=("gcc",),
                effort_hours={"module": 0.05, "yum": 0.1, "source": 0.75},
            ),
            Package(
                "blas-lapack", "ACML 4.0.1 / MKL / GotoBLAS2 1.13 + LAPACK 3.3.1",
                "library", depends=("gfortran",),
                effort_hours={"module": 0.05, "source": 1.5},
                note="CPU-vendor implementation preferred (ACML on Opterons, MKL on Xeons)",
            ),
            Package(
                "boost", "1.47", "library", depends=("gcc",),
                effort_hours={"source": 1.0},
                note="smart pointers for memory management",
            ),
            Package(
                "hdf5", "1.8.7", "library", depends=("openmpi",),
                effort_hours={"source": 0.5},
                note="must be built with the 1.6 version interface",
            ),
            Package(
                "parmetis", "3.1.1", "library", depends=("openmpi",),
                effort_hours={"source": 0.5},
                note="mesh partitioning",
            ),
            Package(
                "suitesparse", "3.6.1", "library", depends=("blas-lapack",),
                effort_hours={"source": 0.5},
                note="support library extending Trilinos",
            ),
            Package(
                "trilinos", "10.6.4", "library",
                depends=("openmpi", "blas-lapack", "parmetis", "suitesparse", "cmake"),
                effort_hours={"source": 2.5},
                note="distributed data structures and solvers",
            ),
            Package(
                LIFEV_TARGET, "2.0.0", "application",
                depends=("trilinos", "parmetis", "hdf5", "boost", "autotools"),
                effort_hours={"source": 1.5},
                note="the FEM library itself + updating the application Makefile",
            ),
        ]
    )
