"""Tests for the software registry and provisioning planner (§VI)."""

import pytest

from repro.errors import ProvisioningError
from repro.platforms.software import (
    LIFEV_TARGET,
    Package,
    PackageRegistry,
    lifev_stack_registry,
)
from repro.platforms.catalog import ec2_cc28xlarge, ellipse, lagrange, puma
from repro.platforms.provisioning import (
    channel_available,
    deployment_gap,
    plan_provisioning,
)


@pytest.fixture(scope="module")
def registry():
    return lifev_stack_registry()


class TestRegistry:
    def test_contains_full_paper_stack(self, registry):
        for name in ("gcc", "openmpi", "blas-lapack", "boost", "hdf5",
                     "parmetis", "suitesparse", "trilinos", "lifev", "cmake"):
            assert name in registry

    def test_closure_is_topological(self, registry):
        order = registry.closure([LIFEV_TARGET])
        pos = {name: i for i, name in enumerate(order)}
        for name in order:
            for dep in registry.get(name).depends:
                assert pos[dep] < pos[name], f"{dep} must precede {name}"

    def test_closure_ends_with_target(self, registry):
        assert registry.closure([LIFEV_TARGET])[-1] == LIFEV_TARGET

    def test_trilinos_requires_the_support_stack(self, registry):
        deps = set(registry.get("trilinos").depends)
        assert {"openmpi", "blas-lapack", "parmetis", "suitesparse"} <= deps

    def test_unknown_package(self, registry):
        with pytest.raises(ProvisioningError):
            registry.get("petsc")

    def test_duplicate_rejected(self):
        pkg = Package("x", "1", "tool", effort_hours={"source": 1})
        with pytest.raises(ProvisioningError):
            PackageRegistry([pkg, pkg])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ProvisioningError):
            PackageRegistry([Package("x", "1", "tool", depends=("ghost",),
                                     effort_hours={"source": 1})])

    def test_cycle_detection(self):
        a = Package("a", "1", "tool", depends=("b",), effort_hours={"source": 1})
        b = Package("b", "1", "tool", depends=("a",), effort_hours={"source": 1})
        reg = PackageRegistry([a, b])
        with pytest.raises(ProvisioningError, match="cycle"):
            reg.closure(["a"])

    def test_cmake_has_no_yum_channel(self, registry):
        """§VI.D: CMake 2.8 was not in the repos — source even on EC2."""
        assert registry.get("cmake").channels() == ("source",)


class TestChannelAvailability:
    def test_yum_requires_root(self):
        assert channel_available(ec2_cc28xlarge, "yum")
        assert not channel_available(ellipse, "yum")
        assert not channel_available(lagrange, "yum")

    def test_modules_only_on_lagrange(self):
        assert channel_available(lagrange, "module")
        assert not channel_available(ellipse, "module")
        assert not channel_available(ec2_cc28xlarge, "module")

    def test_source_everywhere(self):
        for p in (puma, ellipse, lagrange, ec2_cc28xlarge):
            assert channel_available(p, "source")


class TestPlans:
    def test_puma_needs_nothing(self):
        """§VI.A: puma fully sustains the build; zero install effort."""
        plan = plan_provisioning(puma)
        assert plan.total_hours == 0.0
        assert plan.installed_packages == []
        assert all(a.method == "preinstalled" for a in plan.actions)

    def test_ellipse_source_builds_the_stack(self):
        """§VI.B: compilers present, everything else built from source;
        about 8 man-hours."""
        plan = plan_provisioning(ellipse)
        methods = plan.by_method()
        assert "yum" not in methods
        assert "module" not in methods
        installed = set(plan.installed_packages)
        assert {"openmpi", "parmetis", "hdf5", "trilinos", "suitesparse",
                "boost", "blas-lapack", "lifev"} <= installed
        assert 6.0 <= plan.total_hours <= 10.0

    def test_lagrange_uses_modules(self):
        """§VI.C: MPI and MKL from the environment, rest from source;
        about 8 man-hours."""
        plan = plan_provisioning(lagrange)
        assert set(plan.installed_packages) >= {"boost", "suitesparse", "hdf5",
                                                "parmetis", "trilinos", "lifev"}
        preinstalled = {a.name for a in plan.actions if a.method == "preinstalled"}
        assert {"openmpi", "blas-lapack"} <= preinstalled
        assert 5.0 <= plan.total_hours <= 10.0

    def test_ec2_yum_plus_source_plus_cloud_config(self):
        """§VI.D: toolchain via yum, scientific stack from source, plus
        ssh keys, security group, volume resize, image snapshot — about
        a working day in total."""
        plan = plan_provisioning(ec2_cc28xlarge)
        methods = plan.by_method()
        assert "gcc" in methods["yum"]
        assert "openmpi" in methods["yum"]
        assert "cmake" in methods["source"]
        assert "trilinos" in methods["source"]
        config_names = set(methods["config"])
        assert {"ssh-keys", "security-group", "boot-volume-resize",
                "private-image", "system-update"} <= config_names
        assert 8.0 <= plan.total_hours <= 14.0

    def test_effort_ordering_matches_narrative(self):
        """puma < lagrange <= ellipse < ec2 in preparation effort."""
        efforts = {
            p.name: plan_provisioning(p).total_hours
            for p in (puma, ellipse, lagrange, ec2_cc28xlarge)
        }
        assert efforts["puma"] == 0.0
        assert efforts["lagrange"] <= efforts["ellipse"]
        assert efforts["ellipse"] < efforts["ec2"]

    def test_plan_renders(self):
        text = str(plan_provisioning(ellipse))
        assert "ellipse" in text
        assert "trilinos" in text

    def test_deployment_gap(self):
        assert deployment_gap(puma) == []
        gap = deployment_gap(ec2_cc28xlarge)
        assert "gcc" in gap and "lifev" in gap

    def test_source_alone_resolves_the_stack(self):
        """Every package builds from source, which every platform offers."""
        from dataclasses import replace

        crippled = replace(
            ellipse,
            name="crippled",
            preinstalled=frozenset(),
            install_channels=frozenset({"source"}),
        )
        plan = plan_provisioning(crippled)
        assert {a.method for a in plan.actions} == {"source"}
        assert plan.total_hours > 8.0
