"""Tests for provisioning-script generation (§VIII future work)."""

import pytest

from repro.errors import ProvisioningError
from repro.platforms.catalog import ec2_cc28xlarge, ellipse, lagrange, puma
from repro.platforms.provisioning import plan_provisioning
from repro.platforms.scripts import provisioning_script


def script_for(platform):
    return provisioning_script(plan_provisioning(platform), platform)


class TestScriptGeneration:
    def test_all_platforms_render(self):
        for platform in (puma, ellipse, lagrange, ec2_cc28xlarge):
            text = script_for(platform)
            assert text.startswith("#!/bin/bash")
            assert "set -euo pipefail" in text
            assert platform.name in text

    def test_puma_script_is_trivial(self):
        text = script_for(puma)
        assert "yum install" not in text
        assert "module load" not in text
        assert "tar xzf" not in text
        assert text.count("already provided") >= 10

    def test_ellipse_builds_everything_from_source(self):
        text = script_for(ellipse)
        for tarball in ("openmpi-1.4.4", "ParMetis-3.1.1", "hdf5-1.8.7",
                        "trilinos-10.6.4", "boost_1_47_0", "SuiteSparse-3.6.1"):
            assert tarball in text
        assert "yum install" not in text

    def test_lagrange_environment_provides_mpi_and_blas(self):
        """§VI.C: the administrators provided MPI and MKL; the rest is
        built from source against them."""
        text = script_for(lagrange)
        assert "openmpi already provided" in text
        assert "blas-lapack already provided" in text
        assert "trilinos-10.6.4" in text  # still a source build
        assert "boost_1_47_0" in text

    def test_ec2_yum_plus_cloud_config(self):
        text = script_for(ec2_cc28xlarge)
        assert "yum install -y gcc" in text
        assert "yum install -y openmpi" in text
        assert "./bootstrap --prefix=$PREFIX" in text  # cmake from source
        assert "ssh-keygen" in text
        assert "ec2-authorize" in text
        assert "ec2-create-image" in text
        assert "resize2fs" in text
        assert "yum update -y" in text

    def test_hdf5_built_with_16_interface(self):
        """§IV.D: HDF5 'has to be built with the 1.6 version interface'."""
        text = script_for(ellipse)
        assert "--with-default-api-version=v16" in text

    def test_dependency_order_respected(self):
        """MPI must be installed before the packages built against it."""
        text = script_for(ellipse)
        assert text.index("openmpi-1.4.4") < text.index("hdf5-1.8.7")
        assert text.index("openmpi-1.4.4") < text.index("ParMetis-3.1.1")
        assert text.index("trilinos-10.6.4") < text.index("lifev-2.0.0")

    def test_yum_on_userspace_platform_rejected(self):
        plan = plan_provisioning(ec2_cc28xlarge)
        with pytest.raises(ProvisioningError, match="no yum"):
            provisioning_script(plan, ellipse)

