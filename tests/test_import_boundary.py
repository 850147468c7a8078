"""The FEM stack loads only where an FEM point runs.

``repro`` and the subpackages with an ``_EXPORTS`` table export their
names lazily (PEP 562), so ``import repro``, the simulator, the broker,
the service client and the CLI bring in no ``scipy``, ``--help`` no
``numpy``, and an HTTP tenant none of the simulator; the names
themselves are the very objects their defining modules hold, and
``from repro import *`` binds the same names it always did.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import repro

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: ``repro.__all__`` as it was when every name was imported eagerly.
TOP_LEVEL = {
    "ReproError", "RDProblem", "RDSolver", "NSProblem", "NSSolver",
    "deploy_and_run", "all_platforms", "platform_by_name", "puma", "ellipse",
    "lagrange", "ec2_cc28xlarge", "RunConfig", "ResilienceParams",
    "RunRequest", "RunResult", "run", "artifact_names", "AssemblyPlan",
    "BrokerReport", "BrokerRequest", "broker_assemblies",
    "section_7d_request", "AdmissionPolicy", "BrokerService",
    "ServiceClient", "ServiceConfig", "TenantQuota", "__version__",
}
#: The subpackages that keep an ``_EXPORTS`` table; which names it lists
#: is ``tests/test_public_surface.py``'s to check.
TABLES = [
    package for package in (
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
    ) if "_EXPORTS" in vars(package)
]

PROBE = """
import sys
import repro, repro.simmpi, repro.service.client, repro.broker.registry
import repro.__main__
print("scipy" in sys.modules)
repro.run(artifacts=("fig4", "table2"), use_cache=False)
print("scipy" in sys.modules)
"""


def test_no_scipy_on_the_simulator_broker_service_and_cli_paths(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_the_cli_help_loads_no_numpy(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC)}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "repro.cli" in imported
    assert not {name for name in imported if name.split(".")[0] == "numpy"}


#: The ``repro`` modules ``import repro.service.client`` loads: the
#: package, ``_lazy``, ``errors``, ``store``, the ``harness``, ``obs``,
#: ``service`` and ``simmpi`` packages, ``harness.config``, ``obs.core``
#: / ``metrics`` / ``spans``, ``simmpi.tracing``, and the service's
#: ``client``, ``httpd`` and ``jobs``.
CLIENT_MODULES = 16


def test_an_http_tenant_loads_no_simulator(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.service.client; print(*sorted(sys.modules))"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    ours = [name for name in loaded if name.split(".")[0] == "repro"]
    assert "repro.service.client" in ours
    assert not [name for name in loaded if name.split(".")[0] == "numpy"]
    assert "repro.simmpi.events" not in ours
    assert not [name for name in ours if name.startswith("repro.broker")]
    assert len(ours) <= CLIENT_MODULES, ours


#: The ``repro`` modules ``import repro.simmpi.launcher`` loads: the
#: package, ``_lazy``, ``errors``, ``store``, ``units``, the ``network``
#: package with ``contention`` / ``model`` / ``topology``, the ``obs``
#: package with ``core`` / ``metrics`` / ``spans``, and the ``simmpi``
#: package with ``clock``, ``collectives``, ``comm``, ``datatypes``,
#: ``events``, ``launcher``, ``recording``, ``selector`` and ``tracing``.
LAUNCHER_MODULES = 23


def test_a_launch_loads_no_reference_engine(tmp_path):
    """The thread-per-rank reference is imported only by
    ``run_spmd(engine="threads")``, never by the launch path itself."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.simmpi.launcher; print(*sorted(sys.modules))"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ours = [name for name in proc.stdout.split() if name.split(".")[0] == "repro"]
    assert "repro.simmpi.launcher" in ours
    assert "repro.simmpi.transport" not in ours
    assert len(ours) <= LAUNCHER_MODULES, ours


@pytest.mark.parametrize("package, names", [(repro, TOP_LEVEL)] + [
    pytest.param(package, None, id=package.__name__) for package in TABLES])
def test_every_export_is_its_defining_modules_object(package, names):
    if names is not None:
        assert set(package.__all__) == names
    for module, exported in package._EXPORTS.items():
        home = importlib.import_module(module)
        for name in exported:
            value = getattr(package, name)
            assert value is vars(home)[name], name
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == module, name
            assert vars(package)[name] is value  # resolved once, cached


@pytest.mark.parametrize("package, names", [(repro, TOP_LEVEL)])
def test_star_import_dir_and_unknown_names(package, names):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(namespace) - {"__builtins__"} == names
    assert set(dir(package)) >= names
    with pytest.raises(AttributeError, match="nope"):
        package.nope
