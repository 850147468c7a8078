"""The FEM stack loads only where an FEM point runs.

``repro`` and ``repro.apps`` export their names lazily (PEP 562), so
``import repro``, the simulator, the broker, the service client and the
CLI bring in no ``scipy``; the names themselves are the very objects
their defining modules hold, and ``from repro import *`` binds the same
names it always did.
"""

import importlib
import os
import subprocess
import sys
import types

import pytest

import repro
import repro.apps

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
APPS = {
    "RDManufacturedSolution", "EthierSteinmanSolution", "PhaseClock",
    "IterationPhases", "PhaseLog", "RDProblem", "RDSolver",
    "run_rd_distributed", "NSProblem", "NSSolver", "AppWorkload",
    "RD_WORKLOAD", "NS_WORKLOAD",
}

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


@pytest.mark.parametrize("package, names", [(repro, TOP_LEVEL),
                                            (repro.apps, APPS)])
def test_every_export_is_its_defining_modules_object(package, names):
    assert set(package.__all__) == names
    for module, exported in package._EXPORTS.items():
        home = importlib.import_module(module)
        for name in exported:
            value = getattr(package, name)
            assert value is vars(home)[name], name
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == module, name
            assert vars(package)[name] is value  # resolved once, cached


@pytest.mark.parametrize("package, names", [(repro, TOP_LEVEL),
                                            (repro.apps, APPS)])
def test_star_import_dir_and_unknown_names(package, names):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(namespace) - {"__builtins__"} == names
    assert set(dir(package)) >= names
    with pytest.raises(AttributeError, match="nope"):
        package.nope
