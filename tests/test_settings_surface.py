"""Every setting under ``src/repro`` is supplied by some call, or has a reason.

A *setting* is

* a parameter with a default of a function, method or constructor defined
  at module or class level under ``src/repro`` (``self`` / ``cls`` and
  dunder methods other than ``__init__`` excluded), or
* a defaulted field of a ``@dataclass(frozen=True)`` class.  The defaulted
  fields of a mutable dataclass are accumulators, not settings.

A setting is *passed* when some call under ``src/``, ``benchmarks/``,
``examples/`` or ``tools/`` supplies it: by keyword, by position, through
``dataclasses.replace(..., name=...)``, or through a ``*`` / ``**`` splat
to that callee.  Calls resolve by the callee's name (``f(...)``,
``obj.f(...)``, ``(f if x else g)(...)``), through local aliases (``make =
A if x else B``, ``from m import A as B``), and a constructor is reached by
calls of the class, of any subclass, ``cls(...)`` / ``type(self)(...)``
inside the class and ``super().__init__(...)`` inside a subclass.

Tests are not callers.  A setting earns its place when two callers other
than tests need different values; one that only a test turns is a
constant in every run that matters.  Make such a setting a constant, or
give it a ``KEEP`` entry saying why it stays.  An entry whose setting is
now passed (or gone) must leave ``KEEP``.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from tests.source_tree import tree

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "tools")

_SEAM = "the seam a test substitutes a fake or a fast path through"
_WIRE = "a field a peer's HTTP request sets (RunRequest.from_json)"
_PUBLIC = "a parameter of a name tests/test_public_surface.py keeps"
_P2P = "MPI surface the p2p conformance workload drives (ROADMAP 7)"
_REPLAY = "mirrors run_spmd's parameter on the replay path"
_FAULTS = "the fault-injection vocabulary a FaultPlan is written in"
_FEM_CHECK = "a correctness measurement the FEM tests verify with"

#: Settings no non-test call supplies, each with the reason it stays.
#: Keys are dotted paths below ``repro``: ``module.function.param``,
#: ``module.Class.method.param`` or ``module.Class.field``.
KEEP: dict[str, str] = {
    "__main__.main.argv": _SEAM + " (a command line)",
    "broker.cache.recording_key.fingerprint": _SEAM + " (a code fingerprint)",
    "io.checkpoint.write_checkpoint.chunk_elements": (
        _SEAM + " (small chunks, to test chunked writes)"
    ),
    "obs.core.Observability.wall_view.now": _SEAM + " (a fake clock)",
    "resilience.runner.ResilientRunner.__init__.real_timeout": (
        _SEAM + " (a short watchdog)"
    ),
    "service.admission.AdmissionController.__init__.clock": (
        _SEAM + " (a fake clock)"
    ),
    "service.jobs.Job.__init__.clock": _SEAM + " (a fake clock)",
    "service.service.BrokerService.__init__.hub": (
        _SEAM + " (an observability hub it can read back)"
    ),
    "service.service.BrokerService.__init__.run_fn": _SEAM + " (a stub job)",
    "harness.config.ResilienceParams.checkpoint_dir": _WIRE,
    "harness.config.ResilienceParams.num_ranks": _WIRE,
    "harness.config.ResilienceParams.num_steps": _WIRE,
    "harness.config.ResilienceParams.spike_probability": _WIRE,
    "harness.config.RunConfig.resilience": _WIRE,
    "service.client.ServiceClient.__init__.request_timeout_s": (
        "a deployment's timeout, which depends on its network"
    ),
    "la.krylov.gmres.maxiter": _PUBLIC,
    "la.krylov.gmres.preconditioner": _PUBLIC,
    "la.krylov.gmres.restart": _PUBLIC,
    "la.krylov.gmres.strict": _PUBLIC,
    "la.krylov.gmres.tol": _PUBLIC,
    "perfmodel.calibration.calibrate_against_sequential_run.mesh_per_dim": _PUBLIC,
    "perfmodel.calibration.calibrate_against_sequential_run.num_steps": _PUBLIC,
    "perfmodel.calibration.calibrate_iteration_growth.mesh_per_dim": _PUBLIC,
    "perfmodel.calibration.calibrate_iteration_growth.rank_counts": _PUBLIC,
    "perfmodel.compute.ns_modeled_compute.rate": _PUBLIC,
    "apps.navier_stokes.run_ns_distributed.compute_charger": _PUBLIC,
    "apps.navier_stokes.run_ns_distributed.cpu_speed_factor": _PUBLIC,
    "apps.navier_stokes.run_ns_distributed.discard": _PUBLIC,
    "apps.navier_stokes.run_ns_distributed.tol": _PUBLIC,
    "simmpi.comm.Communicator.isend.tag": _P2P,
    "simmpi.comm.Communicator.irecv.source": _P2P,
    "simmpi.comm.Communicator.irecv.tag": _P2P,
    "simmpi.comm.Communicator.probe.source": _P2P,
    "simmpi.comm.Communicator.probe.tag": _P2P,
    "simmpi.comm.Communicator.iprobe.source": _P2P,
    "simmpi.comm.Communicator.iprobe.tag": _P2P,
    "simmpi.comm.Communicator.allreduce.algorithm": (
        "forces one of the schedules 'auto' picks among, which ROADMAP 1 "
        "prices against the selector"
    ),
    "simmpi.replay.replay_schedule.causal": _REPLAY,
    "simmpi.replay.replay_schedule.engine": _REPLAY,
    "simmpi.replay.replay_schedule.trace": _REPLAY,
    "resilience.faults.FaultEvent.after_ops": _FAULTS,
    "resilience.faults.FaultEvent.at_phase": _FAULTS,
    "resilience.faults.FaultEvent.count": _FAULTS,
    "resilience.faults.FaultEvent.delay_seconds": _FAULTS,
    "resilience.faults.FaultEvent.occurrence": _FAULTS,
    "apps.reaction_diffusion.RDProblem.bdf_order": _FEM_CHECK + " (BDF order)",
    "apps.reaction_diffusion.RDProblem.order": _FEM_CHECK + " (Q1 vs Q2)",
    "partition.graph.partition_graph.refine_passes": (
        "the test that KL refinement lowers the cut compares 0 passes with 6"
    ),
    "perfmodel.phases.PhaseModel.__init__.fused_solver": (
        "prices the fused CG both apps run, which ROADMAP 2 makes every "
        "model's price"
    ),
}


@dataclass
class _Callable:
    """A definition whose settings the census tracks."""

    names: set[str]
    #: Parameter names in positional order, after ``self`` / ``cls``.
    positional: list[str]
    #: ``{param: dotted setting}`` for each defaulted parameter or field.
    settings: dict[str, str] = field(default_factory=dict)


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _decorator_names(node) -> set[str]:
    names = set()
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(deco, ast.Call)
        and getattr(deco.func, "id", getattr(deco.func, "attr", None)) == "dataclass"
        and any(
            kw.arg == "frozen" and getattr(kw.value, "value", False) is True
            for kw in deco.keywords
        )
        for deco in node.decorator_list
    )


def _dataclass_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """``(name, has a default)`` per init field of a dataclass body."""
    fields = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field"
        ):
            if any(
                kw.arg == "init" and getattr(kw.value, "value", True) is False
                for kw in value.keywords
            ):
                continue
            has_default = any(
                kw.arg in ("default", "default_factory") for kw in value.keywords
            )
        else:
            has_default = value is not None
        fields.append((item.target.id, has_default))
    return fields


def _function(node, prefix: str, names: set[str], method: bool) -> _Callable:
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if method and "staticmethod" not in _decorator_names(node) and positional:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [
        a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return _Callable(
        names, positional, {name: f"{prefix}.{name}" for name in defaulted}
    )


def definitions(src: Path | None = None) -> tuple[list[_Callable], dict[str, set[str]]]:
    """Every tracked definition, and ``{class: the names of its bases}``."""
    src = src or SRC
    found: list[_Callable] = []
    bases: dict[str, set[str]] = defaultdict(set)
    dataclass_fields: dict[str, list[tuple[str, bool]]] = {}
    constructors: list[tuple[str, str | None, _Callable]] = []

    def visit_class(node: ast.ClassDef, prefix: str) -> None:
        dotted = f"{prefix}.{node.name}"
        for base in node.bases:
            base_name = getattr(base, "id", getattr(base, "attr", None))
            if base_name:
                bases[node.name].add(base_name)
        if _is_frozen_dataclass(node):
            dataclass_fields[node.name] = _dataclass_fields(node)
            constructors.append((node.name, dotted, _Callable(set(), [])))
        for item in node.body:
            if isinstance(item, ast.ClassDef):
                visit_class(item, dotted)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name == "__init__":
                    constructors.append(
                        (node.name, None,
                         _function(item, f"{dotted}.__init__", set(), True))
                    )
                elif not (item.name.startswith("__") and item.name.endswith("__")):
                    found.append(
                        _function(item, f"{dotted}.{item.name}", {item.name}, True)
                    )

    for path in sorted(src.rglob("*.py")):
        module = _module_name(path) if src == SRC else path.stem
        for node in tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(_function(node, f"{module}.{node.name}", {node.name}, False))
            elif isinstance(node, ast.ClassDef):
                visit_class(node, module)

    def subclasses(name: str) -> set[str]:
        family, frontier = {name}, {name}
        while frontier:
            frontier = {
                child for child, parents in bases.items()
                if parents & frontier and child not in family
            }
            family |= frontier
        return family

    for cls, dotted, spec in constructors:
        spec.names = {f"{name}()" for name in subclasses(cls)}
        if dotted is not None:
            # A frozen dataclass: inherited dataclass fields come first.
            lineage, current = [], cls
            while current in dataclass_fields:
                lineage.append(current)
                current = next(
                    (b for b in bases.get(current, ()) if b in dataclass_fields), None
                )
            ordered = [f for name in reversed(lineage) for f in dataclass_fields[name]]
            spec.positional = [name for name, _ in ordered]
            spec.settings = {
                name: f"{dotted}.{name}"
                for name, has_default in dataclass_fields[cls]
                if has_default
            }
            spec.names.add("replace()")
        found.append(spec)
    return found, bases


@dataclass
class _Call:
    """What one call site supplies to the callee it names."""

    name: str
    positional: int
    keywords: frozenset[str]
    splat: bool


def _simple_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _referenced(node) -> set[str]:
    """Callable names a value expression may evaluate to."""
    name = _simple_name(node)
    if name is not None:
        return {name}
    if isinstance(node, ast.IfExp):
        return _referenced(node.body) | _referenced(node.orelse)
    if isinstance(node, ast.BoolOp):
        return set().union(*(_referenced(v) for v in node.values))
    if isinstance(node, ast.Subscript):
        return _referenced(node.value)
    if isinstance(node, ast.Dict):
        return set().union(*(_referenced(v) for v in node.values))
    if isinstance(node, (ast.Tuple, ast.List)):
        return set().union(*(_referenced(v) for v in node.elts))
    return set()


def _resolve(name: str, aliases: dict[str, set[str]]) -> set[str]:
    names, frontier = {name}, {name}
    while frontier:
        frontier = {t for alias in frontier for t in aliases.get(alias, ())} - names
        names |= frontier
    return names


def _module_calls(module: ast.Module) -> list[_Call]:
    """The calls of one module, resolved through the module's aliases.

    One walk collects the aliases (assignments anywhere in the module,
    ``import ... as``) and each call with its innermost enclosing class.
    """
    aliases: dict[str, set[str]] = defaultdict(set)
    found: list[tuple[ast.Call, str | None]] = []
    stack: list[tuple[ast.AST, str | None]] = [(module, None)]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, ast.Call):
            found.append((node, owner))
        elif isinstance(node, ast.Assign):
            # ``a, b = table[key]`` may bind either name to any callable
            # the value reaches.
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        aliases[name.id] |= _referenced(node.value)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname].add(alias.name)
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))

    calls = []
    for node, owner in found:
        func = node.func
        positional = sum(not isinstance(a, ast.Starred) for a in node.args)
        keywords = frozenset(kw.arg for kw in node.keywords if kw.arg)
        splat = any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        )
        names: set[str] = set()
        if owner and (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and _simple_name(func.value.func) == "super"
        ):
            names.add(f"{owner}.super()")
        elif owner and (
            (isinstance(func, ast.Name) and func.id == "cls")
            or (isinstance(func, ast.Call) and _simple_name(func.func) == "type")
            or (isinstance(func, ast.Attribute) and func.attr == "__class__")
        ):
            names.add(f"{owner}()")
        name = _simple_name(func)
        # ``(f if x else g)(...)`` is a call of either.
        callees = _referenced(func)
        if name == "replace":
            # dataclasses.replace(obj, field=...) supplies fields by keyword.
            names.add("replace()")
            positional, splat, callees = 0, False, set()
        elif name == "partial" and node.args:
            # functools.partial(f, *args, **kwargs) is a call of f.
            callees = _referenced(node.args[0])
            positional -= 1
        for callee in callees:
            resolved = _resolve(callee, aliases)
            names |= resolved | {f"{n}()" for n in resolved}
        calls.extend(_Call(callee, positional, keywords, splat) for callee in names)
    return calls


def calls(
    root: Path | None = None, caller_dirs: tuple[str, ...] = CALLER_DIRS
) -> dict[str, list[_Call]]:
    """Every call under ``caller_dirs``, by resolved callee name."""
    root = root or ROOT
    found: dict[str, list[_Call]] = defaultdict(list)
    for name in caller_dirs:
        for path in sorted((root / name).rglob("*.py")):
            for call in _module_calls(tree(path)):
                found[call.name].append(call)
    return found


def census(
    root: Path | None = None, caller_dirs: tuple[str, ...] = CALLER_DIRS
) -> tuple[set[str], set[str]]:
    """``(every setting, the settings no call under ``caller_dirs`` supplies)``."""
    root = root or ROOT
    defs, bases = definitions(root / "src" / "repro")
    by_name = calls(root, caller_dirs)
    everything: set[str] = set()
    flagged: set[str] = set()
    for spec in defs:
        names = set(spec.names)
        for name in spec.names:
            if name.endswith("()"):
                cls = name[:-2]
                # super().__init__ inside a subclass reaches this constructor.
                names |= {
                    f"{child}.super()"
                    for child, parents in bases.items()
                    if cls in parents
                }
        found = [call for name in names for call in by_name.get(name, ())]
        for param, dotted in spec.settings.items():
            everything.add(dotted)
            position = (
                spec.positional.index(param) if param in spec.positional else None
            )
            if not any(
                call.splat
                or param in call.keywords
                or (position is not None and call.positional > position)
                for call in found
            ):
                flagged.add(dotted)
    return everything, flagged


@pytest.fixture(scope="module")
def flagged() -> set[str]:
    return census()[1]


def test_every_setting_is_supplied_or_has_a_reason(flagged):
    missing = sorted(flagged - KEEP.keys())
    assert not missing, (
        "settings no call supplies; make each a constant or add a KEEP "
        "entry with the reason it stays:\n  " + "\n  ".join(missing)
    )


def test_keep_lists_only_settings_nothing_supplies(flagged):
    stale = sorted(KEEP.keys() - flagged)
    assert not stale, (
        "KEEP entries that some call now supplies (or that no longer "
        "exist); remove them from KEEP:\n  " + "\n  ".join(stale)
    )


def test_every_keep_entry_gives_a_reason():
    assert all(reason.strip() for reason in KEEP.values())


def test_the_census_sees_a_setting_nobody_supplies(tmp_path):
    """Keyword, position, replace(), splats, aliases (unpacked ones too),
    a callee chosen by a conditional expression and constructors reached
    through subclasses all count as supplying a setting."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "from dataclasses import dataclass\n\n"
        "def by_keyword(a, b=1, *, c=2):\n    return by_keyword(0, c=3)\n\n"
        "def by_position(a, b=1, c=2):\n    return by_position(0, 1)\n\n"
        "def by_splat(a=1):\n    return None\n\n"
        "def by_unpacked(a=1):\n    return None\n\n"
        "def if_body(a=1):\n    return None\n\n"
        "def if_else(a=1):\n    return None\n\n"
        "class Base:\n    def __init__(self, x=0, y=0):\n        pass\n\n"
        "    def method(self, z=0):\n        pass\n\n"
        "class Child(Base):\n    def __init__(self):\n"
        "        super().__init__(x=1)\n\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n    x: int\n    y: int = 0\n    z: int = 0\n\n"
        "@dataclass\n"
        "class Tally:\n    count: int = 0\n"
    )
    for name in ("benchmarks", "examples", "tools", "tests"):
        (tmp_path / name).mkdir()
    (tmp_path / "tools" / "tool.py").write_text(
        "import dataclasses\n"
        "from repro.mod import Base, Point, by_splat as alias, by_unpacked\n"
        "alias(**{})\n"
        "make_one, _ = {'k': (by_unpacked, None)}['k']\n"
        "make_one(a=2)\n"
        "make = Base if True else None\n"
        "make().method(5)\n"
        "dataclasses.replace(Point(1), z=2)\n"
        "(if_body if True else if_else)(a=2)\n"
    )
    every, unpassed = census(tmp_path)
    assert every == {
        "mod.by_keyword.b", "mod.by_keyword.c", "mod.by_position.b",
        "mod.by_position.c", "mod.by_splat.a", "mod.by_unpacked.a",
        "mod.if_body.a", "mod.if_else.a", "mod.Base.__init__.x",
        "mod.Base.__init__.y", "mod.Base.method.z", "mod.Point.y",
        "mod.Point.z",
    }
    assert unpassed == {
        "mod.by_keyword.b", "mod.by_position.c", "mod.Base.__init__.y",
        "mod.Point.y",
    }


def test_a_setting_only_a_test_supplies_is_flagged(tmp_path):
    """A test passing a value makes no second caller: the setting is a
    constant everywhere else."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "def run(steps=10, trace=False):\n    return steps\n"
    )
    for name in ("benchmarks", "examples", "tools", "tests"):
        (tmp_path / name).mkdir()
    (tmp_path / "tools" / "tool.py").write_text(
        "from repro.mod import run\nrun(steps=5)\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import run\n\n"
        "def test_trace():\n    assert run(trace=True) == 10\n"
    )
    assert census(tmp_path) == ({"mod.run.steps", "mod.run.trace"},
                                {"mod.run.trace"})


if __name__ == "__main__":
    every, unpassed = census()
    print(f"settings {len(every)}, not supplied {len(unpassed)}, "
          f"kept {len(KEEP)}")
    print("\n".join(sorted(unpassed)))
