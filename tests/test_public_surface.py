"""Every public name under ``src/repro`` has a non-test caller or a reason.

A *public name* is, in a module under ``src/repro``, a name without a
leading underscore that is

* a top-level function or class, or a method of such a class,
* or, outside ``__init__.py``, a module-level constant: ``NAME = ...`` or
  ``NAME: T = ...``.

Dunders, and methods that override one of a base class from outside
``repro`` (``ServiceHTTPServer.process_request``,
``ServiceHandler.log_message``), are not counted: the base calls them.

The census counts code references, not prose.  Each file is parsed once
(``tests/source_tree.py``), and a *reference* is an ``ast.Name`` id, an
``ast.Attribute`` attr, or a string constant that is exactly one
identifier and is not a docstring (the ``getattr`` tables).  Comments,
docstrings and messages are therefore no use, and neither are import
statements, any module's ``__all__``, nor the lines of any public
definition of the same identifier: its own, or another's that only
forwards to it (``Outer.price`` whose body calls ``Inner.price``).  Nor
is an attribute whose chain starts at a name ``import``
binds to a module outside ``repro``: ``np.maximum.reduce`` and
``sys.exit`` are that module's names.  ``ast`` reads the expressions
inside f-strings the same way on every supported Python, where
``tokenize`` sees one string token before 3.12.  A name is *used* when it is referred to

* in ``src/repro``, or
* in a ``*.py`` file under ``benchmarks/``, ``examples/`` or ``tools/``.

A public name that nothing but tests reaches is library surface without a
caller: delete it, or give it a ``KEEP`` entry saying why it stays.  An
entry whose name has gained a caller must leave ``KEEP``, so the table
lists exactly the names that stay for a written reason.

Each name has one import path, its defining module.  A subpackage
``__init__.py`` is its docstring plus, at most, one ``_EXPORTS =
{defining module: names}`` table handed to ``repro._lazy.lazy_exports``,
and the table lists exactly the names a ``*.py`` file under
``benchmarks/``, ``examples/`` or ``tools/`` imports through that
package (``from repro.<package> import name``).  Files under ``src/``
and ``tests/`` import nothing but submodules through a package.
"""

from __future__ import annotations

import ast
import importlib
from collections import defaultdict
from pathlib import Path

import pytest

from tests.source_tree import tree

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("benchmarks", "examples", "tools")

_REFERENCE = "a reference implementation tests compare against"
_FEM_CHECK = "a correctness measurement the FEM tests verify with"
_PAPER_SUBSTITUTE = "numerics PAPER.md's substitution table promises"
_P2P = "MPI surface the p2p conformance workload drives (ROADMAP 7)"
_NS_SPMD = "ROADMAP 9's ns_spmd workload runs it"
_MPI_OPS = "MPI's predefined reductions, which the runtime mirrors beside SUM"
_PAPER_DATA = "the paper's published numbers, which tests compare the model against"
_CLOCKS = "the clock introspection ROADMAP 7's acceptance reads"
_UNRECORDABLE = (
    "a timing-dependent MPI call whose capture ROADMAP 7 turns into a "
    "recorded op or a typed error"
)

#: Public names that only tests reach, each with the reason it stays.
#: Keys are dotted paths below ``repro``: ``module.Name`` or
#: ``module.Class.method``.
KEEP: dict[str, str] = {
    "simmpi.selector.CollectiveSelector.selection_table": (
        _REFERENCE + ": a test compares it row for row with the tables in "
        "docs/collectives.md"
    ),
    "fem.function.FEFunction": _FEM_CHECK,
    "fem.function.FEFunction.interpolate": _FEM_CHECK,
    "fem.function.FEFunction.l2_norm": _FEM_CHECK,
    "fem.function.h1_seminorm_error": _FEM_CHECK,
    "fem.bdf.bdf_truncation_order": _FEM_CHECK,
    "fem.elements.LagrangeHexElement.partition_of_unity_residual": (
        _FEM_CHECK + " (the element's self-check)"
    ),
    "fem.elements.LagrangeHexElement.nodal_interpolation_matrix_is_identity": (
        _FEM_CHECK + " (the element's self-check)"
    ),
    "la.krylov.gmres": _PAPER_SUBSTITUTE + " (the Trilinos GMRES role)",
    "partition.grid.block_ranges": _PAPER_SUBSTITUTE + " (block partitioner)",
    "partition.grid.partition_block": _PAPER_SUBSTITUTE + " (block partitioner)",
    "fem.mesh.StructuredBoxMesh.extract_block": (
        _PAPER_SUBSTITUTE + " (a rank's box of the block partition)"
    ),
    "simmpi.comm.Communicator.isend": _P2P,
    "simmpi.comm.Communicator.irecv": _P2P,
    "simmpi.comm.Communicator.waitall": _P2P,
    "simmpi.comm.Communicator.probe": _P2P,
    "simmpi.comm.Communicator.dup": _P2P,
    "simmpi.comm.Communicator.iprobe": _UNRECORDABLE,
    "simmpi.comm.Request.test": _UNRECORDABLE,
    "simmpi.datatypes.MIN": _MPI_OPS,
    "simmpi.datatypes.MAX": _MPI_OPS,
    "simmpi.datatypes.PROD": _MPI_OPS,
    "obs.causal.CausalTracker.clock_state": _CLOCKS,
    "obs.causal.CausalTracker.events_for": _CLOCKS,
    "apps.navier_stokes.run_ns_distributed": _NS_SPMD,
    "perfmodel.compute.ns_modeled_compute": _NS_SPMD,
    "perfmodel.calibration.calibrate_iteration_growth": (
        "the host cross-check of the iteration-growth law"
    ),
    "perfmodel.calibration.calibrate_against_sequential_run": (
        "the host cross-check of the workload flop model"
    ),
    "harness.paper_data.PAPER_COST_RATES": _PAPER_DATA,
    "harness.paper_data.PAPER_EC2_NODE_HOURLY": _PAPER_DATA,
    "harness.paper_data.PAPER_EC2_SPOT_HOURLY": _PAPER_DATA,
    "harness.paper_data.PAPER_ELEMENTS_PER_RANK": _PAPER_DATA,
    "harness.paper_data.PAPER_RANK_SERIES": _PAPER_DATA,
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_override(path: Path, klass: ast.ClassDef, method: str) -> bool:
    """True when ``klass.method`` overrides a method of a base class from
    outside ``repro``, which calls it from code the census cannot see.

    A base defined under ``src/repro`` needs no check: the code calling
    its methods is under ``src/repro`` too, so it is a reference.
    """
    imported = {}  # local name -> (module, attribute)
    for node in tree(path).body:
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name] = (alias.name, None)
    for base in klass.bases:
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            module, name = imported.get(base.value.id, ("repro", None))[0], base.attr
        elif isinstance(base, ast.Name):
            # Not imported: a builtin (``Exception``) or, when getattr
            # finds no such builtin, a class of this module.
            module, name = imported.get(base.id, ("builtins", base.id))
        else:
            continue
        if module.split(".")[0] == "repro":
            continue
        cls = getattr(importlib.import_module(module), name, None)
        if isinstance(cls, type) and any(method in vars(b) for b in cls.__mro__):
            return True
    return False


def _span(node: ast.AST) -> range:
    return range(node.lineno, node.end_lineno + 1)


def _constant_names(node: ast.stmt) -> list[str]:
    """The names a module-level ``NAME = ...`` / ``NAME: T = ...`` binds."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        return [node.target.id] if isinstance(node.target, ast.Name) else []
    return []


def public_definitions() -> dict[str, tuple[Path, str, range]]:
    """``{dotted name: (file, identifier, lines of its definition)}``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for node in tree(path).body:
            if path.name != "__init__.py":
                for name in _constant_names(node):
                    if not name.startswith("_"):
                        found[f"{module}.{name}"] = (path, name, _span(node))
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            found[f"{module}.{node.name}"] = (path, node.name, _span(node))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                    and not _is_override(path, node, item.name)
                ):
                    found[f"{module}.{node.name}.{item.name}"] = (
                        path,
                        item.name,
                        _span(item),
                    )
    return found


_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _is_all(node: ast.AST) -> bool:
    """True for an assignment to ``__all__``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return False
    return any(getattr(t, "id", None) == "__all__" for t in targets)


def _foreign_modules(module: ast.Module) -> set[str]:
    """Names ``import`` binds to a module outside ``repro`` (``np``, ``sys``)."""
    return {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(module)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.partition(".")[0] != "repro"
    }


def _chain_root(node: ast.Attribute) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def references(module: ast.Module):
    """Yield ``(identifier, line)`` for each code reference in ``module``.

    Import statements, ``__all__`` assignments and docstrings are skipped,
    and so is an attribute chain rooted at a module imported from outside
    ``repro``: ``np.add.reduce`` names numpy's ``reduce``, not one of ours.
    """
    foreign = _foreign_modules(module)
    stack: list[ast.AST] = [module]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            root = _chain_root(node)
            if isinstance(root, ast.Name) and root.id in foreign:
                continue
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str) and node.value.isidentifier():
                yield node.value, node.lineno
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node):
            continue
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                children.remove(first)
        stack.extend(children)


def _reference_index() -> tuple[dict[str, set[tuple[Path, int]]], set[str]]:
    """Where each identifier is referred to in ``src/repro``, and by callers.

    ``{identifier: {(file, line)}}`` over ``src/repro``, and the set of
    identifiers the callers' ``*.py`` files refer to.
    """
    index: dict[str, set[tuple[Path, int]]] = defaultdict(set)
    for path in sorted(SRC.rglob("*.py")):
        for ident, line in references(tree(path)):
            index[ident].add((path, line))
    callers: set[str] = set()
    for name in CALLER_DIRS:
        for path in sorted((ROOT / name).rglob("*.py")):
            callers.update(ident for ident, _ in references(tree(path)))
    return index, callers


def unused_public_names() -> set[str]:
    """Dotted names of public definitions no code outside tests refers to."""
    index, callers = _reference_index()
    definitions = public_definitions()
    spans: dict[str, list[tuple[Path, range]]] = defaultdict(list)
    for home, ident, span in definitions.values():
        spans[ident].append((home, span))
    unused = set()
    for dotted, (_, ident, _) in definitions.items():
        if ident in callers:
            continue
        if all(
            any(path == home and number in span for home, span in spans[ident])
            for path, number in index.get(ident, ())
        ):
            unused.add(dotted)
    return unused


@pytest.fixture(scope="module")
def unused() -> set[str]:
    return unused_public_names()


def test_every_public_name_has_a_caller_or_a_reason(unused):
    missing = sorted(unused - KEEP.keys())
    assert not missing, (
        "public names that only tests reach; delete them or add a KEEP "
        "entry with the reason each stays:\n  " + "\n  ".join(missing)
    )


def test_keep_lists_only_names_without_a_caller(unused):
    stale = sorted(KEEP.keys() - unused)
    assert not stale, (
        "KEEP entries that now have a non-test caller (or no longer "
        "exist); remove them from KEEP:\n  " + "\n  ".join(stale)
    )


def test_every_keep_entry_gives_a_reason():
    assert all(reason.strip() for reason in KEEP.values())


@pytest.fixture
def census_of(tmp_path, monkeypatch):
    """Run the census over a scratch tree: ``{relative path: source}``."""

    def run(files: dict[str, str]) -> set[str]:
        for relative, source in files.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        for name in CALLER_DIRS:
            (tmp_path / name).mkdir(exist_ok=True)
        monkeypatch.setattr(f"{__name__}.ROOT", tmp_path)
        monkeypatch.setattr(f"{__name__}.SRC", tmp_path / "src" / "repro")
        return unused_public_names()

    return run


def test_the_census_sees_a_name_only_tests_reach(census_of):
    """A definition's own lines and re-exports are no use."""
    assert census_of({
        "src/repro/sub/__init__.py": (
            "from repro.sub.mod import helper, Shape\n"
            "__all__ = ['helper', 'Shape']\n"
        ),
        "src/repro/sub/mod.py": (
            "def helper():\n    return helper\n\n"
            "class Shape:\n    def area(self):\n        return 1\n\n"
            "def caller():\n    return Shape().area()\n"
        ),
        "tools/tool.py": "from repro.sub.mod import caller\ncaller()\n",
    }) == {"sub.mod.helper"}


def test_a_same_named_chain_is_no_use(census_of):
    """A reference inside another definition of the same identifier only
    forwards to it: ``Outer.price`` calling ``Inner.price`` keeps
    neither alive."""
    assert census_of({
        "src/repro/mod.py": (
            "class Inner:\n    def price(self):\n        return 1\n\n"
            "class Outer:\n    def __init__(self):\n"
            "        self.inner = Inner()\n\n"
            "    def price(self):\n        return self.inner.price()\n\n"
            "def caller():\n    return Outer()\n"
        ),
        "tools/tool.py": "from repro.mod import caller\ncaller()\n",
    }) == {"mod.Inner.price", "mod.Outer.price"}


def test_prose_is_no_use(census_of):
    """A docstring, a comment or an error message does not keep a name."""
    assert census_of({
        "src/repro/mod.py": (
            '"""See helper."""\n\n'
            "def helper():\n    pass\n\n"
            "def caller():\n"
            '    """helper"""\n'
            "    # helper is not called here\n"
            '    raise ValueError("call helper first")\n'
        ),
        "tools/tool.py": "from repro.mod import caller\ncaller()\n",
        "tools/README.md": "helper\n",
    }) == {"mod.helper"}


def test_a_name_inside_an_f_string_expression_is_used(census_of):
    assert census_of({
        "src/repro/mod.py": (
            "class Stats:\n"
            "    def hit_rate(self):\n        return 1.0\n\n"
            "def caller(stats):\n"
            '    return f"{stats.hit_rate():.1f}%"\n'
        ),
        "tools/tool.py": "from repro.mod import caller, Stats\ncaller(Stats())\n",
    }) == set()


def test_a_module_s_own_all_is_no_use(census_of):
    assert census_of({
        "src/repro/mod.py": (
            "__all__ = ['helper', 'caller']\n\n"
            "def helper():\n    pass\n\n"
            "def caller():\n    pass\n"
        ),
        "tools/tool.py": "from repro.mod import caller\ncaller()\n",
    }) == {"mod.helper"}


def test_a_getattr_string_table_is_a_use(census_of):
    assert census_of({
        "src/repro/mod.py": (
            "class Mesh:\n"
            "    def interior(self):\n        return 1\n\n"
            "def caller(mesh, kind):\n"
            '    return getattr(mesh, {"in": "interior"}[kind])()\n'
        ),
        "tools/tool.py": "from repro.mod import caller, Mesh\ncaller(Mesh(), 'in')\n",
    }) == set()


def test_a_foreign_module_s_attribute_is_no_use(census_of):
    """``np.add.reduce`` and ``functools.reduce`` name library functions,
    not a ``repro`` method that happens to share the name."""
    assert census_of({
        "src/repro/mod.py": (
            "import functools\n"
            "import numpy as np\n\n"
            "class Comm:\n"
            "    def reduce(self):\n        return 1\n\n"
            "    def gather(self):\n        return 2\n\n"
            "def caller(comm, xs):\n"
            "    comm.gather()\n"
            "    return np.add.reduce(xs) + functools.reduce(max, xs)\n"
        ),
        "tools/tool.py": "from repro.mod import caller, Comm\ncaller(Comm(), [1])\n",
    }) == {"mod.Comm.reduce"}


def test_module_constants_are_censused(census_of):
    """``NAME = ...`` and ``NAME: T = ...``; not in ``__init__``, not private."""
    assert census_of({
        "src/repro/sub/__init__.py": "VERSION = 1\n",
        "src/repro/sub/mod.py": (
            "LIMIT = 4\nUNUSED = 8\nTYPED: int = 2\n_PRIVATE = 16\n\n"
            "def caller():\n    return LIMIT\n"
        ),
        "tools/tool.py": "from repro.sub.mod import caller\ncaller()\n",
    }) == {"sub.mod.UNUSED", "sub.mod.TYPED"}


# -- one import path per name -------------------------------------------------

#: The statements a subpackage ``__init__`` may hold besides its docstring.
_LAZY_INIT = (
    "from repro._lazy import lazy_exports",
    "_EXPORTS = ",
    "__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)",
)


def _subpackages() -> list[Path]:
    return sorted(init.parent for init in SRC.glob("*/__init__.py"))


def eager_statements() -> list[str]:
    """``package:line`` of each statement a subpackage ``__init__`` holds
    beyond its docstring and its lazy table."""
    found = []
    for package in _subpackages():
        module = tree(package / "__init__.py")
        body = module.body[1:] if ast.get_docstring(module) is not None else module.body
        for node in body:
            if not ast.unparse(node).startswith(_LAZY_INIT):
                found.append(f"{package.name}:{node.lineno}")
    return found


def export_tables() -> dict[str, set[str]]:
    """``{subpackage: the names its _EXPORTS table lists}``."""
    tables = {}
    for package in _subpackages():
        for node in tree(package / "__init__.py").body:
            if ast.unparse(node).startswith("_EXPORTS = "):
                tables[package.name] = {
                    item.value for names in node.value.values for item in names.elts
                }
    return tables


def through_packages(dirs) -> dict[str, set[str]]:
    """``{subpackage: names}`` that the ``*.py`` files under ``dirs``
    import through the package rather than from a submodule of it."""
    packages = {package.name: package for package in _subpackages()}
    found = defaultdict(set)
    for name in dirs:
        for path in sorted((ROOT / name).rglob("*.py")):
            for node in ast.walk(tree(path)):
                if not isinstance(node, ast.ImportFrom) or node.level:
                    continue
                root, _, package = (node.module or "").partition(".")
                if root != "repro" or package not in packages:
                    continue
                home = packages[package]
                found[package].update(
                    alias.name for alias in node.names
                    if not (home / f"{alias.name}.py").exists()
                    and not (home / alias.name / "__init__.py").exists()
                )
    return {package: names for package, names in found.items() if names}


def test_subpackage_inits_import_nothing_eagerly():
    assert not eager_statements(), (
        "a subpackage __init__ holds more than its docstring and a lazy "
        "_EXPORTS table:\n  " + "\n  ".join(eager_statements())
    )


def test_each_table_lists_what_callers_import_through_its_package():
    assert export_tables() == through_packages(CALLER_DIRS)


def test_src_and_tests_import_names_from_their_defining_modules():
    assert through_packages(("src", "tests")) == {}


def test_the_import_census_sees_each_second_path(tmp_path, monkeypatch):
    files = {
        "src/repro/sub/__init__.py": (
            '"""Sub."""\n\nfrom repro._lazy import lazy_exports\n\n'
            '_EXPORTS = {"repro.sub.mod": ("Used", "Spare")}\n'
            "__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)\n"
        ),
        "src/repro/sub/mod.py": "class Used: ...\nclass Spare: ...\n",
        "src/repro/eager/__init__.py": (
            '"""Eager."""\n\nfrom repro.sub.mod import Used\n'
        ),
        "src/repro/user.py": "from repro.sub import Used, mod\n",
        "examples/demo.py": "from repro.sub import Used\n",
    }
    for relative, source in files.items():
        (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / relative).write_text(source)
    monkeypatch.setattr(f"{__name__}.ROOT", tmp_path)
    monkeypatch.setattr(f"{__name__}.SRC", tmp_path / "src" / "repro")
    assert eager_statements() == ["eager:3"]
    assert export_tables() == {"sub": {"Used", "Spare"}}
    assert through_packages(CALLER_DIRS) == {"sub": {"Used"}}
    assert through_packages(("src", "tests")) == {"sub": {"Used"}}
