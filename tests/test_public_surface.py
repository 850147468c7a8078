"""Every public name under ``src/repro`` has a non-test caller or a reason.

A *public name* is a top-level function or class of a module under
``src/repro`` whose name has no leading underscore, and each public method
of such a class.  Dunders, and methods that override one inherited from a
base class (``ServiceHTTPServer.process_request``,
``ServiceHandler.log_message``), are not counted: the base names them.

A name is *used* when its identifier appears as a whole word

* in ``src/repro``, outside the lines of its own definition and outside
  the imports and ``__all__`` of the package ``__init__.py`` files, or
* anywhere under ``benchmarks/``, ``examples/`` or ``tools/``.

A public name that nothing but tests reaches is library surface without a
caller: delete it, or give it a ``KEEP`` entry saying why it stays.  An
entry whose name has gained a caller must leave ``KEEP``, so the table
lists exactly the names that stay for a written reason.
"""

from __future__ import annotations

import ast
import importlib
import re
from collections import defaultdict
from pathlib import Path

import pytest

from tests.source_tree import text, tree

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("benchmarks", "examples", "tools")

_REFERENCE = "a reference implementation tests compare against"
_FEM_CHECK = "a correctness measurement the FEM tests verify with"
_PAPER_SUBSTITUTE = "numerics PAPER.md's substitution table promises"
_P2P = "MPI surface the p2p conformance workload drives (ROADMAP 6)"
_NS_SPMD = "ROADMAP 8's ns_spmd workload runs it"

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
    "simmpi.comm.Communicator.isend": _P2P,
    "simmpi.comm.Communicator.waitall": _P2P,
    "simmpi.comm.Communicator.sendrecv": _P2P,
    "simmpi.comm.Communicator.exscan": _P2P,
    "perfmodel.compute.ns_modeled_compute": _NS_SPMD,
    "perfmodel.calibration.calibrate_iteration_growth": (
        "the host cross-check of the iteration-growth law"
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_override(module: str, cls: str, method: str) -> bool:
    """True when ``cls.method`` overrides a method a base class defines."""
    klass = getattr(importlib.import_module(f"repro.{module}"), cls)
    return any(method in vars(base) for base in klass.__mro__[1:])


def public_definitions() -> dict[str, tuple[Path, str, range]]:
    """``{dotted name: (file, identifier, lines of its definition)}``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for node in tree(path).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            span = range(node.lineno, node.end_lineno + 1)
            found[f"{module}.{node.name}"] = (path, node.name, span)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                    and not _is_override(module, node.name, item.name)
                ):
                    found[f"{module}.{node.name}.{item.name}"] = (
                        path,
                        item.name,
                        range(item.lineno, item.end_lineno + 1),
                    )
    return found


def _reexport_lines(path: Path) -> set[int]:
    """Lines of an ``__init__.py``'s imports and ``__all__``."""
    lines = set()
    for node in tree(path).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _word_index() -> tuple[dict[str, set[tuple[Path, int]]], set[str]]:
    """Where each word occurs in ``src/repro``, and the callers' words.

    ``{word: {(file, line)}}`` over the source with re-exports blanked.
    An identifier occurs as a whole word (``\\b...\\b``) exactly where it
    equals one maximal ``\\w+`` run, so one split of each line indexes
    every name at once.
    """
    index: dict[str, set[tuple[Path, int]]] = defaultdict(set)
    for path in sorted(SRC.rglob("*.py")):
        blank = _reexport_lines(path) if path.name == "__init__.py" else ()
        for number, line in enumerate(text(path).splitlines(), start=1):
            if number not in blank:
                for word in re.findall(r"\w+", line):
                    index[word].add((path, number))
    callers: set[str] = set()
    for name in CALLER_DIRS:
        for path in sorted((ROOT / name).rglob("*")):
            if path.is_file() and text(path) is not None:
                callers.update(re.findall(r"\w+", text(path)))
    return index, callers


def unused_public_names() -> set[str]:
    """Dotted names of public definitions nothing outside tests mentions."""
    index, callers = _word_index()
    unused = set()
    for dotted, (home, ident, span) in public_definitions().items():
        if ident in callers:
            continue
        if all(
            path == home and number in span
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


def test_the_census_sees_a_name_only_tests_reach(tmp_path, monkeypatch):
    """The census counts a definition's own lines and re-exports as no use."""
    pkg = tmp_path / "src" / "repro"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "sub" / "__init__.py").write_text(
        "from repro.sub.mod import helper, Shape\n__all__ = ['helper', 'Shape']\n"
    )
    (pkg / "sub" / "mod.py").write_text(
        "def helper():\n    return helper\n\n"
        "class Shape:\n    def area(self):\n        return 1\n\n"
        "def caller():\n    return Shape().area()\n"
    )
    for name in CALLER_DIRS:
        (tmp_path / name).mkdir()
    (tmp_path / "tools" / "tool.py").write_text("from repro.sub.mod import caller\n")
    monkeypatch.setattr(f"{__name__}.ROOT", tmp_path)
    monkeypatch.setattr(f"{__name__}.SRC", pkg)
    monkeypatch.setattr(f"{__name__}._is_override", lambda *_: False)
    assert unused_public_names() == {"sub.mod.helper"}
