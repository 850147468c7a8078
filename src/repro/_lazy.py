"""PEP 562 lazy exports: the one way a package ``__init__`` re-exports.

``repro`` and the subpackages whose names benchmarks, examples or tools
import through the package keep a ``{defining module: names}`` table;
every other name is imported from its defining module.  Importing a
package binds no export: each name is imported from its defining module
the first time it is read, then cached in the package's globals, so
``import repro`` (or any leaf module) loads only its own dependencies,
and the FEM stack (and scipy) only where an FEM point runs.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, modules: dict[str, tuple[str, ...]]):
    """The ``__getattr__`` and ``__dir__`` of a package exporting
    ``{defining module: names}``."""
    home = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(importlib.import_module(home[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return __getattr__, __dir__
