"""One read and one parse per file for the census tests.

``tests/test_public_surface.py`` (public names) and
``tests/test_settings_surface.py`` (defaulted parameters and fields) scan
the same trees; both go through :func:`text` and :func:`tree`, so a
tier-1 run reads and parses each file once.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path


@functools.cache
def text(path: Path) -> str | None:
    """The file's text; None for a file that is not UTF-8."""
    try:
        return path.read_text()
    except UnicodeDecodeError:
        return None


@functools.cache
def tree(path: Path) -> ast.Module:
    """The parsed module of a Python file."""
    return ast.parse(text(path), filename=str(path))
