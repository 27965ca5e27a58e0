"""The public surface is what the package runs: every name exported from
``gifilter`` and ``gifilter.models`` is read somewhere in the package itself.
Oracles that only tests call live in ``tests/oracles.py``."""

import ast
import inspect
from pathlib import Path

import gifilter
import gifilter.models

SRC = Path(gifilter.__file__).parent


def _exported(module) -> set:
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and not inspect.ismodule(obj)}


def _names_read_in_package() -> set:
    """Every name the package reads, outside the ``__init__`` re-exports.

    Definitions and imports bind a name without reading it, so neither
    counts as a caller.
    """
    read = set()
    for path in SRC.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_export_has_a_caller_in_the_package():
    exported = _exported(gifilter) | _exported(gifilter.models)
    assert sorted(exported - _names_read_in_package()) == []
