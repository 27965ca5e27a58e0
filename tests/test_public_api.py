"""The public surface is what the package runs: every name exported from
``gifilter`` and ``gifilter.models`` is read somewhere in the package itself.
Oracles that only tests call live in ``tests/oracles.py``.  Importing the
package has one side effect, the BLAS thread pin, checked here too."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_models_all_lists_exactly_what_the_package_exports():
    # a name deleted from a model module leaves neither an import nor an
    # __all__ entry behind
    assert sorted(gifilter.models.__all__) == sorted(_exported(gifilter.models))


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Records the thread variables at the moment numpy is first imported.
_IMPORT_SPY = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in %r])
sys.meta_path.insert(0, Spy())
import gifilter
print(*seen[0])
""" % (BLAS_THREAD_VARS,)


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_pins_blas_threads_unless_the_caller_set_them(preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(SRC.parent)
    if preset is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, preset))
    run = subprocess.run([sys.executable, "-c", _IMPORT_SPY], env=env,
                         capture_output=True, text=True, check=True)
    expected = "1" if preset is None else preset
    assert run.stdout.split() == [expected] * len(BLAS_THREAD_VARS)
