"""The run-time import graph: which scipy names the package uses.

The package is moving to a scipy-free run time one name at a time, so the
set of scipy names its modules use is pinned here and may only shrink.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import colmode

PACKAGE = Path(colmode.__file__).parent

#: expm for the exponential of a non-diagonal drift, imported on its first
#: call, and the version the manifest records
RUNTIME_SCIPY_NAMES = {"scipy.linalg.expm", "scipy.__version__"}


def _dotted(node) -> list[str] | None:
    """["a", "b", "c"] for the expression a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def scipy_names(tree: ast.AST) -> set[str]:
    """Every scipy name a module uses: each name imported from a scipy module,
    and each longest attribute chain on a name bound by `import scipy...`."""
    bound, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "scipy":
                    key = alias.asname or "scipy"
                    bound[key] = alias.name if alias.asname else "scipy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    inner = set()  # attribute nodes inside a longer chain
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            inner.add(id(node.value))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name)) and id(node) not in inner:
            parts = _dotted(node)
            if parts and parts[0] in bound:
                names.add(".".join([bound[parts[0]], *parts[1:]]))
    return names


def test_runtime_scipy_names_are_expm_and_the_version():
    used = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for name in scipy_names(ast.parse(path.read_text(), str(path))):
            used.setdefault(name, []).append(path.name)
    assert set(used) == RUNTIME_SCIPY_NAMES, used


def test_scanner_resolves_every_import_form():
    source = """
import scipy
import scipy.linalg
import scipy.linalg as sla
from scipy.linalg.blas import dgemm
from scipy import signal
scipy.__version__
scipy.linalg.expm(a)
sla.solve(a, b)
"""
    assert scipy_names(ast.parse(source)) == {
        "scipy.__version__", "scipy.linalg.expm", "scipy.linalg.solve",
        "scipy.linalg.blas.dgemm", "scipy.signal",
    }


def test_cli_import_loads_no_process_pool():
    """multiprocessing and concurrent.futures are imported only when simulate
    runs its members in worker processes, so a fresh interpreter that imports
    colmode.cli has loaded neither."""
    probe = ("import sys, colmode.cli; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
