"""bench/child.py traces colmode functions by name and reads their arguments
by name; a rename in colmode would silently zero its per-layer metrics.
These checks read bench/child.py as it stands and run no benchmark."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = _load_child()


def _argument_reads() -> dict[str, list[tuple[str, int]]]:
    """Per hook function: each (parameter name, position) it reads through
    kwargs.get("name", args[position] ...)."""
    reads: dict[str, list[tuple[str, int]]] = {}
    for fn in ast.parse(CHILD.read_text()).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "kwargs"):
                continue
            name, fallback = node.args
            (position,) = [sub.slice.value for sub in ast.walk(fallback)
                           if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                           and sub.value.id == "args"]
            reads.setdefault(fn.name, []).append((name.value, position))
    return reads


READS = _argument_reads()


@pytest.mark.parametrize("module, function, hook", child.TRACED,
                         ids=[f"{m}.{f}" for m, f, _ in child.TRACED])
def test_traced_function_resolves_with_the_parameters_its_hook_reads(module, function, hook):
    fn = getattr(importlib.import_module(f"colmode.{module}"), function)
    assert inspect.isfunction(fn)
    params = list(inspect.signature(fn).parameters)
    for name, position in READS.get(getattr(hook, "__name__", None), []):
        assert params[position] == name, (name, position, params)


def test_the_argument_reads_are_found():
    """The parse above sees the reads it must check, so the test cannot pass
    by finding none."""
    hooks = {f"{m}.{f}": hook.__name__ for m, f, hook in child.TRACED if hook}
    assert ("path", 0) in READS[hooks["cli.write_csv"]]
    assert ("path", 0) in READS[hooks["cli.sha256_file"]]
    assert {("out_dir", 0), ("name", 1)} <= set(READS[hooks["cli.finish_manifest"]])
