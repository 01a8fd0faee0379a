"""Every function the benchmark's tracer rebinds still exists: each
(module, name) in ``LAYERS`` and ``COUNTED`` of ``perfbench/spans.py`` is
bound at the top level of that ``polyspanner`` module to a function,
defined there or imported with ``from .module import name`` from the
module that defines it. A renamed hook would crash every traced
benchmark run. Reads files only; nothing is imported."""

import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polyspanner"
SPANS = ROOT / "perfbench" / "spans.py"


def _constant(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS.name} assigns no {name}")


def _hooks() -> list:
    tree = ast.parse(SPANS.read_text())
    hooks = [
        (module, name)
        for module, names in _constant(tree, "LAYERS").values()
        for name in names
    ]
    hooks.append(tuple(_constant(tree, "COUNTED")))
    return hooks


@functools.cache
def _functions(module: str) -> frozenset:
    """Top-level names of ``polyspanner.<module>`` bound to a function."""
    out = set()
    for node in ast.parse((SRC / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(node.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            defined = _functions(node.module)
            out.update(a.asname or a.name for a in node.names if a.name in defined)
    return frozenset(out)


@pytest.mark.parametrize("module, name", _hooks(), ids=lambda x: x)
def test_hook_is_a_module_level_function(module, name):
    package, _, stem = module.partition(".")
    assert package == "polyspanner"
    assert name in _functions(stem)
