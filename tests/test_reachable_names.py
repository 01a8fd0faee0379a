"""Every module-level function, class and assigned name of the library
is reached: it is read by name in its own module, imported by another
library module, or named in a README code block or in the benchmark's
Python. Dunder names such as ``__all__`` are exempt. Every
non-dunder method and property of a library class is reached by
attribute name somewhere in the library, or named in the README's code
blocks or the benchmark's Python. A name that only tests call belongs
under ``tests/``. Reads files only."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polyspanner"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_by_library() -> set:
    """(module, name) for every ``from .module import name`` in src."""
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out.update((node.module, alias.name) for alias in node.names)
    return out


def _attributes_in_library() -> set:
    """Every name read or written as ``obj.name`` in src."""
    return {
        node.attr
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }


def _named_outside() -> set:
    """Identifiers in the README's code blocks and in perfbench/*.py."""
    readme = (ROOT / "README.md").read_text()
    texts = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    texts += [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    return {word for text in texts for word in re.findall(r"[A-Za-z_]\w*", text)}


def _defined_at_top(tree) -> list:
    """Names of the module's functions and classes, and every name its
    top-level assignments bind, tuple targets included."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in out if not (name.startswith("__") and name.endswith("__"))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_name_is_reached(path):
    tree = ast.parse(path.read_text())
    defined = _defined_at_top(tree)
    used_here = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    imported = _imported_by_library()
    outside = _named_outside()
    unreached = [
        name
        for name in defined
        if name not in used_here
        and (path.stem, name) not in imported
        and name not in outside
    ]
    assert unreached == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_method_is_reached(path):
    tree = ast.parse(path.read_text())
    methods = [
        f"{cls.name}.{node.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    reached = _attributes_in_library() | _named_outside()
    assert [m for m in methods if m.split(".")[1] not in reached] == []
