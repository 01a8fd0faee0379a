"""No library module imports a name it never uses, and no library
function takes a parameter it never reads: a deletion must take its
imports and its arguments with it. ``__init__`` re-exports by design and
is skipped."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polyspanner"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    assert sorted(imported - used) == []


def _unread_parameters(tree):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [
            a.arg
            for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]
            )
            if a is not None and a.arg not in ("self", "cls")
        ]
        read = {
            sub.id
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name)
        }
        for name in params:
            if name not in read:
                yield f"{node.name}.{name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unread_parameters(path):
    assert list(_unread_parameters(ast.parse(path.read_text()))) == []
