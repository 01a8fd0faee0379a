"""``run_verification`` makes every outcome through one step: ``verify``
constructs ``CheckOutcome`` in one place, and ``run_verification``
turns a ``ValueError`` into a failed outcome in one ``except``. A check
that builds its own outcome or catches its own errors fails here. Reads
files only."""

import ast
import pathlib

VERIFY = pathlib.Path(__file__).resolve().parent.parent / "src" / "polyspanner" / "verify.py"


def _tree():
    return ast.parse(VERIFY.read_text())


def _names(node) -> set:
    """The plain names an except clause's type expression mentions."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} if node else set()


def test_check_outcome_is_constructed_once():
    calls = [
        node for node in ast.walk(_tree())
        if isinstance(node, ast.Call) and _names(node.func) == {"CheckOutcome"}
    ]
    assert len(calls) == 1, [node.lineno for node in calls]


def test_run_verification_catches_value_error_once():
    (fn,) = [
        node for node in ast.walk(_tree())
        if isinstance(node, ast.FunctionDef) and node.name == "run_verification"
    ]
    handlers = [
        node for node in ast.walk(fn)
        if isinstance(node, ast.ExceptHandler) and "ValueError" in _names(node.type)
    ]
    assert len(handlers) == 1, [node.lineno for node in handlers]
