"""Loading the package generates no dataclass code it can do without:
every class under ``src/polyspanner/`` decorated with ``dataclass``
defines ``__post_init__``, so its constructor validates, as
``generator.GeneratorConfig``'s does. A plain value type is a
``typing.NamedTuple``. Reads files only."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polyspanner"


def _names_dataclass(decorator: ast.expr) -> bool:
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(node, ast.Name) and node.id == "dataclass") or (
        isinstance(node, ast.Attribute) and node.attr == "dataclass"
    )


def _dataclasses() -> dict:
    """(module, class) -> whether it defines __post_init__, for each
    class decorated with ``dataclass`` or ``dataclasses.dataclass``."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(map(_names_dataclass, node.decorator_list)):
                methods = {d.name for d in node.body if isinstance(d, ast.FunctionDef)}
                out[path.stem, node.name] = "__post_init__" in methods
    return out


def test_every_dataclass_validates_in_its_constructor():
    found = _dataclasses()
    assert found.get(("generator", "GeneratorConfig")) is True, found
    assert [name for name, validates in found.items() if not validates] == []
