"""The library's settable options do not grow unnoticed: the parameters
with a default, over every function of ``src/polyspanner/``, stay at or
under a fixed ceiling. A new option must lower another or raise the
ceiling here, in the same diff. Reads files only."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polyspanner"
CEILING = 7


def _options() -> list:
    """(module, function, count) for each function with a default."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
                if count:
                    out.append((path.stem, getattr(node, "name", "<lambda>"), count))
    return out


def test_settable_options_stay_under_the_ceiling():
    options = _options()
    assert sum(count for _, _, count in options) <= CEILING, options
