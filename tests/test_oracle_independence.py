"""The oracles in tests/helpers.py must not share code with the package.

An oracle that imports what it checks can agree with a bug instead of
exposing it, so helpers.py may not import gridwords in any form.
"""

import ast
from pathlib import Path

HELPERS = Path(__file__).with_name("helpers.py")
DYNAMIC_IMPORTS = {"__import__", "import_module"}


def _names_gridwords(module):
    return module == "gridwords" or module.startswith("gridwords.")


def gridwords_imports(source):
    """(line, text) of every statement in `source` that imports gridwords."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import from the tests directory cannot reach the
            # package, and `from . import gridwords` names it directly
            modules = [node.module or ""] + [alias.name for alias in node.names if node.level]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in DYNAMIC_IMPORTS:
                continue
            modules = [
                arg.value
                for arg in node.args[:1]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            ]
        else:
            continue
        if any(_names_gridwords(m) for m in modules):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_helpers_import_nothing_from_gridwords():
    assert gridwords_imports(HELPERS.read_text(encoding="utf-8")) == []


def test_check_catches_every_form():
    for source in [
        "import gridwords",
        "import gridwords.chain as c",
        "import os, gridwords",
        "from gridwords import hat",
        "from gridwords.polyomino import enclosed_cells",
        "import importlib\nm = importlib.import_module('gridwords.chain')",
        "m = __import__('gridwords')",
        "def f():\n    from gridwords import trace\n    return trace",
    ]:
        assert len(gridwords_imports(source)) == 1, source
    for source in ["import gridwordsx", "from collections import Counter", "x = 'gridwords'"]:
        assert gridwords_imports(source) == [], source
