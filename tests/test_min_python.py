"""The code parses on the oldest Python that pyproject.toml names.

`ast.parse` with `feature_version` rejects syntax newer than that release,
such as `except*` from 3.11.  No file may import a module the standard
library gained later than it either.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Standard-library modules added in 3.11.
NEWER_MODULES = {"tomllib", "wsgiref.types"}


def oldest_python():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def sources():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert ROOT / "src" / "gridwords" / "tiling.py" in paths
    return paths


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_every_file_parses_as_the_oldest_python():
    for path in sources():
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=oldest_python())


def test_no_file_imports_a_newer_module():
    for path in sources():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        assert not NEWER_MODULES & set(imported_modules(tree)), path


def test_checks_catch_newer_code():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    assert set(imported_modules(ast.parse("import tomllib"))) & NEWER_MODULES
    assert set(imported_modules(ast.parse("from tomllib import loads"))) & NEWER_MODULES
