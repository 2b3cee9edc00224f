"""The package depends on nothing outside the standard library.

Every absolute import in src/gridwords must name a standard-library
module at its top level; relative imports stay inside the package.
Importing the CLI loads none of the network, mail or markup modules.
"""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gridwords"

# Top-level packages a CLI process has no use for; several of them cost
# tens of milliseconds of start-up when something pulls them in.
UNWANTED = ("xml", "urllib", "http", "email", "ssl", "socket", "html")


def foreign_imports(source):
    """(line, module) of every absolute import in `source` whose top-level
    name is not a standard-library module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [
            (node.lineno, m) for m in modules if m.partition(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "__init__.py" in sources
    for path in sources:
        assert foreign_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_check_catches_every_form():
    for source, module in [
        ("import numpy", "numpy"),
        ("import numpy.linalg as la", "numpy.linalg"),
        ("import os, hypothesis", "hypothesis"),
        ("from numpy.linalg import norm", "numpy.linalg"),
        ("from gridwords import hat", "gridwords"),
        ("def f():\n    import pytest\n    return pytest", "pytest"),
        ("try:\n    import regex as re\nexcept ImportError:\n    import re", "regex"),
    ]:
        assert [m for _, m in foreign_imports(source)] == [module], source
    for source in [
        "import os.path",
        "from __future__ import annotations",
        "from collections import Counter",
        "from . import chain",
        "from .chain import hat",
        "from ..gridwords import chain",
        "x = 'numpy'",
    ]:
        assert foreign_imports(source) == [], source


def test_cli_import_loads_no_network_or_markup_module():
    # -S keeps `site` out, so modules that site-packages import at start-up
    # can neither hide nor fake a result.
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "import gridwords.cli\n"
        f"print(sorted(m for m in sys.modules if m.partition('.')[0] in {UNWANTED!r}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
