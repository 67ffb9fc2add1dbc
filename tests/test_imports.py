"""Every module of the package, every test file and every script uses each
name it imports.

No linter is a dependency, so the check is made here on the syntax tree.
The package's __init__.py is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cascadesim"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS_AND_SCRIPTS = sorted(str(p.relative_to(ROOT)) for p in
                           [*ROOT.glob("tests/*.py"), *ROOT.glob("scripts/*.py")])


def unused_imports(source: str) -> list:
    """Names that source binds by an import statement and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_checker_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import pi, tau as t\n"
                          "print(sys.argv, t)\n") == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("path", TESTS_AND_SCRIPTS)
def test_no_unused_imports_in_tests_and_scripts(path):
    assert unused_imports((ROOT / path).read_text()) == []
