"""Source hygiene: no library module imports a name it never uses."""
import ast
from pathlib import Path

import pytest

import perronkron

PACKAGE = Path(perronkron.__file__).parent
# __init__ imports names only to export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_an_unused_import():
    source = "from .linalg import COMPLEX, RATIONAL\nimport numpy as np\nprint(RATIONAL)\n"
    assert _unused_imports(source) == [(1, "COMPLEX"), (2, "np")]
