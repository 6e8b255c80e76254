"""Every name a module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# ``from __future__ import annotations`` binds a name nothing reads; cli.py
# re-exports the enumerator and the fold under the names criterion 11 and
# the benchmark tests import
ALLOWED = {
    "annotations",
    "src/pappus/cli.py:_expand_chunk",
    "src/pappus/cli.py:_orbit_rows",
    "src/pappus/cli.py:_fold_limit_flags",
}

# the package __init__ imports only to re-export
FILES = sorted(
    p for pattern in ("src/pappus/*.py", "tests/*.py")
    for p in ROOT.glob(pattern) if p.name != "__init__.py"
)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    rel = path.relative_to(ROOT).as_posix()
    unused = [
        f"{rel}:{line}: {name}" for line, name in unused_imports(path.read_text())
        if name not in ALLOWED and f"{rel}:{name}" not in ALLOWED
    ]
    assert not unused, "imported but never read: " + ", ".join(unused)
