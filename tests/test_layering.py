"""The exact layers stay free of floats: ``projective``, ``markedbox`` and
``fareycomb`` import neither numpy nor ``symmspace``, so floats enter the
package only for metric geometry in X."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pappus"

EXACT_LAYERS = ("projective.py", "markedbox.py", "fareycomb.py")
FORBIDDEN = {"numpy", "symmspace"}


def imported_modules(source: str):
    """Every module an import statement names, by its first dotted part:
    ``from .x import y`` names ``x``, and ``from . import y`` names ``y``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            out |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
    return out


def test_the_scan_finds_a_forbidden_import():
    assert imported_modules("import numpy.linalg\nfrom . import symmspace\n") == FORBIDDEN
    assert imported_modules("from numpy import eye\nfrom .symmspace import XPoint\n") == FORBIDDEN


@pytest.mark.parametrize("name", EXACT_LAYERS)
def test_exact_layer_imports_no_float_geometry(name):
    found = imported_modules((PACKAGE / name).read_text()) & FORBIDDEN
    assert not found, f"{name} imports {', '.join(sorted(found))}"
