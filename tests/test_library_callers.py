"""Every library name serves a command, a ``verify`` check or another library function.

A top-level function, class or non-dunder method of ``src/pappus`` that
only tests read is code the program never runs.  The scan matches by
name: a definition counts as read when its name appears anywhere in the
package as a loaded name or attribute, whatever object it resolves to.
So a method that shares its name with a live one (``XPoint.same`` and
``HomVec.same``), or one read only by another unread definition, passes
the scan and has to be caught by reading the code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PACKAGE = sorted((ROOT / "src" / "pappus").glob("*.py"))

# criterion 07 and the benchmark's separation workload call
# min_distance_flats; no command does, and the flat-separation work keeps it
# from gaining a library caller.  Flat.point_at is the point form of the
# plane map that both distance callers now read as log-coordinates; the
# benchmark's separation bound still measures the flats' base points with it.
# Criteria 08 and 09 read prism_inflection_data's points of X; the verify
# suite reads the same collinearity residual off the log-coordinates and
# builds no point
ALLOWED = {"min_distance_flats", "point_at", "prism_inflection_data"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(source: str):
    """Top-level functions and classes, and the non-dunder methods of those classes."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f.name for f in node.body
                    if isinstance(f, ast.FunctionDef) and not _is_dunder(f.name)]
    return out


def read_names(source: str):
    """Every name loaded, as a bare name or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def unread(definitions, readers):
    """Names defined in ``definitions`` that no source in ``readers`` loads."""
    read = set().union(*(read_names(s) for s in readers))
    return sorted({name for s in definitions for name in defined_names(s)} - read)


def test_the_scan_finds_an_unread_name():
    lib = (
        "def used(): ...\n"
        "def orphan(): ...\n"
        "class C:\n"
        "    def __init__(self): ...\n"
        "    def read(self): ...\n"
        "    def only_tests(self): ...\n"
    )
    caller = "C().read()\nx = used\n"
    assert unread([lib], [lib, caller]) == ["only_tests", "orphan"]


def test_every_library_name_is_read_in_the_package():
    sources = [p.read_text() for p in PACKAGE]
    definitions = [p.read_text() for p in PACKAGE if p.name != "__init__.py"]
    orphans = [name for name in unread(definitions, sources) if name not in ALLOWED]
    assert not orphans, "defined in src/pappus but read only outside it: " + ", ".join(orphans)
