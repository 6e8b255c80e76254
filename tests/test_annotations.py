"""Every annotation in the package resolves.

With ``from __future__ import annotations`` an annotation is a string
until something asks for it, so a name it uses but the module never
imports goes unnoticed at import time.  ``typing.get_type_hints``
resolves every function and method that ``src/pappus`` defines here.
"""

import importlib
import inspect
import typing
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pappus"

MODULES = ["pappus"] + sorted(f"pappus.{p.stem}" for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def defined_functions(module):
    """The functions a module defines, and the methods of the classes it defines."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    yield member


def test_the_scan_finds_an_unresolved_annotation():
    namespace = {}
    exec("from __future__ import annotations\ndef f(x: Missing) -> int: ...\n", namespace)
    with pytest.raises(NameError):
        typing.get_type_hints(namespace["f"])


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    module = importlib.import_module(name)
    failures = []
    for fn in defined_functions(module):
        try:
            typing.get_type_hints(fn)
        except Exception as e:
            failures.append(f"{fn.__qualname__}: {type(e).__name__}: {e}")
    assert not failures, "; ".join(failures)
