"""A record, a class whose constructor only stores its fields, is a named tuple.

A hand-written constructor that assigns each parameter to the attribute of
its name writes every field name three times and leaves the record
mutable; ``collections.namedtuple`` writes it once, and its instances
refuse assignment and carry no ``__dict__``.
"""

import ast
from pathlib import Path

import pytest

from pappus.fareycomb import LimitFlag
from pappus.fareypattern import FareyPattern, PatternGeodesic
from pappus.prisms import AdjacencyReport, BendingReport, ConeMesh, InflectionData, Prism, PrismReport

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "pappus").glob("*.py"))

RECORDS = [LimitFlag, PatternGeodesic, FareyPattern, Prism, InflectionData, PrismReport,
           AdjacencyReport, BendingReport, ConeMesh]


def only_stores_its_parameters(cls: ast.ClassDef) -> bool:
    """Whether the class's ``__init__``, docstring aside, only runs ``self.name = name``
    for its own parameters."""
    init = next((f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"), None)
    if init is None:
        return False
    this, *params = [a.arg for a in init.args.posonlyargs + init.args.args + init.args.kwonlyargs]
    body = init.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]

    def stores(stmt) -> bool:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        value = getattr(stmt, "value", None)
        return (isinstance(stmt, (ast.Assign, ast.AnnAssign)) and len(targets) == 1
                and isinstance(targets[0], ast.Attribute) and isinstance(targets[0].value, ast.Name)
                and targets[0].value.id == this and isinstance(value, ast.Name)
                and value.id == targets[0].attr and value.id in params)

    return bool(body) and all(stores(stmt) for stmt in body)


def test_records_are_named_tuples():
    hand_written = [f"{path.stem}.{node.name}" for path in PACKAGE
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ClassDef) and only_stores_its_parameters(node)]
    assert hand_written == []
    for cls in RECORDS:
        record = cls(*[None] * len(cls._fields))
        assert not hasattr(record, "__dict__"), cls.__name__
        for name in (cls._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
