"""Span tracer that instruments the pappus package from outside.

Each layer is one package module.  ``instrument`` wraps the public
callables a layer defines (functions, class constructors and public
methods) and rebinds every copy that ``from .x import y`` left in the
other package modules, so a call is recorded whichever name it goes
through.  ``multiprocessing.Pool`` is wrapped too, because the CLI
reaches its workers through it.

A span's self time is its duration minus the time its child spans
cover.  Spans are aggregated in memory per name (calls, self and total
seconds) and per caller -> callee edge; nothing is written while a run
is being traced.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing
import time
import types
from typing import Callable, Dict, List, Tuple

LAYERS = ("projective", "markedbox", "fareycomb", "symmspace", "fareypattern", "prisms", "cli")

# private callables that a per-layer metric names; every other private name stays unwrapped
PRIVATE_SPANS = {"fareypattern": ("_pairwise_min",)}


class Tracer:
    """Aggregates nested spans: calls, self time and total time per name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, List] = {}
        self.edges: Dict[Tuple[str, str], int] = {}
        self._stack: List[List] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack, clock, close = self._stack, self.clock, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, clock() - start)

        return traced

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Span(self, name)

    def _close(self, frame: List, duration: float) -> None:
        self._stack.pop()
        name = frame[0]
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration - frame[1]
        st[2] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        key = (parent[0] if parent else "", name)
        self.edges[key] = self.edges.get(key, 0) + 1

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def self_sum(self) -> float:
        return sum(st[1] for st in self.stats.values())


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.frame = tracer, [name, 0.0]

    def __enter__(self):
        self.tracer._stack.append(self.frame)
        self.start = self.tracer.clock()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.frame, self.tracer.clock() - self.start)
        return False


def span_name(layer: str, attr: str, method=None) -> str:
    """Metric prefix of a wrapped callable.

    A function keeps its name without leading underscores
    (``cli.cmd_orbit`` becomes ``cli.orbit``), a class constructor is
    the lower-cased class name (``XPoint`` becomes ``symmspace.xpoint``)
    and a method is ``layer.Class.method``.
    """
    if method == "__init__":
        return f"{layer}.{attr.lower()}"
    if method is not None:
        return f"{layer}.{attr}.{method}"
    attr = attr.lstrip("_")
    if layer == "cli" and attr.startswith("cmd_"):
        attr = attr[4:]
    return f"{layer}.{attr}"


class Instrumentation:
    """The patches one ``instrument`` call made; ``undo`` restores them."""

    def __init__(self):
        self.patches: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self.patches:
            owner, attr, old = self.patches.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()
        return False


def _wrap_pool(tracer: Tracer, real_pool: Callable) -> Callable:
    def pool(*args, **kwargs):
        with tracer.span("cli.pool.start"):
            p = real_pool(*args, **kwargs)
        p.map = tracer.wrap("cli.pool.map", p.map)
        return p

    return pool


def instrument(tracer: Tracer, package: str = "pappus") -> Instrumentation:
    """Wrap every layer's public callables and rebind their imported copies."""
    pkg = importlib.import_module(package)
    mods = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    inst = Instrumentation()
    wrapped: Dict[int, Tuple[object, Callable]] = {}
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE_SPANS.get(layer, ()):
                continue
            if isinstance(obj, types.FunctionType):
                wrapped[id(obj)] = (obj, tracer.wrap(span_name(layer, attr), obj))
            elif isinstance(obj, type) and not issubclass(obj, BaseException):
                for meth, fn in list(vars(obj).items()):
                    if isinstance(fn, types.FunctionType) and (meth == "__init__" or not meth.startswith("_")):
                        inst.set(obj, meth, tracer.wrap(span_name(layer, attr, meth), fn))
    for mod in (pkg, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                inst.set(mod, attr, hit[1])
    inst.set(multiprocessing, "Pool", _wrap_pool(tracer, multiprocessing.Pool))
    return inst
