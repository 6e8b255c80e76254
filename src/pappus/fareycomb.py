"""Farey graph combinatorics for oriented ideal edges.

Vertices are rationals together with 1/0; two vertices a/b and c/d are
joined exactly when |ad - bc| = 1.  An oriented edge is stored by a
pair of primitive integer vectors (tail, head) normalized so their
2x2 determinant is +1, which realizes edges as classes in PSL(2, Z).

The involution ``edge_i`` reverses an edge.  ``edge_t`` and ``edge_b``
move to the two other sides of the expansion triangle of the edge: the
tail-preserving side and the head-preserving side through the new
vertex tail+head.  In matrix form i, t, b act by right multiplication
with [[0,-1],[1,0]], [[1,1],[0,1]], [[1,0],[1,1]], and the relations

    i^2 = 1, tit = b, bib = t, tibi = biti = 1, (it)^3 = (ib)^3 = 1

hold, matching the marked-box operations letter for letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Tuple

from .projective import PappusError


class FareyError(PappusError):
    pass


class NotAdjacent(FareyError):
    pass


@dataclass(frozen=True, order=False)
class Rational:
    """Reduced fraction n/d with d >= 0; (1, 0) is the point at infinity."""

    n: int
    d: int

    def __init__(self, n: int, d: int = 1):
        if n == 0 and d == 0:
            raise FareyError("0/0 is not a vertex")
        g = gcd(n, d)
        n, d = n // g, d // g
        if d < 0 or (d == 0 and n < 0):
            n, d = -n, -d
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)

    @property
    def infinite(self) -> bool:
        return self.d == 0

    def circular_key(self):
        """Sort key walking the circle once, starting at infinity."""
        return (0,) if self.infinite else (1, Fraction(self.n, self.d))

    def __str__(self) -> str:
        return f"{self.n}/{self.d}" if self.d != 1 else str(self.n)


INF = Rational(1, 0)

Vec = Tuple[int, int]


def _det(p: Vec, q: Vec) -> int:
    return p[0] * q[1] - p[1] * q[0]


def _canon_pair(p: Vec, q: Vec) -> Tuple[Vec, Vec]:
    if p[1] < 0 or (p[1] == 0 and p[0] < 0):
        p, q = (-p[0], -p[1]), (-q[0], -q[1])
    return p, q


@dataclass(frozen=True)
class OrientedEdge:
    """Oriented Farey edge as a determinant +1 pair of integer vectors."""

    p: Vec
    q: Vec

    def __init__(self, p: Vec, q: Vec):
        if gcd(p[0], p[1]) != 1 or gcd(q[0], q[1]) != 1:
            raise FareyError("edge endpoints must be primitive vectors")
        d = _det(p, q)
        if d == -1:
            q = (-q[0], -q[1])
        elif d != 1:
            raise NotAdjacent(f"vertices {p} and {q} are not Farey-adjacent")
        p, q = _canon_pair(p, q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @staticmethod
    def from_rationals(tail: Rational, head: Rational) -> "OrientedEdge":
        return OrientedEdge((tail.n, tail.d), (head.n, head.d))

    @property
    def tail(self) -> Rational:
        return Rational(*self.p)

    @property
    def head(self) -> Rational:
        return Rational(*self.q)

    def __str__(self) -> str:
        return f"{self.tail}->{self.head}"


def default_base_edge() -> OrientedEdge:
    return OrientedEdge((1, 0), (0, 1))


def edge_i(e: OrientedEdge) -> OrientedEdge:
    return OrientedEdge(e.q, (-e.p[0], -e.p[1]))


def edge_t(e: OrientedEdge) -> OrientedEdge:
    return OrientedEdge(e.p, (e.p[0] + e.q[0], e.p[1] + e.q[1]))


def edge_b(e: OrientedEdge) -> OrientedEdge:
    return OrientedEdge((e.p[0] + e.q[0], e.p[1] + e.q[1]), e.q)


_EDGE_OPS = {"i": edge_i, "t": edge_t, "b": edge_b}


def word_apply(word: str, e: OrientedEdge) -> OrientedEdge:
    """Apply a word over {i, t, b} to an edge, leftmost letter first."""
    for ch in word:
        e = _EDGE_OPS[ch](e)
    return e
