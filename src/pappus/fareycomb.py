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

hold, matching the marked-box operations letter for letter.  So a t/b
word of boxes walks the Farey tree edge by edge, and the limit set of
the one-sided orbit is folded here, one flag per Farey vertex.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import Dict, List, Sequence, Tuple

from .projective import PappusError
from .markedbox import MarkedBox, bottom_flag, pattern_boxes, top_flag


class FareyError(PappusError):
    pass


class NotAdjacent(FareyError):
    pass


class Rational:
    """Reduced fraction n/d with d >= 0; (1, 0) is the point at infinity."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        if n == 0 and d == 0:
            raise FareyError("0/0 is not a vertex")
        g = gcd(n, d)
        self.n, self.d = _signed((n // g, d // g))

    def __eq__(self, other):
        return isinstance(other, Rational) and (self.n, self.d) == (other.n, other.d)

    def __hash__(self):
        return hash((self.n, self.d))

    @property
    def infinite(self) -> bool:
        return self.d == 0

    def circular_key(self):
        """Sort key walking the circle once, starting at infinity."""
        return (0,) if self.infinite else (1, Fraction(self.n, self.d))


Vec = Tuple[int, int]


def _signed(v: Vec) -> Vec:
    """A reduced (n, d) with ``Rational``'s signs: d >= 0, and n > 0 when d = 0."""
    n, d = v
    return (-n, -d) if d < 0 or (d == 0 and n < 0) else v


INF = Rational(1, 0)


def _det(p: Vec, q: Vec) -> int:
    return p[0] * q[1] - p[1] * q[0]


class OrientedEdge:
    """Oriented Farey edge as a determinant +1 pair of integer vectors."""

    __slots__ = ("p", "q")

    def __init__(self, p: Vec, q: Vec):
        if len(p) != 2 or len(q) != 2:
            raise FareyError(f"edge endpoints must be pairs, got {p} and {q}")
        if gcd(p[0], p[1]) != 1 or gcd(q[0], q[1]) != 1:
            raise FareyError("edge endpoints must be primitive vectors")
        d = _det(p, q)
        if d == -1:
            q = (-q[0], -q[1])
        elif d != 1:
            raise NotAdjacent(f"vertices {p} and {q} are not Farey-adjacent")
        # the sign of the class in PSL(2, Z) is fixed by the tail's signs
        if _signed(p) != p:
            p, q = (-p[0], -p[1]), (-q[0], -q[1])
        self.p = p
        self.q = q

    def __eq__(self, other):
        return isinstance(other, OrientedEdge) and (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash((self.p, self.q))

    @property
    def tail(self) -> Rational:
        return Rational(*self.p)

    @property
    def head(self) -> Rational:
        return Rational(*self.q)


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


# --- limit set ----------------------------------------------------------------

LimitFlag = namedtuple("LimitFlag", "vertex flag word edge")


def fold_limit_flags(rows: Sequence[Tuple[str, MarkedBox]]) -> List[LimitFlag]:
    """First-witness flag per Farey vertex over breadth-first (word, box) rows.

    A row's edge is one letter applied to its parent word's edge, so the
    parent row must come first.  The tail of the edge carries the box's
    top flag and the head its bottom flag.  The flags come back in
    circular order of their vertices.
    """
    edges: Dict[str, OrientedEdge] = {}
    # keyed by the endpoint's primitive (n, d) with Rational's signs, so a
    # Rational is built only for a vertex's first witness
    seen: Dict[Vec, LimitFlag] = {}
    for word, box in rows:
        e = edges[word] = word_apply(word[-1], edges[word[:-1]]) if word else default_base_edge()
        for end, flag_of in ((e.p, top_flag), (e.q, bottom_flag)):
            key = _signed(end)
            if key not in seen:
                seen[key] = LimitFlag(vertex=Rational(*key), flag=flag_of(box), word=word, edge=e)
    return sorted(seen.values(), key=lambda lf: lf.vertex.circular_key())


def limit_set_flags(x, y, depth: int, workers: int = 1) -> List[LimitFlag]:
    """Flags of the one-sided orbit, one per Farey vertex, in circular order."""
    return fold_limit_flags(pattern_boxes(x, y, depth, workers))
