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
from typing import Dict, List, Sequence, Tuple

from .markedbox import MarkedBox, apply_word_box
from .projective import PappusError


class FareyError(PappusError):
    pass


class NotAdjacent(FareyError):
    pass


class ConsistencyFailure(FareyError):
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

    def as_fraction(self) -> Fraction:
        if self.infinite:
            raise FareyError("1/0 has no finite value")
        return Fraction(self.n, self.d)

    def circular_key(self):
        """Sort key walking the circle once, starting at infinity."""
        return (0,) if self.infinite else (1, Fraction(self.n, self.d))

    def __str__(self) -> str:
        return f"{self.n}/{self.d}" if self.d != 1 else str(self.n)


INF = Rational(1, 0)

Vec = Tuple[int, int]


def _det(p: Vec, q: Vec) -> int:
    return p[0] * q[1] - p[1] * q[0]


def mediant(r1: Rational, r2: Rational) -> Rational:
    """Stern-Brocot mediant of the canonical fraction representatives."""
    return Rational(r1.n + r2.n, r1.d + r2.d)


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

    @property
    def new_vertex(self) -> Rational:
        """Third vertex of the expansion triangle of this edge."""
        return Rational(self.p[0] + self.q[0], self.p[1] + self.q[1])

    def unoriented(self) -> frozenset:
        return frozenset((self.tail, self.head))

    def matrix(self) -> Tuple[int, int, int, int]:
        """Column matrix (tail | head), determinant one; class mod sign."""
        return (self.p[0], self.q[0], self.p[1], self.q[1])

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


def triangle_of(e: OrientedEdge) -> frozenset:
    """Expansion triangle of an edge as a frozenset of three vertices."""
    return frozenset((e.tail, e.head, e.new_vertex))


def triangle_edges(e: OrientedEdge) -> frozenset:
    """The triangle as a set of three unoriented edges."""
    return frozenset((e.unoriented(), edge_t(e).unoriented(), edge_b(e).unoriented()))


def enumerate_triangles(base: OrientedEdge, depth: int) -> List[frozenset]:
    """Expansion triangles on the side of ``base``, breadth first.

    Triangles are frozensets of three vertices; 2^(depth+1) - 1 of them
    are produced.  The mirror family lives on the other side of the
    base geodesic and is enumerated from edge_i(base).
    """
    if depth < 0:
        raise FareyError("depth must be nonnegative")
    seen: Dict[frozenset, None] = {}
    level = [base]
    for _ in range(depth + 1):
        nxt: List[OrientedEdge] = []
        for e in level:
            tri = triangle_of(e)
            if tri not in seen:
                seen[tri] = None
            nxt.append(edge_t(e))
            nxt.append(edge_b(e))
        level = nxt
    return list(seen)


# --- circular order on the boundary circle of vertices ---------------------

def _ord3(u: Vec, v: Vec, w: Vec) -> int:
    """Orientation of a vertex triple on the circle; representative-free."""
    s = _det(u, v) * _det(v, w) * _det(w, u)
    return (s > 0) - (s < 0)


def in_closed_arc(x: Rational, tail: Rational, head: Rational, witness: Rational) -> bool:
    """Is x in the closed arc cut off by {tail, head} containing witness?"""
    if x == tail or x == head:
        return True
    u, w = (tail.n, tail.d), (head.n, head.d)
    side = _ord3(u, (witness.n, witness.d), w)
    if side == 0:
        raise FareyError("witness lies on the arc boundary")
    return _ord3(u, (x.n, x.d), w) == side


def halfplane_contains_edge(outer: OrientedEdge, inner: OrientedEdge) -> bool:
    """Weak containment of the inner edge in the halfplane of the outer edge.

    The halfplane of an edge is bounded by its geodesic and contains its
    expansion triangle; containment is checked on boundary arcs.
    """
    wit = outer.new_vertex
    return in_closed_arc(inner.tail, outer.tail, outer.head, wit) and \
        in_closed_arc(inner.head, outer.tail, outer.head, wit)


# --- words as modular group elements ----------------------------------------

_R = (0, -1, 1, 0)
_U = (1, 1, 0, 1)
_L = (1, 0, 1, 1)
_LETTER_MATRIX = {"i": _R, "t": _U, "b": _L}


def _mul2(a, b) -> Tuple[int, int, int, int]:
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def word_matrix(word: str) -> Tuple[int, int, int, int]:
    """Product of letter matrices in application order."""
    m = (1, 0, 0, 1)
    for ch in word:
        m = _mul2(m, _LETTER_MATRIX[ch])
    return m


def _proportional_mod_sign(a, b) -> bool:
    return a == b or a == tuple(-x for x in b)


def reduce_word(word: str) -> str:
    """Canonical reduced form of a word over {i, t, b}.

    Rewrites through the free product structure: with the 2-cycle x = i
    and the 3-cycle y = it, letters expand as i -> x, t -> xy,
    b -> xyy; syllables cancel and the result is read back out.
    """
    sylls: List[Tuple[str, int]] = []

    def push(kind: str, exp: int):
        if sylls and sylls[-1][0] == kind:
            prev = sylls.pop()
            total = (prev[1] + exp) % (2 if kind == "x" else 3)
            if total:
                sylls.append((kind, total))
        else:
            sylls.append((kind, exp))

    for ch in word:
        if ch == "i":
            push("x", 1)
        elif ch == "t":
            push("x", 1)
            push("y", 1)
        elif ch == "b":
            push("x", 1)
            push("y", 2)
        else:
            raise FareyError(f"unknown letter {ch!r}")

    out: List[str] = []
    k = 0
    while k < len(sylls):
        kind, exp = sylls[k]
        if kind == "x" and k + 1 < len(sylls) and sylls[k + 1][0] == "y":
            out.append("t" if sylls[k + 1][1] == 1 else "b")
            k += 2
        elif kind == "x":
            out.append("i")
            k += 1
        else:
            out.append("it" if exp == 1 else "ib")
            k += 1
    reduced = "".join(out)
    if not _proportional_mod_sign(word_matrix(reduced), word_matrix(word)):
        raise ConsistencyFailure("word reduction changed the group element")
    return reduced


def _matrix_to_word(m: Tuple[int, int, int, int]) -> str:
    """Some word over {i, t, b} whose matrix is +-m."""
    a, b, c, d = m
    if a * d - b * c != 1:
        raise FareyError("matrix must have determinant one")

    def tpow(n: int) -> str:
        if n == 0:
            return ""
        if n > 0:
            return "t" * n
        return "i" + "b" * (-n) + "i"

    pieces: List[str] = []
    while c != 0:
        qq = a // c
        pieces.append(tpow(qq))
        pieces.append("i")
        # peel T^qq then S from the left: W <- S^{-1} T^{-qq} W
        a, b = a - qq * c, b - qq * d
        a, b, c, d = c, d, -a, -b
    # now W = [[a, b], [0, d]] with a = d = +-1
    pieces.append(tpow(b * a))
    word = "".join(pieces)
    if not _proportional_mod_sign(word_matrix(word), m):
        raise ConsistencyFailure("matrix decomposition failed")
    return word


def edge_word(base: OrientedEdge, target: OrientedEdge) -> str:
    """Reduced word w with target = w(base)."""
    a, b, c, d = base.matrix()
    # adjugate gives the determinant-one inverse
    inv = (d, -b, -c, a)
    w = _mul2(inv, target.matrix())
    word = reduce_word(_matrix_to_word(w))
    if word_apply(word, base) != target:
        raise ConsistencyFailure("edge word does not reproduce the target edge")
    return word


def intertwine(base_edge: OrientedEdge, base_box: MarkedBox,
               target: OrientedEdge) -> MarkedBox:
    """Transport a box along the correspondence edge -> box.

    Expresses the target as w(base_edge) with w reduced and returns
    w(base_box); the result does not depend on the witnessing word.
    """
    return apply_word_box(edge_word(base_edge, target), base_box)
