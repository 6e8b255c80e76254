"""Marked boxes and their modular dynamics.

A marked box is a convex overlapping-pencils configuration: six points
(s, t, u, a, b, c) with (s, t, u) on one line, (a, b, c) on another,
and the interior marked points t, b distinguished.  The sextuple is
considered equal to its flip (u, t, s, c, b, a).

Three operations act on marked boxes: the involution ``op_i`` swapping
top and bottom, and the two hexagon-line moves ``op_t`` and ``op_b``
that nest a new box against the top or bottom edge.  They satisfy

    i^2 = 1,  tit = b,  bib = t,  tibi = biti = 1,  (it)^3 = (ib)^3 = 1,

so <i, t, b> is the free product of a 2-cycle and a 3-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .projective import (
    DEFAULT_TOL,
    CoincidentLines,
    CoincidentPoints,
    Flag,
    Polarity,
    ProjectiveError,
    ProjLine,
    ProjMap,
    ProjPoint,
    Scalar,
    cross_ratio,
    is_exact_scalar,
    mat_mul,
    mat_transpose,
    transform_from_correspondence,
    triple_product,
)


class DegenerateBox(ProjectiveError):
    pass


class OutOfRange(ProjectiveError):
    pass


def _collinear(p, q, r, tol=1e-7) -> bool:
    d = (
        p.v[0] * (q.v[1] * r.v[2] - q.v[2] * r.v[1])
        - p.v[1] * (q.v[0] * r.v[2] - q.v[2] * r.v[0])
        + p.v[2] * (q.v[0] * r.v[1] - q.v[1] * r.v[0])
    )
    if p.exact and q.exact and r.exact:
        return d == 0
    return abs(float(d)) <= tol


@dataclass(frozen=True)
class MarkedBox:
    s: ProjPoint
    t: ProjPoint
    u: ProjPoint
    a: ProjPoint
    b: ProjPoint
    c: ProjPoint

    def __post_init__(self):
        top = (self.s, self.t, self.u)
        bot = (self.a, self.b, self.c)
        if not _collinear(*top):
            raise DegenerateBox("top triple (s, t, u) must be collinear")
        if not _collinear(*bot):
            raise DegenerateBox("bottom triple (a, b, c) must be collinear")
        for trip in (top, bot):
            for i in range(3):
                for j in range(i + 1, 3):
                    if trip[i].same(trip[j]):
                        raise DegenerateBox("marked edge points must be distinct")
        if _collinear(self.s, self.u, self.a) and _collinear(self.s, self.u, self.c):
            raise DegenerateBox("top and bottom edges lie on one line")

    def sextuple(self) -> Tuple[ProjPoint, ...]:
        return (self.s, self.t, self.u, self.a, self.b, self.c)

    def flip(self) -> "MarkedBox":
        return MarkedBox(self.u, self.t, self.s, self.c, self.b, self.a)

    @property
    def exact(self) -> bool:
        return all(p.exact for p in self.sextuple())

    def same_box(self, other: "MarkedBox", tol: float = DEFAULT_TOL) -> bool:
        """Equality of marked boxes, modulo the flip identification."""
        direct = all(p.same(q, tol) for p, q in zip(self.sextuple(), other.sextuple()))
        if direct:
            return True
        return all(p.same(q, tol) for p, q in zip(self.sextuple(), other.flip().sextuple()))


@dataclass(frozen=True)
class DualMarkedBox:
    """Marked box in the dual plane: six lines, three by three concurrent."""

    S: ProjLine
    T: ProjLine
    U: ProjLine
    A: ProjLine
    B: ProjLine
    C: ProjLine

    def __post_init__(self):
        if not _collinear(self.S, self.T, self.U):
            raise DegenerateBox("top line triple must be concurrent")
        if not _collinear(self.A, self.B, self.C):
            raise DegenerateBox("bottom line triple must be concurrent")

    def sextuple(self) -> Tuple[ProjLine, ...]:
        return (self.S, self.T, self.U, self.A, self.B, self.C)

    def flip(self) -> "DualMarkedBox":
        return DualMarkedBox(self.U, self.T, self.S, self.C, self.B, self.A)

    def same_dual(self, other: "DualMarkedBox", tol: float = DEFAULT_TOL) -> bool:
        direct = all(p.same(q, tol) for p, q in zip(self.sextuple(), other.sextuple()))
        if direct:
            return True
        return all(p.same(q, tol) for p, q in zip(self.sextuple(), other.flip().sextuple()))


def model_box(p: Scalar, q: Scalar) -> MarkedBox:
    """Normalized marked box with marked points at parameters p and q.

    The corners sit at (-1, 1, 0), (1, 1, 0), (1, 0, 1), (-1, 0, 1) and
    the marked points at (p, 1, 0) and (q, 0, 1); convexity needs
    |p| < 1 and |q| < 1.  Its box invariant is [((1+p)/2, (1-q)/2)].
    """
    if not (abs(p) < 1 and abs(q) < 1):
        raise OutOfRange(f"model box needs |p| < 1 and |q| < 1, got {p}, {q}")
    one = 1 if is_exact_scalar(p) and is_exact_scalar(q) else 1.0
    zero = 0 * one
    return MarkedBox(
        ProjPoint((-one, one, zero)),
        ProjPoint((p, one, zero)),
        ProjPoint((one, one, zero)),
        ProjPoint((one, zero, one)),
        ProjPoint((q, zero, one)),
        ProjPoint((-one, zero, one)),
    )


def top_flag(m: MarkedBox) -> Flag:
    return Flag(m.t, m.s.join(m.u))

def bottom_flag(m: MarkedBox) -> Flag:
    return Flag(m.b, m.a.join(m.c))


def _hexagon_points(m: MarkedBox):
    """The three interior hexagon points, collinear on the cross axis."""
    try:
        a2 = m.t.join(m.a).meet(m.u.join(m.b))
        b2 = m.s.join(m.a).meet(m.u.join(m.c))
        c2 = m.t.join(m.c).meet(m.s.join(m.b))
    except (CoincidentPoints, CoincidentLines) as e:
        raise DegenerateBox(f"hexagon construction degenerates: {e}")
    return a2, b2, c2


def op_i(m: MarkedBox) -> MarkedBox:
    return MarkedBox(m.a, m.b, m.c, m.u, m.t, m.s)


def op_t(m: MarkedBox) -> MarkedBox:
    a2, b2, c2 = _hexagon_points(m)
    return MarkedBox(m.s, m.t, m.u, a2, b2, c2)


def op_b(m: MarkedBox) -> MarkedBox:
    # mirror of op_t: the same hexagon points become the new top edge,
    # the old bottom is kept (reversed so the flip-class matches tit)
    a2, b2, c2 = _hexagon_points(m)
    return MarkedBox(a2, b2, c2, m.c, m.b, m.a)


def apply_word_box(word: str, m: MarkedBox) -> MarkedBox:
    """Apply a word over {i, t, b}, leftmost letter first."""
    ops = {"i": op_i, "t": op_t, "b": op_b}
    for ch in word:
        m = ops[ch](m)
    return m


def raw_invariant(m: MarkedBox) -> Tuple[Scalar, Scalar]:
    """Ordered invariant pair before the flip identification."""
    zeta = m.s.join(m.u).meet(m.c.join(m.a))
    x = cross_ratio(m.s, m.t, m.u, zeta)
    y = cross_ratio(m.a, m.b, m.c, zeta)
    return x, y


def doppelganger(m: MarkedBox) -> DualMarkedBox:
    """Companion line sextuple of a marked box.

    The top lines pass through t and the bottom lines through b, so the
    result is a marked box in the dual plane.
    """
    return DualMarkedBox(
        m.c.join(m.t),
        m.s.join(m.u),
        m.a.join(m.t),
        m.s.join(m.b),
        m.a.join(m.c),
        m.u.join(m.b),
    )


def map_box(g: ProjMap, m: MarkedBox) -> MarkedBox:
    return MarkedBox(*(g.apply_point(p) for p in m.sextuple()))


def polarity_box_to_dual(delta: Polarity, m: MarkedBox) -> DualMarkedBox:
    return DualMarkedBox(*(delta.point_to_line(p) for p in m.sextuple()))


def polarity_dual_to_box(delta: Polarity, d: DualMarkedBox) -> MarkedBox:
    return MarkedBox(*(delta.line_to_point(line) for line in d.sextuple()))


def _model_params(m: MarkedBox) -> Tuple[Scalar, Scalar]:
    x, y = raw_invariant(m)
    return 2 * x - 1, 1 - 2 * y


def box_polarity(m: MarkedBox) -> Polarity:
    """The polarity swapping a marked box with its involution image.

    In model coordinates with marked parameters (p, q) the matrix is
    [[1, -p, -q], [-p, 1, pq], [-q, pq, 1]], definite exactly when the
    box is convex; a general box is first normalized onto the model via
    its corner quadruple, and the matrix pulls back as N^T m N.
    """
    p, q = _model_params(m)
    model = model_box(p, q) if abs(p) < 1 and abs(q) < 1 else None
    if model is None:
        raise DegenerateBox("box polarity needs a convex box")
    n = transform_from_correspondence(
        (m.s, m.u, m.a, m.c), (model.s, model.u, model.a, model.c)
    )
    if not (n.apply_point(m.t).same(model.t, 1e-7) and n.apply_point(m.b).same(model.b, 1e-7)):
        raise DegenerateBox("box does not normalize onto the model frame")
    mm = ((1 + 0 * p, -p, -q), (-p, 1 + 0 * p, p * q), (-q, p * q, 1 + 0 * p))
    qmat = mat_mul(mat_transpose(n.m), mat_mul(mm, n.m))
    return Polarity(qmat)


def box_triple_product(m: MarkedBox) -> Scalar:
    """Triple product of the top flags of i(M), t(M), b(M).

    Closed form in invariant coordinates: -x(1-x) / (y(1-y)), which is
    well defined on the flip class.
    """
    flags = [top_flag(op_i(m)), top_flag(op_t(m)), top_flag(op_b(m))]
    return triple_product(flags)


def order3_transform(m: MarkedBox) -> ProjMap:
    """Projective map of order three cycling t(M) -> b(M) -> i(M) -> t(M)."""
    tb, bb, ib = op_t(m), op_b(m), op_i(m)

    def corners(box: MarkedBox):
        return (box.s, box.u, box.a, box.c)

    candidates = []
    for target in (bb, bb.flip()):
        try:
            g = transform_from_correspondence(corners(tb), corners(target))
        except ProjectiveError:
            continue
        candidates.append(g)
    for g in candidates:
        if map_box(g, tb).same_box(bb, 1e-7) and map_box(g, bb).same_box(ib, 1e-7):
            return g
    raise DegenerateBox("no order-3 symmetry carries t(M) to b(M) to i(M)")


def _expand_chunk(rows: Sequence[Tuple[str, MarkedBox]]) -> List[Tuple[str, MarkedBox]]:
    """The t-child then the b-child of every row, in row order."""
    return [pair for w, m in rows for pair in ((w + "t", op_t(m)), (w + "b", op_b(m)))]


def tb_tree(roots: Sequence[Tuple[str, MarkedBox]], depth: int, pool=None,
            workers: int = 1) -> List[Tuple[str, MarkedBox]]:
    """The roots and every t/b word below them up to ``depth``, breadth first.

    Each level lists the children in the order of their parents, so
    words of one length keep the order of the roots.  With a pool, a
    level of at least ``8 * workers`` rows is expanded in contiguous
    ``pool.map`` chunks; the flattened result is the same list as the
    serial expansion.
    """
    level = list(roots)
    out = list(level)
    for _ in range(depth):
        if pool is None or len(level) < 8 * workers:
            level = _expand_chunk(level)
        else:
            step = (len(level) + workers - 1) // workers
            chunks = [level[k:k + step] for k in range(0, len(level), step)]
            level = [pair for part in pool.map(_expand_chunk, chunks) for pair in part]
        out.extend(level)
    return out


def orbit_enumerate(m: MarkedBox, depth: int, pool=None,
                    workers: int = 1) -> List[Tuple[str, MarkedBox]]:
    """All boxes w(M) and w(i(M)) for words w over {t, b} of length <= depth.

    Breadth first, t-child before b-child, M-rooted words before the
    i(M)-rooted words of the same length.  Words read left to right in
    application order, so "it" means i first, then t.  ``pool`` and
    ``workers`` are passed to :func:`tb_tree`.
    """
    if depth < 0:
        raise OutOfRange("depth must be nonnegative")
    return tb_tree([("", m), ("i", op_i(m))], depth, pool, workers)
