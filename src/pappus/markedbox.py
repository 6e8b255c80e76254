"""Marked boxes and their modular dynamics.

A marked box is a convex overlapping-pencils configuration: six points
(s, t, u, a, b, c) with (s, t, u) on one line, (a, b, c) on another,
and the interior marked points t, b distinguished.  The sextuple is
considered equal to its flip (u, t, s, c, b, a).  A box's six points,
like a dual box's six lines, share one backend.

Three operations act on marked boxes: the involution ``op_i`` swapping
top and bottom, and the two hexagon-line moves ``op_t`` and ``op_b``
that nest a new box against the top or bottom edge.  Both moves, and the
walk that builds t(M) and b(M) together, build the one Pappus hexagon of
M on its stored triples and run only the checks their children add.
They satisfy

    i^2 = 1,  tit = b,  bib = t,  tibi = biti = 1,  (it)^3 = (ib)^3 = 1,

so <i, t, b> is the free product of a 2-cycle and a 3-cycle.
"""

from __future__ import annotations

import math
import os
from typing import List, Optional, Sequence, Tuple

from .projective import (
    Flag,
    Polarity,
    ProjectiveError,
    ProjLine,
    ProjPoint,
    Scalar,
    _built,
    _exact_cross,
    _float_cross,
    cross3,
    cross_ratio,
    dot3,
    is_exact_scalar,
    join,
    mat_mul,
    mat_transpose,
    meet,
    triple_product,
)


class DegenerateBox(ProjectiveError):
    pass


class OutOfRange(ProjectiveError):
    pass


def _collinear(p, q, r) -> bool:
    """Collinearity of three vectors of one backend."""
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = p.v, q.v, r.v
    n0, n1, n2 = q1 * r2 - q2 * r1, q2 * r0 - q0 * r2, q0 * r1 - q1 * r0
    d = p0 * n0 + p1 * n1 + p2 * n2
    if p.exact:
        return d == 0
    # the sine of p's angle to the plane of q and r is at most 1e-7
    return d * d <= 1e-14 * (n0 * n0 + n1 * n1 + n2 * n2) * (p0 * p0 + p1 * p1 + p2 * p2)


def _one_backend(sextuple) -> None:
    exact = sextuple[0].exact
    if any(x.exact != exact for x in sextuple):
        raise DegenerateBox("a box's six entries must share one backend")


def _same_up_to_flip(xs, ys) -> bool:
    """Pointwise projective equality of two sextuples, directly or after
    the flip of the second, (s, t, u, a, b, c) -> (u, t, s, c, b, a)."""
    flipped = (ys[2], ys[1], ys[0], ys[5], ys[4], ys[3])
    return any(all(p.same(q) for p, q in zip(xs, zs)) for zs in (ys, flipped))


class MarkedBox:
    """Two marked edges of one backend, equal to a box with the same six
    stored triples (``same_box`` compares up to scale and the flip)."""

    __slots__ = ("s", "t", "u", "a", "b", "c")

    def __init__(self, s: ProjPoint, t: ProjPoint, u: ProjPoint,
                 a: ProjPoint, b: ProjPoint, c: ProjPoint):
        self.s, self.t, self.u, self.a, self.b, self.c = s, t, u, a, b, c
        _one_backend(self.sextuple())
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

    def __eq__(self, other):
        return isinstance(other, MarkedBox) and all(
            p.v == q.v for p, q in zip(self.sextuple(), other.sextuple()))

    def sextuple(self) -> Tuple[ProjPoint, ...]:
        return (self.s, self.t, self.u, self.a, self.b, self.c)

    def same_box(self, other: "MarkedBox") -> bool:
        """Equality of marked boxes, modulo the flip identification."""
        return _same_up_to_flip(self.sextuple(), other.sextuple())


class DualMarkedBox:
    """Marked box in the dual plane: six lines, three by three concurrent."""

    __slots__ = ("S", "T", "U", "A", "B", "C")

    def __init__(self, S: ProjLine, T: ProjLine, U: ProjLine,
                 A: ProjLine, B: ProjLine, C: ProjLine):
        self.S, self.T, self.U, self.A, self.B, self.C = S, T, U, A, B, C
        _one_backend(self.sextuple())
        if not _collinear(self.S, self.T, self.U):
            raise DegenerateBox("top line triple must be concurrent")
        if not _collinear(self.A, self.B, self.C):
            raise DegenerateBox("bottom line triple must be concurrent")

    def sextuple(self) -> Tuple[ProjLine, ...]:
        return (self.S, self.T, self.U, self.A, self.B, self.C)

    def same_dual(self, other: "DualMarkedBox") -> bool:
        """Equality of dual marked boxes, modulo the flip identification."""
        return _same_up_to_flip(self.sextuple(), other.sextuple())


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


def _check_params(x, y):
    for v in (x, y):
        if not (0 < v < 1):
            raise OutOfRange("parameters must lie in (0,1)")


def base_box(x, y) -> MarkedBox:
    """Model box whose invariant pair is (x, y)."""
    _check_params(x, y)
    return model_box(2 * x - 1, 1 - 2 * y)


def top_flag(m: MarkedBox) -> Flag:
    return Flag(m.t, join(m.s, m.u))

def bottom_flag(m: MarkedBox) -> Flag:
    return Flag(m.b, join(m.a, m.c))


def op_i(m: MarkedBox) -> MarkedBox:
    return MarkedBox(m.a, m.b, m.c, m.u, m.t, m.s)


def _unchecked_box(s, t, u, a, b, c) -> MarkedBox:
    """A MarkedBox whose checks have all been run, built without running
    them again."""
    m = object.__new__(MarkedBox)
    m.s, m.t, m.u, m.a, m.b, m.c = s, t, u, a, b, c
    return m


def _children(m: MarkedBox, a2: ProjPoint, b2: ProjPoint,
              c2: ProjPoint) -> Tuple[MarkedBox, MarkedBox]:
    """t(M) and b(M) from the hexagon points of a parent whose children have
    passed their checks: t(M) keeps the top edge (s, t, u), b(M) the bottom
    edge reversed (so the flip-class matches tit), and both have the three
    hexagon points as their other edge."""
    return _unchecked_box(m.s, m.t, m.u, a2, b2, c2), _unchecked_box(a2, b2, c2, m.c, m.b, m.a)


def _hexagon(m: MarkedBox, children: str) -> Tuple[ProjPoint, ProjPoint, ProjPoint]:
    """The three interior hexagon points of M, collinear on the cross axis,
    checked for the children named in ``children`` ("t", "b" or "tb").

    The points are built on the stored triples with ``join``'s and
    ``meet``'s arithmetic and zero tests.  ``MarkedBox.__init__`` of
    t(M) and b(M) would re-test the kept edge; M has passed the same tests
    on the same points (``HomVec.same`` is symmetric bit for bit, and an
    exact ``_collinear`` only tests a determinant for zero), so only the
    tests whose inputs are new run, in this order: the hexagon edge's
    collinearity and distinctness, shared by both children; t(M)'s
    edges-on-one-line test; and b(M)'s: on floats the reversed bottom's
    collinearity, which rounds differently from M's, then its
    edges-on-one-line test.
    """
    exact = m.s.exact
    cross = _exact_cross if exact else _float_cross
    s, t, u, a, b, c = m.s.v, m.t.v, m.u.v, m.a.v, m.b.v, m.c.v
    hexagon = []
    for p, q, p2, q2 in ((t, a, u, b), (s, a, u, c), (t, c, s, b)):
        line, line2 = cross(p, q), cross(p2, q2)
        point = None if line is None or line2 is None else cross(line, line2)
        if point is None:
            raise DegenerateBox("hexagon construction degenerates: " + (
                f"join of coincident points {p}" if line is None
                else f"join of coincident points {p2}" if line2 is None
                else f"meet of coincident lines {line}"))
        hexagon.append(_built(ProjPoint, point, exact))
    a2, b2, c2 = hexagon
    if not _collinear(a2, b2, c2):
        raise DegenerateBox("bottom triple (a, b, c) must be collinear")
    if a2.same(b2) or a2.same(c2) or b2.same(c2):
        raise DegenerateBox("marked edge points must be distinct")
    if "t" in children and _collinear(m.s, m.u, a2) and _collinear(m.s, m.u, c2):
        raise DegenerateBox("top and bottom edges lie on one line")
    if "b" in children:
        if not (exact or _collinear(m.c, m.b, m.a)):
            raise DegenerateBox("bottom triple (a, b, c) must be collinear")
        if _collinear(a2, c2, m.c) and _collinear(a2, c2, m.a):
            raise DegenerateBox("top and bottom edges lie on one line")
    return a2, b2, c2


def op_t(m: MarkedBox) -> MarkedBox:
    return _unchecked_box(m.s, m.t, m.u, *_hexagon(m, "t"))


def op_b(m: MarkedBox) -> MarkedBox:
    return _unchecked_box(*_hexagon(m, "b"), m.c, m.b, m.a)


def _tb_children(m: MarkedBox) -> Tuple[MarkedBox, MarkedBox]:
    """t(M) and b(M), from one set of hexagon points."""
    return _children(m, *_hexagon(m, "tb"))


def apply_word_box(word: str, m: MarkedBox) -> MarkedBox:
    """Apply a word over {i, t, b}, leftmost letter first."""
    ops = {"i": op_i, "t": op_t, "b": op_b}
    for ch in word:
        m = ops[ch](m)
    return m


def raw_invariant(m: MarkedBox) -> Tuple[Scalar, Scalar]:
    """Ordered invariant pair before the flip identification."""
    zeta = meet(join(m.s, m.u), join(m.c, m.a))
    x = cross_ratio(m.s, m.t, m.u, zeta)
    y = cross_ratio(m.a, m.b, m.c, zeta)
    return x, y


def invariant_rotations(x, y) -> Tuple[Tuple[Scalar, Scalar], ...]:
    """R^k(x, y) for k = 0, 1, 2, 3 under the invariant recursion
    R(x, y) = (1 - y, x); each entry is built from x and y directly, so a
    float entry is rounded once (1 - (1 - y) need not be y)."""
    return ((x, y), (1 - y, x), (1 - x, 1 - y), (y, 1 - x))


def word_rotation(word: str) -> int:
    """The k with raw_invariant(w(M)) = R^k(raw_invariant(M)) for a word w
    over {i, t, b}: t and b act on the invariant pair by R and i by R^-1
    (criterion 02), so k = #t + #b - #i mod 4."""
    return (len(word) - 2 * word.count("i")) % 4


def doppelganger(m: MarkedBox) -> DualMarkedBox:
    """Companion line sextuple of a marked box.

    The top lines pass through t and the bottom lines through b, so the
    result is a marked box in the dual plane.
    """
    return DualMarkedBox(
        join(m.c, m.t),
        join(m.s, m.u),
        join(m.a, m.t),
        join(m.s, m.b),
        join(m.a, m.c),
        join(m.u, m.b),
    )


def polarity_box_to_dual(delta: Polarity, m: MarkedBox) -> DualMarkedBox:
    return DualMarkedBox(*(delta.point_to_line(p) for p in m.sextuple()))


def polarity_dual_to_box(delta: Polarity, d: DualMarkedBox) -> MarkedBox:
    return MarkedBox(*(delta.line_to_point(line) for line in d.sextuple()))


def box_polarity(m: MarkedBox) -> Polarity:
    """The polarity swapping a marked box with its involution image.

    Closed form on the corner triples: the rows rho_k = f r_k / d_k, with
    r = (u x a, a x s, s x u), d_k = r_k.c and f the first nonzero entry of
    c (1 on floats), carry s, u, a, c to the standard frame e1, e2, e3,
    (1, 1, 1).  By Cramer's rule c = sum_k (d_k / det) p_k for
    det = s.r_1, so the corners are in general position iff det and every
    d_k are nonzero (on floats: |det| above 1e-12 and each |d_k| above
    1e-12 |det|).  There t and b give the model parameters
    p = (x + y)/(y - x) and q = (z - 2x')/z, with
    (x, y, x', z) = (rho_1.t, rho_2.t, rho_1.b, rho_3.b); the box is
    convex iff |p| < 1 and |q| < 1.  The matrix is rho' K rho, where
    K = [[2(1+p), 0, -(1-q)(1+p)], [0, 2(1-p), -(1-q)(1-p)],
    [-(1-q)(1+p), -(1-q)(1-p), 2(1-q)]] is the model form
    [[1, -p, -q], [-p, 1, pq], [-q, pq, 1]] in the model corners' frame.
    So this is N' m N for the box's normalization N onto the model, and
    the frame's one scale (c read first-nonzero-is-one) keeps an exact
    box's rational matrix independent of the stored representatives.

    On exact boxes every step runs on the stored int triples: f cancels
    from p = P / P_d and q = Q / Q_d, K = K' / (P_d Q_d) with K' an int
    matrix, and rho = f R / D with D = d1 d2 d3 and R_k = r_k D / d_k, so
    the matrix is f^2 R' K' R / (P_d Q_d D^2): an int matrix and one
    rational scale.
    """
    s, u, a, c, t, b = m.s.v, m.u.v, m.a.v, m.c.v, m.t.v, m.b.v
    r1, r2, r3 = cross3(u, a), cross3(a, s), cross3(s, u)
    d1, d2, d3 = dot3(r1, c), dot3(r2, c), dot3(r3, c)
    det = dot3(s, r1)
    if not m.s.exact:
        # a corner or marked point on the edges' meet zeroes det, a weight or a denominator
        if abs(det) <= 1e-12 or any(abs(d) <= 1e-12 * abs(det) for d in (d1, d2, d3)):
            raise DegenerateBox("box polarity needs a convex box")
        rho = tuple(tuple(e / d for e in r) for r, d in ((r1, d1), (r2, d2), (r3, d3)))
        x, y = dot3(rho[0], t), dot3(rho[1], t)
        x2, z = dot3(rho[0], b), dot3(rho[2], b)
        try:
            p, q = (x + y) / (y - x), (z - 2 * x2) / z
        except ZeroDivisionError:
            raise DegenerateBox("box polarity needs a convex box") from None
        if not (abs(p) < 1 and abs(q) < 1):
            raise DegenerateBox("box polarity needs a convex box")
        k = ((2 * (1 + p), 0, -(1 - q) * (1 + p)),
             (0, 2 * (1 - p), -(1 - q) * (1 - p)),
             (-(1 - q) * (1 + p), -(1 - q) * (1 - p), 2 * (1 - q)))
        return Polarity(mat_mul(mat_transpose(rho), mat_mul(k, rho)))
    x, y, x2, z = dot3(r1, t) * d2, dot3(r2, t) * d1, dot3(r1, b) * d3, dot3(r3, b) * d1
    # p = (x + y) / (y - x) and q = (z - 2 x2) / z, f cancelled and the d_k cleared
    pn, pd, qn, qd = x + y, y - x, z - 2 * x2, z
    if det == 0 or 0 in (d1, d2, d3, pd, qd) or not (abs(pn) < abs(pd) and abs(qn) < abs(qd)):
        # a corner or marked point on the edges' meet, or a marked point outside its edge
        raise DegenerateBox("box polarity needs a convex box")
    ap, am, cq = pd + pn, pd - pn, qd - qn  # P_d (1 + p), P_d (1 - p), Q_d (1 - q)
    k = ((2 * ap * qd, 0, -cq * ap),
         (0, 2 * am * qd, -cq * am),
         (-cq * ap, -cq * am, 2 * cq * pd))
    rho = tuple(tuple(e * w for e in r) for r, w in ((r1, d2 * d3), (r2, d1 * d3), (r3, d1 * d2)))
    f = c[0] or c[1] or c[2]
    dd = d1 * d2 * d3
    return Polarity(mat_mul(mat_transpose(rho), mat_mul(k, rho)), f * f, pd * qd * dd * dd)


def box_triple_product(m: MarkedBox) -> Scalar:
    """Triple product of the top flags of i(M), t(M), b(M).

    Closed form in invariant coordinates: -x(1-x) / (y(1-y)), which is
    well defined on the flip class.
    """
    return triple_product([top_flag(b) for b in (op_i(m), *_tb_children(m))])


def triple_invariant(x, y) -> float:
    """Orbit-level invariant |log(x(1-x) / y(1-y))| of the invariant pair
    (x, y); zero at the center."""
    _check_params(x, y)
    ratio = (x * (1 - x)) / (y * (1 - y))
    return abs(math.log(float(ratio)))


def _expand_chunk(rows: Sequence[Tuple[str, MarkedBox]]) -> List[Tuple[str, MarkedBox]]:
    """The t-child then the b-child of every row, in row order."""
    return [pair for w, m in rows for pair in zip((w + "t", w + "b"), _tb_children(m))]


def _levels(depth: int, rows: Sequence[Tuple[str, MarkedBox]]) -> List[List[Tuple[str, MarkedBox]]]:
    """The ``depth`` levels below ``rows``, each expanded from the last."""
    levels = []
    for _ in range(depth):
        rows = _expand_chunk(rows)
        levels.append(rows)
    return levels


def _hexagons_below(depth: int, rows: Sequence[Tuple[str, MarkedBox]]):
    """What a walk child sends back for the ``depth`` levels below
    ``rows``: level by level, each parent's hexagon points as their three
    stored triples, read off its t-child's bottom edge: 1.5 points per row
    instead of 6, and plain tuples pickle much faster than boxes."""
    return [[(m.a.v, m.b.v, m.c.v) for _, m in level[::2]] for level in _levels(depth, rows)]


def _levels_from_hexagons(rows: Sequence[Tuple[str, MarkedBox]],
                          hexagon_levels) -> List[List[Tuple[str, MarkedBox]]]:
    """The levels below ``rows`` from ``_hexagons_below``: each child keeps
    its parent's edge and the hexagon points as the child found them,
    validated there and not again, on the parent's backend (a box has
    one), so children share points as in the serial walk."""
    levels = []
    for hexagons in hexagon_levels:
        children = []
        for (w, m), (a2, b2, c2) in zip(rows, hexagons):
            exact = m.s.exact
            tm, bm = _children(m, _built(ProjPoint, a2, exact), _built(ProjPoint, b2, exact),
                               _built(ProjPoint, c2, exact))
            children += ((w + "t", tm), (w + "b", bm))
        rows = children
        levels.append(rows)
    return levels


def split_level(roots: int, depth: int, workers: int) -> Optional[int]:
    """The level at which :func:`tb_tree` cuts the walk below it into
    ``workers`` chunks: the shallowest level k < ``depth`` with at least
    ``8 * workers`` rows, a walk from ``roots`` roots having ``roots * 2**k``
    rows at level k.  None when there is no such level: the chunks would be
    too small to pay for a fork."""
    k = 0
    while k < depth and roots << k < 8 * workers:
        k += 1
    return k if k < depth else None


def _fork_chunk(depth: int, chunk: Sequence[Tuple[str, MarkedBox]]):
    """Fork a child that sends ``(True, _hexagons_below(depth, chunk))``, or
    ``(False, exc)`` for the exception the walk raised, as one pickle down a
    pipe; the parent gets the child's pid and the pipe's read end.  The child
    leaves through ``os._exit``: it flushes none of the parent's buffers and
    runs none of its exit handlers, and it exits 0 only once the whole
    message is written."""
    import pickle  # before forking, so the child never waits on the import lock

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    code = 1
    try:
        os.close(read)
        try:
            message = True, _hexagons_below(depth, chunk)
        except Exception as exc:
            message = False, exc
        with open(write, "wb") as pipe:
            pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _forked_levels(depth: int, chunks) -> List[List[Tuple[str, MarkedBox]]]:
    """The ``depth`` levels below the rows of ``chunks``, each level joined
    in chunk order.  One forked child per chunk after the first expands its
    chunk and sends back its hexagon points while this process expands the
    first chunk itself; the children's rows are then rebuilt in chunk order
    (``_levels_from_hexagons``).  The first chunk in chunk order to fail
    raises its error here, with the class and text it was raised with; a
    child that ends without a whole message raises ``ChildProcessError``.
    Every child is reaped on every path, and one whose message was not read
    is killed first."""
    import pickle

    children = []
    try:
        for chunk in chunks[1:]:
            children.append(_fork_chunk(depth, chunk))
        parts = [_levels(depth, chunks[0])]
        for i, chunk in enumerate(chunks[1:], 1):
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            del children[0]
            status = os.waitpid(pid, 0)[1]
            if status:
                raise ChildProcessError(
                    f"walk child {pid} for chunk {i} ended without a result (wait status {status})")
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            parts.append(_levels_from_hexagons(chunk, result))
    finally:
        if children:  # the walk failed: the children whose message was not read
            import signal
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [[pair for part in same_depth for pair in part] for same_depth in zip(*parts)]


def tb_tree(roots: Sequence[Tuple[str, MarkedBox]], depth: int,
            workers: int = 1) -> List[Tuple[str, MarkedBox]]:
    """The roots and every t/b word below them up to ``depth``, breadth first.

    Each level lists the children in the order of their parents, so
    words of one length keep the order of the roots.  With ``workers``
    above 1 the walk is serial down to the ``split_level``; that level is
    cut into ``workers`` contiguous chunks, this process expands the first
    and one forked child each of the others (``_forked_levels``): the same
    list as the serial walk.  Forking needs ``os.fork``, and a fork copies
    only the calling thread, so split walks belong in processes that run
    no other threads, as the command line does.
    """
    if depth < 0:
        raise OutOfRange("depth must be nonnegative")
    k = split_level(len(roots), depth, workers) if workers > 1 else None
    levels = [list(roots)]
    levels += _levels(depth if k is None else k, levels[0])
    if k is not None:
        level = levels[-1]
        step = -(-len(level) // workers)
        levels += _forked_levels(depth - k, [level[i:i + step] for i in range(0, len(level), step)])
    return [pair for level in levels for pair in level]


def orbit_enumerate(m: MarkedBox, depth: int, workers: int = 1) -> List[Tuple[str, MarkedBox]]:
    """All boxes w(M) and w(i(M)) for words w over {t, b} of length <= depth.

    Breadth first, t-child before b-child, M-rooted words before the
    i(M)-rooted words of the same length.  Words read left to right in
    application order, so "it" means i first, then t.  ``workers`` is
    passed to :func:`tb_tree`.
    """
    return tb_tree([("", m), ("i", op_i(m))], depth, workers)


def pattern_boxes(x, y, depth: int, workers: int = 1) -> List[Tuple[str, MarkedBox]]:
    """The one-sided orbit of ``base_box(x, y)``: breadth-first t/b words with
    their boxes, one per pattern geodesic."""
    return tb_tree([("", base_box(x, y))], depth, workers)
