"""Projective plane primitives over two scalar backends.

Points and lines live in the projective plane and its dual, and are
stored as homogeneous coordinate triples.  All constructions run over
either backend:

* exact: ``int`` / ``fractions.Fraction`` input, decided by equality;
* float: 64-bit floats, decided by tolerance (``DEFAULT_TOL``, relative,
  unless a check names its own).

A vector's or polarity's backend is decided once, when it is built,
and kept in its ``exact`` attribute: a vector or a polarity reads its
entries (a float as soon as one is neither an int nor a ``Fraction``).
Canonical forms differ per backend: an exact vector is stored as a
primitive integer triple (denominators cleared, divided by the gcd,
first nonzero entry positive), so joins, meets and zero tests run on
plain Python ints, whose size grows with the depth of a construction;
a float vector gets unit Euclidean norm, its first entry above 1e-14 in
size positive.  The float joins, meets and ``same`` are written out
entry by entry, for speed, in the operation order of ``cross3`` and
``dot3``.  Consumers compute on the stored ``v``; ``floats()`` gives the
first-nonzero-is-one form as correctly rounded floats.  Joins and meets
take vectors of one backend, as marked boxes hold points of one;
``same``, ``incident``, the cross ratio and the triple product read an
exact vector among float ones through ``floats()``.  A polarity is
built one way, ``Polarity(q, num, den)``: an exact one holds a primitive
int matrix m and one rational scale, so its determinant and
definiteness test run on ints.  Every polarity images a point through m
and a line through adj(m), whatever the vector's backend; an image is
exact when both polarity and vector are.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Tuple, Union

Scalar = Union[int, Fraction, float]
Triple = Tuple[Scalar, Scalar, Scalar]

DEFAULT_TOL = 1e-9
# a float cross product of unit vectors larger than this in any entry is
# not zero to DEFAULT_TOL (see _float_cross)
_NEAR_ZERO = 2 * DEFAULT_TOL
_MIN_NORMAL = sys.float_info.min


class PappusError(Exception):
    """Root of every error the library raises."""


class ProjectiveError(PappusError):
    """Base class for degenerate projective input."""


class CoincidentPoints(ProjectiveError):
    pass


class CoincidentLines(ProjectiveError):
    pass


class NotCollinear(ProjectiveError):
    pass


class DegenerateQuadruple(ProjectiveError):
    pass


class DegenerateFlags(ProjectiveError):
    pass


class SingularMap(ProjectiveError):
    pass


class NonElliptic(ProjectiveError):
    pass


def is_exact_scalar(v: Scalar) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def cross3(u: Sequence[Scalar], v: Sequence[Scalar]) -> Triple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot3(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _primitive(a: int, b: int, c: int) -> Triple:
    g = math.gcd(a, b, c)
    if g == 0:
        raise ProjectiveError("zero homogeneous vector")
    if (a or b or c) < 0:
        g = -g
    return a // g, b // g, c // g


def _exact_canonical(v: Sequence[Scalar]) -> Triple:
    fs = tuple(Fraction(x) for x in v)
    den = math.lcm(*(x.denominator for x in fs))
    return _primitive(*(x.numerator * (den // x.denominator) for x in fs))


def _float_canonical(v: Sequence[Scalar]) -> Triple:
    a, b, c = v
    return _unit(float(a), float(b), float(c))


def _unit(a: float, b: float, c: float) -> Triple:
    """Unit norm, and the first entry above 1e-14 in size made positive.

    The norm sums the squares left to right, as a plain float ``sum`` of
    them does.  When that sum leaves the normal range (the squares
    underflow or overflow), the vector is first scaled by a power of
    two, which is exact.
    """
    ss = a * a + b * b + c * c
    if not _MIN_NORMAL <= ss < math.inf:
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)) or a == b == c == 0:
            raise ProjectiveError("zero or non-finite homogeneous vector")
        e = -math.frexp(max(abs(a), abs(b), abs(c)))[1]
        return _unit(math.ldexp(a, e), math.ldexp(b, e), math.ldexp(c, e))
    norm = math.sqrt(ss)
    a, b, c = a / norm, b / norm, c / norm
    if a < -1e-14 or (a <= 1e-14 and (b < -1e-14 or (b <= 1e-14 and c < -1e-14))):
        return -a, -b, -c
    return a, b, c


class HomVec:
    """Nonzero homogeneous coordinate triple, canonicalized on construction.

    ``v`` is the primitive integer triple of an exact vector or the
    unit-norm float triple of a float one; ``exact`` says which.
    """

    __slots__ = ("v", "exact")

    def __init__(self, v: Sequence[Scalar]):
        v = tuple(v)
        if len(v) != 3:
            raise ProjectiveError(f"a homogeneous vector has three entries, got {len(v)}")
        exact = all(is_exact_scalar(x) for x in v)
        self.v = _exact_canonical(v) if exact else _float_canonical(v)
        self.exact = exact

    def floats(self) -> Tuple[float, float, float]:
        """Float triple; an exact vector is read with its first nonzero entry
        1, each entry the correctly rounded ratio of two ints."""
        if not self.exact:
            return self.v
        a, b, c = self.v
        first = a or b or c
        return a / first, b / first, c / first

    def same(self, other: "HomVec", tol: float = DEFAULT_TOL) -> bool:
        """Projective equality, i.e. proportionality of representatives."""
        if self.exact and other.exact:
            return self.v == other.v
        u0, u1, u2 = self.floats() if self.exact else self.v
        w0, w1, w2 = other.floats() if other.exact else other.v
        return max(abs(u1 * w2 - u2 * w1), abs(u2 * w0 - u0 * w2), abs(u0 * w1 - u1 * w0)) <= tol


def _built(cls, v: Triple, exact: bool):
    """A ``cls`` vector from its canonical triple, skipping the backend scan."""
    h = object.__new__(cls)
    h.v = v
    h.exact = exact
    return h


def _image(cls, v: Sequence[Scalar], exact: bool):
    """A ``cls`` vector from a triple whose backend the caller already knows,
    an int triple when it is exact."""
    return _built(cls, _primitive(*v) if exact else _float_canonical(v), exact)


class ProjPoint(HomVec):
    """Point of the projective plane."""

    __slots__ = ()


class ProjLine(HomVec):
    """Line of the projective plane, i.e. a point of the dual plane."""

    __slots__ = ()


def _exact_cross(u: Triple, w: Triple):
    """The primitive cross product of two int triples, None when it is zero."""
    u0, u1, u2 = u
    w0, w1, w2 = w
    c0, c1, c2 = u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0
    if c0 == c1 == c2 == 0:
        return None
    return _primitive(c0, c1, c2)


def _float_cross(u: Triple, w: Triple):
    """The unit cross product of two stored float triples, None when it is zero.

    Zero means zero to DEFAULT_TOL relative to the largest operand entry
    and to 1.  A float vector has unit norm, so its entries are at most 1
    up to rounding and matter only when the product is within
    2 * DEFAULT_TOL of zero.
    """
    u0, u1, u2 = u
    w0, w1, w2 = w
    c0, c1, c2 = u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0
    z = _NEAR_ZERO
    if -z <= c0 <= z and -z <= c1 <= z and -z <= c2 <= z and max(
            abs(c0), abs(c1), abs(c2)) <= DEFAULT_TOL * max(
            abs(u0), abs(u1), abs(u2), abs(w0), abs(w1), abs(w2), 1.0):
        return None
    return _unit(c0, c1, c2)


def _cross_of(cls, p: HomVec, q: HomVec, err, what: str):
    exact = p.exact
    if q.exact != exact:
        raise ProjectiveError("join and meet take vectors of one backend")
    v = _exact_cross(p.v, q.v) if exact else _float_cross(p.v, q.v)
    if v is None:
        raise err(f"{what} {p.v}")
    return _built(cls, v, exact)


def join(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """Line through two distinct points."""
    return _cross_of(ProjLine, p, q, CoincidentPoints, "join of coincident points")


def meet(l: ProjLine, m: ProjLine) -> ProjPoint:
    """Intersection point of two distinct lines."""
    return _cross_of(ProjPoint, l, m, CoincidentLines, "meet of coincident lines")


def incident(p: ProjPoint, l: ProjLine, tol: float = DEFAULT_TOL) -> bool:
    if p.exact and l.exact:
        return dot3(p.v, l.v) == 0
    return abs(float(dot3(p.floats(), l.floats()))) <= tol


class Flag:
    """Incident (point, line) pair."""

    __slots__ = ("point", "line")

    def __init__(self, point: ProjPoint, line: ProjLine):
        if not incident(point, line, tol=1e-7):
            raise DegenerateFlags(f"point {point.v} not on line {line.v}")
        self.point = point
        self.line = line


def cross_ratio(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint) -> Scalar:
    """Cross ratio of four collinear points, at least three distinct.

    Computed from entrywise products of coordinate cross products; the
    first entry with a nonzero denominator is used.  With affine
    parameter w on the common line the value is
    (w_a - w_b)(w_c - w_d) / ((w_a - w_c)(w_b - w_d)).  Exact points are
    decided by equality.  On floats a cross product is zero to
    ``DEFAULT_TOL`` relative to its operands' largest entry and to 1, a
    point is on the line to ``10 * DEFAULT_TOL``, and the denominator
    entry used is the first above ``1e-4 * DEFAULT_TOL`` times the
    squared largest denominator entry (and 1).
    """
    exact = a.exact and b.exact and c.exact and d.exact
    vs = tuple(p.v if exact else p.floats() for p in (a, b, c, d))
    for v, w in itertools.combinations(vs, 2):
        base = cross3(v, w)
        zero = 0 if exact else DEFAULT_TOL * max(*map(abs, v), *map(abs, w), 1.0)
        if max(map(abs, base)) > zero:
            break
    else:
        raise DegenerateQuadruple("all four points coincide")
    for v in vs:
        if abs(dot3(v, base)) > (0 if exact else DEFAULT_TOL * 10):
            raise NotCollinear(f"{v} off the common line")
    va, vb, vc, vd = vs
    num, num2, den, den2 = cross3(va, vb), cross3(vc, vd), cross3(va, vc), cross3(vb, vd)
    tol = 0 if exact else DEFAULT_TOL * max(*map(abs, den), *map(abs, den2), 1.0) ** 2 * 1e-4
    for i in range(3):
        dv = den[i] * den2[i]
        if abs(dv) > tol:
            return Fraction(num[i] * num2[i], dv) if exact else (num[i] * num2[i]) / dv
    raise DegenerateQuadruple("cross ratio undefined for this quadruple")


def triple_product(flags: Sequence[Flag]) -> Scalar:
    """Projective invariant of an ordered triple of flags.

    With flags (p_k, l_k) the value is
    (p1.l2)(p2.l3)(p3.l1) / ((p2.l1)(p3.l2)(p1.l3)).
    Even reorderings preserve it; odd reorderings invert it.
    """
    if len(flags) != 3:
        raise DegenerateFlags("triple product needs exactly three flags")
    exact = all(f.point.exact and f.line.exact for f in flags)
    (p1, l1), (p2, l2), (p3, l3) = (
        (f.point.v, f.line.v) if exact else (f.point.floats(), f.line.floats()) for f in flags
    )
    num = dot3(p1, l2) * dot3(p2, l3) * dot3(p3, l1)
    den = dot3(p2, l1) * dot3(p3, l2) * dot3(p1, l3)
    if exact:
        if den == 0:
            raise DegenerateFlags("degenerate flag triple: zero pairing")
        return Fraction(num, den)
    if abs(float(den)) <= DEFAULT_TOL ** 2:
        raise DegenerateFlags("degenerate flag triple: near-zero pairing")
    return num / den


# 3x3 matrix helpers shared by both backends.  Matrices are tuples of rows.

Mat = Tuple[Triple, Triple, Triple]


def mat_from_rows(rows) -> Mat:
    return tuple(tuple(r) for r in rows)


def mat_vec(m: Mat, v: Sequence[Scalar]) -> Triple:
    return tuple(dot3(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(dot3(row, col) for col in bt) for row in a)


def mat_transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_scale(m: Mat, s: Scalar) -> Mat:
    return tuple(tuple(x * s for x in row) for row in m)


def mat_det(m: Mat) -> Scalar:
    return dot3(m[0], cross3(m[1], m[2]))


def mat_adjugate(m: Mat) -> Mat:
    c0 = cross3(m[1], m[2])
    c1 = cross3(m[2], m[0])
    c2 = cross3(m[0], m[1])
    # adj(m) rows are the cofactor columns of m
    return mat_transpose((c0, c1, c2))


class ProjMap:
    """Invertible projective transformation, as its matrix acting on points."""

    __slots__ = ("m",)

    def __init__(self, m):
        self.m = mat_from_rows(m)
        if mat_det(self.m) == 0:
            raise SingularMap("projective map must be invertible")


class Polarity:
    """Order-2 duality given by a symmetric invertible matrix q.

    Points map to lines by q and lines map to points by q^{-1}, so
    applying the polarity twice is the identity on each side.
    ``Polarity(q, num, den)`` is the polarity of (num / den) q.  An exact
    polarity (every entry of q an int or a ``Fraction``) holds
    (num / den) q = scale * m: m a primitive symmetric int matrix (its
    entries' gcd divided out, its first nonzero entry positive, as
    ``HomVec`` does) and scale a ``Fraction``.  A float polarity holds q
    itself as m, with scale 1, and takes no other.  Points are imaged
    through m and lines through adj(m), on vectors of either backend;
    the determinant and the definiteness test also run on m.  The
    rational q is built only when read, and ``floats()`` rounds each
    entry of an exact q once.  Two polarities are equal when their
    matrices q are; ``exact`` takes no part.
    """

    def __init__(self, q, num=1, den=1):
        (a, b, c), (b2, e, f), (c2, f2, i) = q
        kinds = {type(a), type(b), type(c), type(b2), type(e), type(f), type(c2), type(f2), type(i)}
        if kinds <= {int, Fraction}:
            if Fraction in kinds:
                lcm = math.lcm(*(x.denominator for row in q for x in row))
                a, b, c, b2, e, f, c2, f2, i = (
                    x.numerator * (lcm // x.denominator) for row in q for x in row)
                den *= lcm
            if b != b2 or c != c2 or f != f2:
                raise ProjectiveError("polarity matrix must be symmetric")
            g = math.gcd(a, b, c, e, f, i)
            if not (g and num and den):
                raise SingularMap("polarity matrix must be invertible")
            if (a or b or c or e or f or i) < 0:
                g = -g
            m = ((a // g, b // g, c // g), (b // g, e // g, f // g), (c // g, f // g, i // g))
            if mat_det(m) == 0:
                raise SingularMap("polarity matrix must be invertible")
            self.m, self.scale, self.exact = m, Fraction(num * g, den), True
            return
        q = mat_from_rows(q)
        if (num, den) != (1, 1):
            raise ProjectiveError("a float polarity takes no scale")
        if not all(math.isclose(float(q[i][j]), float(q[j][i]), rel_tol=1e-9, abs_tol=1e-12)
                   for i, j in ((0, 1), (0, 2), (1, 2))):
            raise ProjectiveError("polarity matrix must be symmetric")
        if float(mat_det(q)) == 0.0:
            raise SingularMap("polarity matrix must be invertible")
        self.m, self.scale, self.exact = q, 1, False

    def __eq__(self, other):
        return isinstance(other, Polarity) and self.q == other.q

    @cached_property
    def q(self) -> Mat:
        """The matrix of the polarity: rational entries when it is exact."""
        return mat_scale(self.m, self.scale) if self.exact else self.m

    def floats(self) -> Mat:
        """q as floats, each entry of an exact q the correctly rounded int
        quotient: the float ``float(Fraction)`` gives for it."""
        n, d = self.scale.numerator, self.scale.denominator
        return tuple(tuple(n * x / d for x in row) for row in self.m) if self.exact else self.m

    def det(self) -> Scalar:
        """det(q), from the determinant of m."""
        return self.scale ** 3 * mat_det(self.m)

    def point_to_line(self, p: ProjPoint) -> ProjLine:
        return _image(ProjLine, mat_vec(self.m, p.v), self.exact and p.exact)

    @cached_property
    def adj(self) -> Mat:
        """adj(m) = det(m) m^-1, built once: it maps lines to the same points
        as q^-1, and no inverse is built."""
        return mat_adjugate(self.m)

    def line_to_point(self, l: ProjLine) -> ProjPoint:
        return _image(ProjPoint, mat_vec(self.adj, l.v), self.exact and l.exact)


def standard_polarity(exact: bool = True) -> Polarity:
    one = 1 if exact else 1.0
    zero = 0 if exact else 0.0
    return Polarity(((one, zero, zero), (zero, one, zero), (zero, zero, one)))


def is_elliptic(delta: Polarity) -> bool:
    """True when the symmetric matrix of the polarity is definite.

    Sign pattern of the leading principal minors of m, on both backends;
    the pattern is the same for every nonzero multiple of m, so the test
    does not depend on the polarity's scale.
    """
    q = delta.m
    m1 = q[0][0]
    m2 = q[0][0] * q[1][1] - q[0][1] * q[1][0]
    m3 = mat_det(q)
    return bool(m2 > 0 and ((m1 > 0 and m3 > 0) or (m1 < 0 and m3 < 0)))
