"""Projective plane primitives over two scalar backends.

Points and lines live in the projective plane and its dual, and are
stored as homogeneous coordinate triples.  All constructions run over
either backend:

* exact: ``int`` / ``fractions.Fraction`` entries, decided by equality;
* float: 64-bit floats, decided by tolerance (default ``1e-9`` relative).

The backend of a value is inferred from its entries, never declared.
Canonical forms differ per backend: exact vectors are divided by their
first nonzero coordinate; float vectors get unit Euclidean norm with a
positive first nonzero coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

import numpy as np

Scalar = Union[int, Fraction, float]
Triple = Tuple[Scalar, Scalar, Scalar]

DEFAULT_TOL = 1e-9


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


def is_exact_triple(v: Sequence[Scalar]) -> bool:
    return all(is_exact_scalar(x) for x in v)


def cross3(u: Sequence[Scalar], v: Sequence[Scalar]) -> Triple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot3(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _canonicalize(v: Sequence[Scalar]) -> Triple:
    if is_exact_triple(v):
        vv = tuple(Fraction(x) for x in v)
        for x in vv:
            if x != 0:
                return tuple(y / x for y in vv)
        raise ProjectiveError("zero homogeneous vector")
    fv = tuple(float(x) for x in v)
    norm = math.sqrt(sum(x * x for x in fv))
    if norm == 0.0 or not math.isfinite(norm):
        raise ProjectiveError("zero or non-finite homogeneous vector")
    fv = tuple(x / norm for x in fv)
    for x in fv:
        if abs(x) > 1e-14:
            if x < 0:
                fv = tuple(-y for y in fv)
            break
    return fv


@dataclass(frozen=True)
class HomVec:
    """Nonzero homogeneous coordinate triple, canonicalized on construction."""

    v: Triple

    def __init__(self, v: Sequence[Scalar]):
        object.__setattr__(self, "v", _canonicalize(tuple(v)))

    @property
    def exact(self) -> bool:
        return is_exact_triple(self.v)

    def same(self, other: "HomVec", tol: float = DEFAULT_TOL) -> bool:
        """Projective equality, i.e. proportionality of representatives."""
        if self.exact and other.exact:
            return self.v == other.v
        c = cross3(self.v, other.v)
        return max(abs(float(x)) for x in c) <= tol

    def floats(self) -> Tuple[float, float, float]:
        return tuple(float(x) for x in self.v)


class ProjPoint(HomVec):
    def join(self, other: "ProjPoint") -> "ProjLine":
        return join(self, other)


class ProjLine(HomVec):
    def meet(self, other: "ProjLine") -> "ProjPoint":
        return meet(self, other)


def _is_zero_triple(v: Sequence[Scalar], tol: float, scale: float) -> bool:
    if is_exact_triple(v):
        return all(x == 0 for x in v)
    return max(abs(float(x)) for x in v) <= tol * max(scale, 1.0)


def _pair_scale(u: Sequence[Scalar], v: Sequence[Scalar]) -> float:
    return max(abs(float(x)) for x in (*u, *v))


def join(p: ProjPoint, q: ProjPoint, tol: float = DEFAULT_TOL) -> ProjLine:
    """Line through two distinct points."""
    c = cross3(p.v, q.v)
    if _is_zero_triple(c, tol, _pair_scale(p.v, q.v)):
        raise CoincidentPoints(f"join of coincident points {p.v}")
    return ProjLine(c)


def meet(l: ProjLine, m: ProjLine, tol: float = DEFAULT_TOL) -> ProjPoint:
    """Intersection point of two distinct lines."""
    c = cross3(l.v, m.v)
    if _is_zero_triple(c, tol, _pair_scale(l.v, m.v)):
        raise CoincidentLines(f"meet of coincident lines {l.v}")
    return ProjPoint(c)


def incident(p: ProjPoint, l: ProjLine, tol: float = DEFAULT_TOL) -> bool:
    d = dot3(p.v, l.v)
    if p.exact and l.exact:
        return d == 0
    return abs(float(d)) <= tol


@dataclass(frozen=True)
class Flag:
    """Incident (point, line) pair."""

    point: ProjPoint
    line: ProjLine

    def __post_init__(self):
        if not incident(self.point, self.line, tol=1e-7):
            raise DegenerateFlags(f"point {self.point.v} not on line {self.line.v}")

    def same(self, other: "Flag", tol: float = DEFAULT_TOL) -> bool:
        return self.point.same(other.point, tol) and self.line.same(other.line, tol)


def cross_ratio(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint,
                tol: float = DEFAULT_TOL) -> Scalar:
    """Cross ratio of four collinear points, at least three distinct.

    Computed from entrywise products of coordinate cross products; the
    first entry with a nonzero denominator is used.  With affine
    parameter w on the common line the value is
    (w_a - w_b)(w_c - w_d) / ((w_a - w_c)(w_b - w_d)).
    """
    pts = (a, b, c, d)
    base = None
    for i in range(4):
        for j in range(i + 1, 4):
            cc = cross3(pts[i].v, pts[j].v)
            if not _is_zero_triple(cc, tol, _pair_scale(pts[i].v, pts[j].v)):
                base = cc
                break
        if base is not None:
            break
    if base is None:
        raise DegenerateQuadruple("all four points coincide")
    for p in pts:
        val = dot3(p.v, base)
        ok = val == 0 if p.exact and is_exact_triple(base) else abs(float(val)) <= tol * 10
        if not ok:
            raise NotCollinear(f"{p.v} off the common line")
    num = cross3(a.v, b.v)
    num2 = cross3(c.v, d.v)
    den = cross3(a.v, c.v)
    den2 = cross3(b.v, d.v)
    scale = _pair_scale(den, den2)
    for i in range(3):
        dv = den[i] * den2[i]
        if is_exact_scalar(dv):
            if dv != 0:
                return Fraction(num[i] * num2[i]) / dv
        elif abs(float(dv)) > tol * max(scale, 1.0) ** 2 * 1e-4:
            return (num[i] * num2[i]) / dv
    raise DegenerateQuadruple("cross ratio undefined for this quadruple")


def triple_product(flags: Sequence[Flag], tol: float = DEFAULT_TOL) -> Scalar:
    """Projective invariant of an ordered triple of flags.

    With flags (p_k, l_k) the value is
    (p1.l2)(p2.l3)(p3.l1) / ((p2.l1)(p3.l2)(p1.l3)).
    Even reorderings preserve it; odd reorderings invert it.
    """
    if len(flags) != 3:
        raise DegenerateFlags("triple product needs exactly three flags")
    (p1, l1), (p2, l2), (p3, l3) = ((f.point.v, f.line.v) for f in flags)
    num = dot3(p1, l2) * dot3(p2, l3) * dot3(p3, l1)
    den = dot3(p2, l1) * dot3(p3, l2) * dot3(p1, l3)
    if is_exact_scalar(den):
        if den == 0:
            raise DegenerateFlags("degenerate flag triple: zero pairing")
        return Fraction(num) / den
    if abs(float(den)) <= tol ** 2:
        raise DegenerateFlags("degenerate flag triple: near-zero pairing")
    return num / den


# 3x3 matrix helpers shared by both backends.  Matrices are tuples of rows.

Mat = Tuple[Triple, Triple, Triple]


def mat_from_rows(rows) -> Mat:
    return tuple(tuple(r) for r in rows)


def mat_identity() -> Mat:
    return ((1, 0, 0), (0, 1, 0), (0, 0, 1))


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


def mat_inv(m: Mat, tol: float = DEFAULT_TOL) -> Mat:
    d = mat_det(m)
    exact = all(is_exact_triple(r) for r in m)
    if exact:
        if d == 0:
            raise SingularMap("matrix is singular")
        return mat_scale(mat_adjugate(m), Fraction(1, 1) / d)
    scale = max(abs(float(x)) for row in m for x in row)
    if abs(float(d)) <= tol * max(scale, 1.0) ** 3 * 1e-3:
        raise SingularMap("matrix is numerically singular")
    return mat_scale(mat_adjugate(m), 1.0 / d)


def mat_is_proportional(a: Mat, b: Mat, tol: float = DEFAULT_TOL) -> bool:
    """True when a = c*b for a nonzero scalar c."""
    flat_a = [x for row in a for x in row]
    flat_b = [x for row in b for x in row]
    exact = all(is_exact_scalar(x) for x in flat_a + flat_b)
    if exact:
        for i in range(9):
            for j in range(9):
                if flat_a[i] * flat_b[j] != flat_a[j] * flat_b[i]:
                    return False
        return any(x != 0 for x in flat_a) and any(x != 0 for x in flat_b)
    fa = [float(x) for x in flat_a]
    fb = [float(x) for x in flat_b]
    na = math.sqrt(sum(x * x for x in fa))
    nb = math.sqrt(sum(x * x for x in fb))
    if na == 0 or nb == 0:
        return False
    fa = [x / na for x in fa]
    fb = [x / nb for x in fb]
    dot = sum(x * y for x, y in zip(fa, fb))
    sign = 1.0 if dot >= 0 else -1.0
    return max(abs(x - sign * y) for x, y in zip(fa, fb)) <= tol * 100


@dataclass(frozen=True)
class ProjMap:
    """Invertible projective transformation acting on points and lines."""

    m: Mat

    def __init__(self, m):
        mm = mat_from_rows(m)
        d = mat_det(mm)
        exact = all(is_exact_triple(r) for r in mm)
        if (exact and d == 0) or (not exact and abs(float(d)) == 0.0):
            raise SingularMap("projective map must be invertible")
        object.__setattr__(self, "m", mm)

    def apply_point(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(mat_vec(self.m, p.v))

    def apply_line(self, l: ProjLine) -> ProjLine:
        # lines push forward by the inverse transpose
        return ProjLine(mat_vec(mat_transpose(mat_inv(self.m)), l.v))

    def apply_flag(self, f: Flag) -> Flag:
        return Flag(self.apply_point(f.point), self.apply_line(f.line))

    def compose(self, other: "ProjMap") -> "ProjMap":
        """self after other."""
        return ProjMap(mat_mul(self.m, other.m))

    def inverse(self) -> "ProjMap":
        return ProjMap(mat_inv(self.m))

    def same(self, other: "ProjMap", tol: float = DEFAULT_TOL) -> bool:
        return mat_is_proportional(self.m, other.m, tol)


@dataclass(frozen=True)
class Polarity:
    """Order-2 duality given by a symmetric invertible matrix q.

    Points map to lines by q and lines map to points by q^{-1}, so
    applying the polarity twice is the identity on each side.
    """

    q: Mat

    def __init__(self, q):
        qq = mat_from_rows(q)
        exact = all(is_exact_triple(r) for r in qq)
        for i in range(3):
            for j in range(i + 1, 3):
                same = qq[i][j] == qq[j][i] if exact else \
                    math.isclose(float(qq[i][j]), float(qq[j][i]), rel_tol=1e-9, abs_tol=1e-12)
                if not same:
                    raise ProjectiveError("polarity matrix must be symmetric")
        d = mat_det(qq)
        if (exact and d == 0) or (not exact and float(d) == 0.0):
            raise SingularMap("polarity matrix must be invertible")
        object.__setattr__(self, "q", qq)

    def point_to_line(self, p: ProjPoint) -> ProjLine:
        return ProjLine(mat_vec(self.q, p.v))

    def line_to_point(self, l: ProjLine) -> ProjPoint:
        return ProjPoint(mat_vec(mat_inv(self.q), l.v))

    def apply_flag(self, f: Flag) -> Flag:
        """Flag image: the input line maps to the point, the input point to the line."""
        return Flag(self.line_to_point(f.line), self.point_to_line(f.point))

    def same(self, other: "Polarity", tol: float = DEFAULT_TOL) -> bool:
        return mat_is_proportional(self.q, other.q, tol)


def standard_polarity(exact: bool = True) -> Polarity:
    one = 1 if exact else 1.0
    zero = 0 if exact else 0.0
    return Polarity(((one, zero, zero), (zero, one, zero), (zero, zero, one)))


def is_elliptic(delta: Polarity, tol: float = DEFAULT_TOL) -> bool:
    """True when the symmetric matrix of the polarity is definite.

    Exact backend: sign pattern of leading principal minors.  Float
    backend: signs of the eigenvalues.
    """
    q = delta.q
    exact = all(is_exact_triple(r) for r in q)
    if exact:
        m1 = q[0][0]
        m2 = q[0][0] * q[1][1] - q[0][1] * q[1][0]
        m3 = mat_det(q)
        pos = m1 > 0 and m2 > 0 and m3 > 0
        neg = m1 < 0 and m2 > 0 and m3 < 0
        return pos or neg
    w = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in q]))
    return bool((w > tol).all() or (w < -tol).all())


def transform_from_correspondence(src, dst) -> ProjMap:
    """Unique projective map sending one general-position quadruple to another.

    Classical column scaling: with A = [p1 p2 p3] and A c = p4, the map
    A diag(c) sends the standard simplex points and (1,1,1) to the
    quadruple; the answer is the destination map composed with the
    inverse of the source map.
    """
    if len(src) != 4 or len(dst) != 4:
        raise DegenerateQuadruple("need exactly four source and four target points")

    def simplex_map(quad) -> Mat:
        cols = tuple(p.v for p in quad[:3])
        a = mat_transpose(cols)
        try:
            c = mat_vec(mat_inv(a), quad[3].v)
        except SingularMap:
            raise DegenerateQuadruple("three of the four points are collinear")
        exact = all(p.exact for p in quad)
        for x in c:
            bad = x == 0 if exact else abs(float(x)) <= 1e-12
            if bad:
                raise DegenerateQuadruple("three of the four points are collinear")
        return mat_transpose(tuple(tuple(x * ci for x in col) for col, ci in zip(cols, c)))

    ms = simplex_map(tuple(src))
    md = simplex_map(tuple(dst))
    return ProjMap(mat_mul(md, mat_inv(ms)))
