"""The symmetric space of unit ellipsoids in R^3.

Points are 3x3 symmetric positive definite matrices of determinant one;
the ellipsoid of S is {v : Sv.v <= 1}.  SL3(R) acts by S -> (T^-1)' S T^-1
and dualities act through matrix inversion.  Distance comes from log
generalized eigenvalues, normalized so that the distance from the unit
ball equals the norm of the log principal-length vector.

Geodesics are stored as a base point plus a traceless symmetric unit
direction whose eigenvalues are the principal-length exponents; the
representing matrix at parameter r is  S0^(1/2) exp(-2 r D) S0^(1/2),
so the ellipsoid axes grow like exp(r * eigenvalue).  Flats are the
maximal 2-dim pieces, one per triangle of points and lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .projective import (
    Flag,
    HomVec,
    Polarity,
    ProjLine,
    ProjMap,
    ProjPoint,
    NonElliptic,
    PappusError,
    is_elliptic,
)


class SymmSpaceError(PappusError):
    pass


class NumericalFailure(SymmSpaceError):
    pass


class ConvergenceFailure(NumericalFailure):
    pass


class NotPositiveDefinite(SymmSpaceError):
    pass


class ZeroDirection(SymmSpaceError):
    pass


class CollinearVertices(SymmSpaceError):
    pass


class PointOffFlat(SymmSpaceError):
    pass


def _float_triple(v: HomVec) -> np.ndarray:
    arr = np.array([float(x) for x in v.v], dtype=float)
    return arr / np.linalg.norm(arr)


# --- symmetric 3x3 eigensolver ----------------------------------------------
#
# Cyclic Jacobi, deterministic sweep order (0,1),(0,2),(1,2).  Chosen over a
# closed-form cubic for robustness on near-degenerate spectra.

_JACOBI_PAIRS = ((0, 1), (0, 2), (1, 2))


def jacobi_eigh(mat, tol: float = 1e-13, max_sweeps: int = 64):
    """Eigenvalues (descending) and orthonormal eigenvector columns."""
    a = np.array(mat, dtype=float)
    a = (a + a.T) / 2.0
    scale = max(1.0, float(np.sqrt((a * a).sum())))
    v = np.eye(3)
    for _ in range(max_sweeps):
        off = math.sqrt(a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2)
        if off <= tol * scale:
            break
        for p, q in _JACOBI_PAIRS:
            apq = a[p, q]
            if abs(apq) <= 1e-300:
                continue
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            rot = np.eye(3)
            rot[p, p] = c
            rot[q, q] = c
            rot[p, q] = s
            rot[q, p] = -s
            a = rot.T @ a @ rot
            v = v @ rot
    else:
        raise ConvergenceFailure("jacobi sweep limit reached")
    w = np.diag(a).copy()
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    for j in range(3):
        k = int(np.argmax(np.abs(v[:, j])))
        if v[k, j] < 0:
            v[:, j] = -v[:, j]
    return w, v


@dataclass(frozen=True, eq=False)
class XPoint:
    """Unit-determinant SPD matrix; renormalized on construction."""

    m: np.ndarray

    def __init__(self, mat):
        a = np.array(mat, dtype=float)
        if a.shape != (3, 3):
            raise SymmSpaceError("expected a 3x3 matrix")
        a = (a + a.T) / 2.0
        det = float(np.linalg.det(a))
        if det <= 0:
            raise NotPositiveDefinite("determinant is not positive")
        a = a / np.cbrt(det)
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("matrix is not positive definite")
        a.flags.writeable = False
        object.__setattr__(self, "m", a)
        object.__setattr__(self, "_half", None)
        object.__setattr__(self, "_half_inv", None)

    def _powers(self):
        if getattr(self, "_half") is None:
            w, v = jacobi_eigh(self.m)
            rt = v @ np.diag(np.sqrt(w)) @ v.T
            rti = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
            object.__setattr__(self, "_half", rt)
            object.__setattr__(self, "_half_inv", rti)
        return self._half, self._half_inv

    def same(self, other: "XPoint", tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.m - other.m)) <= tol * max(1.0, float(np.max(np.abs(self.m)))))


def identity_point() -> XPoint:
    return XPoint(np.eye(3))


def metric_d(e1: XPoint, e2: XPoint) -> float:
    ell = np.linalg.cholesky(e1.m)
    w = np.linalg.solve(ell, e2.m)
    w = np.linalg.solve(ell, w.T).T
    mu, _ = jacobi_eigh(w)
    if mu[-1] <= 0:
        raise NumericalFailure("generalized eigenvalues not positive")
    return 0.5 * math.sqrt(sum(math.log(x) ** 2 for x in mu))


def group_action(t: ProjMap, e: XPoint) -> XPoint:
    m = np.array([[float(x) for x in row] for row in t.m], dtype=float)
    m = m / np.cbrt(float(np.linalg.det(m)))
    minv = np.linalg.inv(m)
    return XPoint(minv.T @ e.m @ minv)


def _polarity_push(q: np.ndarray, e: XPoint) -> XPoint:
    """S -> q S^-1 q, the duality action; valid for any invertible symmetric q."""
    return XPoint(q @ np.linalg.inv(e.m) @ q)


def _polarity_matrix(delta: Polarity) -> np.ndarray:
    q = np.array([[float(x) for x in row] for row in delta.q], dtype=float)
    return q / np.max(np.abs(q))


def duality_action(delta: Polarity, e: XPoint) -> XPoint:
    if not is_elliptic(delta):
        raise NonElliptic("only elliptic polarities act on ellipsoid space")
    return _polarity_push(_polarity_matrix(delta), e)


def polarity_fixed_point(delta: Polarity) -> XPoint:
    """The unit ellipsoid of the definite form behind an elliptic polarity."""
    if not is_elliptic(delta):
        raise NonElliptic("fixed point requires an elliptic polarity")
    q = _polarity_matrix(delta)
    w, _ = jacobi_eigh(q)
    if w[0] < 0:
        q = -q
    p = XPoint(q)
    if not duality_action(delta, p).same(p, 1e-10):
        raise NumericalFailure("fixed point residual too large")
    return p


# --- geodesics ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class XGeodesic:
    base: XPoint
    direction: np.ndarray

    def __init__(self, base: XPoint, direction):
        d = np.array(direction, dtype=float)
        d = (d + d.T) / 2.0
        d = d - np.eye(3) * (np.trace(d) / 3.0)
        n = float(np.sqrt((d * d).sum()))
        if n < 1e-12:
            raise ZeroDirection("direction vanishes")
        d = d / n
        d.flags.writeable = False
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "_eig", None)

    def reverse(self) -> "XGeodesic":
        return XGeodesic(self.base, -self.direction)

    def _direction_eig(self):
        if getattr(self, "_eig") is None:
            object.__setattr__(self, "_eig", jacobi_eigh(self.direction))
        return self._eig

    def same_unoriented(self, other: "XGeodesic", tol: float = 1e-8) -> bool:
        if not self.base.same(other.base, tol):
            return False
        d = float(np.max(np.abs(self.direction - other.direction)))
        dr = float(np.max(np.abs(self.direction + other.direction)))
        return min(d, dr) <= tol


def geodesic_point(gamma: XGeodesic, tau: float) -> XPoint:
    w, v = gamma._direction_eig()
    half, _ = gamma.base._powers()
    inner = v @ np.diag(np.exp(-2.0 * tau * w)) @ v.T
    return XPoint(half @ inner @ half)


def geodesic_between(e1: XPoint, e2: XPoint) -> Tuple[XGeodesic, float]:
    """Unit-speed geodesic from e1 through e2, and the distance to e2."""
    half, half_inv = e1._powers()
    w = half_inv @ e2.m @ half_inv
    mu, v = jacobi_eigh(w)
    logs = np.log(mu)
    dist = 0.5 * math.sqrt(float((logs * logs).sum()))
    if dist < 1e-12:
        raise ZeroDirection("points coincide")
    a = v @ np.diag(logs) @ v.T
    return XGeodesic(e1, -a / (2.0 * dist)), dist


# --- boundary classification -------------------------------------------------

@dataclass(frozen=True)
class PointClass:
    point: ProjPoint


@dataclass(frozen=True)
class LineClass:
    line: ProjLine


@dataclass(frozen=True)
class FlagClass:
    flag: Flag


@dataclass(frozen=True)
class Generic:
    pass


_PATTERN_POINT = np.array([2.0, -1.0, -1.0]) / math.sqrt(6.0)
_PATTERN_LINE = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
_PATTERN_FLAG = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)


def boundary_ray_class(gamma: XGeodesic, direction: int, tol: float = 1e-8):
    """Limit type of one end of a geodesic.

    The eigenvalue pattern of the (possibly reversed) direction decides:
    one fat axis gives a point of P, one thin axis a line of P*, the
    (1,0,-1) pattern a full flag, anything else Generic.
    """
    if direction not in (1, -1):
        raise SymmSpaceError("direction must be +1 or -1")
    lam = direction * gamma.direction
    w, v = jacobi_eigh(lam)
    half, half_inv = gamma.base._powers()
    if np.max(np.abs(w - _PATTERN_POINT)) < tol:
        return PointClass(ProjPoint(tuple(half_inv @ v[:, 0])))
    if np.max(np.abs(w - _PATTERN_LINE)) < tol:
        return LineClass(ProjLine(tuple(half @ v[:, 2])))
    if np.max(np.abs(w - _PATTERN_FLAG)) < tol:
        pt = ProjPoint(tuple(half_inv @ v[:, 0]))
        ln = ProjLine(tuple(half @ v[:, 2]))
        return FlagClass(Flag(pt, ln))
    return Generic()


# --- flats -------------------------------------------------------------------

# orthonormal basis of the traceless log-coordinate plane of any flat
FLAT_AXIS_MEDIAL = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
FLAT_AXIS_SINGULAR = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)


@dataclass(frozen=True, eq=False)
class Flat:
    """Totally geodesic plane spanned by a triangle of directions.

    Points of the flat are the forms diagonalized by the vertex basis:
    S = (B^-1)' D B^-1 with D positive diagonal.  In log-diagonal
    coordinates the flat is a Euclidean plane at half scale.
    """

    vertices: Tuple[ProjPoint, ProjPoint, ProjPoint]
    sides: Tuple[ProjLine, ProjLine, ProjLine]
    basis: np.ndarray
    basis_inv: np.ndarray

    def __init__(self, vertices, sides, basis, basis_inv):
        basis = np.array(basis, dtype=float)
        basis_inv = np.array(basis_inv, dtype=float)
        basis.flags.writeable = False
        basis_inv.flags.writeable = False
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "sides", tuple(sides))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "basis_inv", basis_inv)

    def contains(self, e: XPoint, tol: float = 1e-10) -> bool:
        c = self.basis.T @ e.m @ self.basis
        off = math.sqrt(2.0 * (c[0, 1] ** 2 + c[0, 2] ** 2 + c[1, 2] ** 2))
        return off <= tol * float(np.sqrt((c * c).sum()))

    def log_coords(self, e: XPoint, tol: float = 1e-8) -> np.ndarray:
        c = self.basis.T @ e.m @ self.basis
        d = np.diag(c)
        off = math.sqrt(2.0 * (c[0, 1] ** 2 + c[0, 2] ** 2 + c[1, 2] ** 2))
        if d.min() <= 0 or off > tol * float(np.sqrt((c * c).sum())):
            raise PointOffFlat("point is not on the flat")
        u = np.log(d)
        return u - u.mean()

    def point_from_log(self, u: Sequence[float]) -> XPoint:
        d = np.exp(np.asarray(u, dtype=float))
        return XPoint(self.basis_inv.T @ np.diag(d) @ self.basis_inv)

    def point_at(self, a: float, b: float) -> XPoint:
        """Point at metric plane coordinates (a, b)."""
        return self.point_from_log(2.0 * a * FLAT_AXIS_MEDIAL + 2.0 * b * FLAT_AXIS_SINGULAR)

    def metric_coords(self, e: XPoint) -> Tuple[float, float]:
        u = self.log_coords(e)
        return float(u @ FLAT_AXIS_MEDIAL) / 2.0, float(u @ FLAT_AXIS_SINGULAR) / 2.0

    def same_flat(self, other: "Flat", tol: float = 1e-7) -> bool:
        used = set()
        for v in self.vertices:
            hit = None
            for j, w in enumerate(other.vertices):
                if j not in used and v.same(w, tol):
                    hit = j
                    break
            if hit is None:
                return False
            used.add(hit)
        return True


def flat_from_triangle(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> Flat:
    cols = [_float_triple(p) for p in (p1, p2, p3)]
    b = np.column_stack(cols)
    det = float(np.linalg.det(b))
    if abs(det) < 1e-12:
        raise CollinearVertices("triangle vertices are collinear")
    binv = np.linalg.inv(b)
    verts = (p1, p2, p3)
    # sides[k] joins the two vertices other than k
    sides = tuple(verts[(k + 1) % 3].join(verts[(k + 2) % 3]) for k in range(3))
    return Flat(verts, sides, b, binv)


def flat_geodesic(flat: Flat, base: XPoint, velocity: Sequence[float]) -> XGeodesic:
    """Unit-speed geodesic inside a flat with given log-diagonal velocity."""
    w = np.asarray(velocity, dtype=float)
    w = w - w.mean()
    n = float(np.linalg.norm(w))
    if n < 1e-12:
        raise ZeroDirection("flat velocity vanishes")
    w = 2.0 * w / n
    u0 = flat.log_coords(base)
    _, half_inv = base._powers()
    k = np.diag(np.exp(u0 / 2.0)) @ flat.basis_inv @ half_inv
    lam = k.T @ np.diag(-w / 2.0) @ k
    return XGeodesic(base, lam)
