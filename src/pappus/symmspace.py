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
from functools import cached_property
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
    _MIN_NORMAL,
    cross3,
    dot3,
    is_elliptic,
    mat_vec,
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
    arr = np.array(v.floats(), dtype=float)
    return arr / np.linalg.norm(arr)


# --- symmetric 3x3 eigensolver ----------------------------------------------
#
# Cyclic Jacobi, deterministic sweep order (0,1),(0,2),(1,2).  Chosen over a
# closed-form cubic for robustness on near-degenerate spectra.

_JACOBI_PAIRS = ((0, 1), (0, 2), (1, 2))


def jacobi_eigh(mat):
    """Eigenvalues (descending) and orthonormal eigenvector columns."""
    a = np.array(mat, dtype=float)
    a = (a + a.T) / 2.0
    scale = max(1.0, float(np.sqrt((a * a).sum())))
    v = np.eye(3)
    for _ in range(64):
        off = math.sqrt(a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2)
        if off <= 1e-13 * scale:
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


class XPoint:
    """Unit-determinant SPD matrix, renormalized on construction (by 2^k first if det is out of range)."""

    def __init__(self, mat):
        a = np.array(mat, dtype=float)
        if a.shape != (3, 3):
            raise SymmSpaceError("expected a 3x3 matrix")
        with np.errstate(over="ignore", invalid="ignore"):
            a = (a + a.T) / 2.0
            det = float(np.linalg.det(a))
            if not _MIN_NORMAL <= abs(det) < math.inf and np.isfinite(a).all():
                a = np.ldexp(a, -math.frexp(float(np.max(np.abs(a))))[1])
                det = float(np.linalg.det(a))
            if det <= 0:
                raise NotPositiveDefinite("determinant is not positive")
            a = a / np.cbrt(det)
        if not np.isfinite(a).all():
            raise NumericalFailure("matrix is not finite at unit determinant")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("matrix is not positive definite")
        a.flags.writeable = False
        self.m = a

    @cached_property
    def _powers(self) -> Tuple[np.ndarray, np.ndarray]:
        """S^(1/2) and S^(-1/2), from one eigen-solve."""
        w, v = jacobi_eigh(self.m)
        return v @ np.diag(np.sqrt(w)) @ v.T, v @ np.diag(1.0 / np.sqrt(w)) @ v.T

    def same(self, other: "XPoint") -> bool:
        return bool(np.max(np.abs(self.m - other.m)) <= 1e-12 * max(1.0, float(np.max(np.abs(self.m)))))


def metric_d(e1: XPoint, e2: XPoint) -> float:
    ell = np.linalg.cholesky(e1.m)
    w = np.linalg.solve(ell, e2.m)
    w = np.linalg.solve(ell, w.T).T
    mu, _ = jacobi_eigh(w)
    if mu[-1] <= 0:
        raise NumericalFailure("generalized eigenvalues not positive")
    return 0.5 * math.sqrt(sum(math.log(x) ** 2 for x in mu))


def _map_matrix(t: ProjMap) -> np.ndarray:
    """The float matrix of a projective map, scaled to determinant one."""
    m = np.array([[float(x) for x in row] for row in t.m], dtype=float)
    return m / np.cbrt(float(np.linalg.det(m)))


def group_action(t: ProjMap, e: XPoint) -> XPoint:
    minv = np.linalg.inv(_map_matrix(t))
    return XPoint(minv.T @ e.m @ minv)


def _polarity_push(q: np.ndarray, e: XPoint) -> XPoint:
    """S -> q S^-1 q, the duality action; valid for any invertible symmetric q."""
    return XPoint(q @ np.linalg.inv(e.m) @ q)


def _polarity_matrix(delta: Polarity) -> np.ndarray:
    q = np.array(delta.floats(), dtype=float)
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
    # the form is definite, so its sign is the sign of any diagonal entry
    return XPoint(-q if q[0, 0] < 0 else q)


# --- geodesics ---------------------------------------------------------------

class XGeodesic:
    def __init__(self, base: XPoint, direction):
        d = np.array(direction, dtype=float)
        d = (d + d.T) / 2.0
        d = d - np.eye(3) * (np.trace(d) / 3.0)
        n = float(np.sqrt((d * d).sum()))
        if not math.isfinite(n):
            raise NumericalFailure("direction norm is not finite")
        if n < 1e-12:
            raise ZeroDirection("direction vanishes")
        d = d / n
        d.flags.writeable = False
        self.base = base
        self.direction = d

    @cached_property
    def _direction_eig(self) -> Tuple[np.ndarray, np.ndarray]:
        return jacobi_eigh(self.direction)


def geodesic_point(gamma: XGeodesic, tau: float) -> XPoint:
    w, v = gamma._direction_eig
    half, _ = gamma.base._powers
    inner = v @ np.diag(np.exp(-2.0 * tau * w)) @ v.T
    return XPoint(half @ inner @ half)


def geodesic_between(e1: XPoint, e2: XPoint) -> Tuple[XGeodesic, float]:
    """Unit-speed geodesic from e1 through e2, and the distance to e2."""
    half, half_inv = e1._powers
    w = half_inv @ e2.m @ half_inv
    mu, v = jacobi_eigh(w)
    logs = np.log(mu)
    dist = 0.5 * math.sqrt(float((logs * logs).sum()))
    if dist < 1e-12:
        raise ZeroDirection("points coincide")
    a = v @ np.diag(logs) @ v.T
    return XGeodesic(e1, -a / (2.0 * dist)), dist


# --- boundary classification -------------------------------------------------

_PATTERN_POINT = np.array([2.0, -1.0, -1.0]) / math.sqrt(6.0)
_PATTERN_LINE = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
_PATTERN_FLAG = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)


def boundary_ray_class(gamma: XGeodesic, direction: int):
    """What one end of a geodesic limits on: a ProjPoint, a ProjLine, a Flag or None.

    The eigenvalue pattern of the (possibly reversed) direction decides:
    one fat axis gives a point of P, one thin axis a line of P*, the
    (1,0,-1) pattern a full flag, and any other pattern None.
    """
    if direction not in (1, -1):
        raise SymmSpaceError("direction must be +1 or -1")
    lam = direction * gamma.direction
    w, v = jacobi_eigh(lam)
    half, half_inv = gamma.base._powers
    if np.max(np.abs(w - _PATTERN_POINT)) < 1e-8:
        return ProjPoint(tuple(half_inv @ v[:, 0]))
    if np.max(np.abs(w - _PATTERN_LINE)) < 1e-8:
        return ProjLine(tuple(half @ v[:, 2]))
    if np.max(np.abs(w - _PATTERN_FLAG)) < 1e-8:
        return Flag(ProjPoint(tuple(half_inv @ v[:, 0])), ProjLine(tuple(half @ v[:, 2])))
    return None


# --- flats -------------------------------------------------------------------

# orthonormal basis of the traceless log-coordinate plane of any flat
FLAT_AXIS_MEDIAL = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
FLAT_AXIS_SINGULAR = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)


def plane_log(a, b) -> np.ndarray:
    """Log-coordinates of the flat point at metric plane coordinates (a, b), on a last axis."""
    return np.multiply.outer(2.0 * a, FLAT_AXIS_MEDIAL) + np.multiply.outer(2.0 * b, FLAT_AXIS_SINGULAR)


class Flat:
    """Totally geodesic plane spanned by a triangle of directions.

    A flat holds its vertices and their float basis B, the vertices as
    columns.  Points of the flat are the forms diagonalized by the vertex
    basis: S = (B^-1)' D B^-1 with D positive diagonal.  In log-diagonal
    coordinates the flat is a Euclidean plane at half scale.
    """

    __slots__ = ("vertices", "basis")

    def __init__(self, vertices: Sequence[ProjPoint], basis):
        self.vertices = tuple(vertices)
        self.basis = np.array(basis, dtype=float)
        self.basis.flags.writeable = False

    def frame(self, s: np.ndarray) -> Tuple[np.ndarray, float, float]:
        """C = B' s B with the norms of its off-diagonal part and of C;
        the form s lies on the flat when the first norm is 0."""
        c = self.basis.T @ s @ self.basis
        off = math.sqrt(2.0 * (c[0, 1] ** 2 + c[0, 2] ** 2 + c[1, 2] ** 2))
        return c, off, float(np.sqrt((c * c).sum()))

    def log_diagonal(self, psi: Polarity) -> np.ndarray:
        """Centered u_k = log|v_k' q v_k / v_k' v_k| over the vertices v_k:
        the log-coordinates of psi's fixed point when psi is diagonal in the
        vertex frame, as the flat's box polarity and a prism's swap polarity
        of the flat are, so nothing off the diagonal is read.  Only ratios of
        the diagonal are read, so on exact input q's int matrix m stands for
        q, and each u_k - u_0 is the log of a correctly rounded int quotient,
        whatever the height of the ints."""
        if psi.exact and all(v.exact for v in self.vertices):
            q, vs = psi.m, tuple(v.v for v in self.vertices)
        else:
            q, vs = _polarity_matrix(psi), tuple(self.basis.T)
        diag = [(dot3(v, mat_vec(q, v)), dot3(v, v)) for v in vs]
        if any(a == 0 for a, _ in diag):
            raise PointOffFlat("polarity has no fixed point on the flat: a vertex is isotropic")
        a0, w0 = diag[0]
        u = np.array([math.log(abs(a * w0 / (a0 * w))) for a, w in diag])
        return u - u.mean()

    def log_coords(self, e: XPoint) -> np.ndarray:
        c, off, norm = self.frame(e.m)
        d = np.diag(c)
        if d.min() <= 0 or off > 1e-8 * norm:
            raise PointOffFlat("point is not on the flat")
        u = np.log(d)
        return u - u.mean()

    def point_from_log(self, u: Sequence[float]) -> XPoint:
        d = np.exp(np.asarray(u, dtype=float))
        inv = np.linalg.inv(self.basis)
        return XPoint(inv.T @ np.diag(d) @ inv)

    def point_at(self, a: float, b: float) -> XPoint:
        """Point at metric plane coordinates (a, b)."""
        return self.point_from_log(plane_log(a, b))

    def same_flat(self, other: "Flat") -> bool:
        used = set()
        for v in self.vertices:
            hit = None
            for j, w in enumerate(other.vertices):
                if j not in used and v.same(w, 1e-7):
                    hit = j
                    break
            if hit is None:
                return False
            used.add(hit)
        return True


def relative_frames(f1: Flat, flats: Sequence[Flat]) -> np.ndarray:
    """The relative frames C = B1' B2^-T of f1 against each flat of flats, each scaled to
    |det C| = 1: a k x 3 x 3 stack from one batched solve and det."""
    c = np.linalg.solve(np.stack([f.basis for f in flats]), f1.basis).swapaxes(-1, -2)
    # solving rounds better than a product with an inverted basis
    return c / np.cbrt(abs(np.linalg.det(c)))[:, None, None]


_NOT_POSITIVE = "singular values of the flats' relative frame not finite and positive"


def _frame_matrices(c: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """D1^(-1/2) C D2^(1/2) for every point u1 (n x 3) against every u2 (... x m x 3), with
    c (... x 3 x 3) the matching relative frames: ... x n x m x 3 x 3 matrices, unchecked."""
    with np.errstate(over="ignore", invalid="ignore"):
        return c[..., None, None, :, :] * np.exp((u2[..., None, :, None, :] - u1[:, None, :, None]) / 2.0)


def _finite(m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise NumericalFailure(_NOT_POSITIVE)
    return m


def _singular_distances(m: np.ndarray) -> np.ndarray:
    """sqrt(sum log^2 s) over the singular values s of each 3 x 3 matrix of m: one batched svd."""
    s = np.linalg.svd(m, compute_uv=False)
    if not s.min() > 0:
        raise NumericalFailure(_NOT_POSITIVE)
    return np.sqrt((np.log(s) ** 2).sum(axis=-1))


def flat_distances(c: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Distances between points u1 (n x 3) of a flat F1 and u2 (... x m x 3) of flats F2, in
    centered log-coordinates, given the relative frames c = ``relative_frames(F1, F2s)``
    (or one of them): ... x n x m.  A point of a flat is B^-T D B^-1 with D = diag(e^u), so by
    affine invariance the distance is sqrt(sum log^2 s) over the singular values s of
    D1^(-1/2) C D2^(1/2), each matrix checked finite; no point of X is formed."""
    return _singular_distances(_finite(_frame_matrices(c, u1, u2)))


def _coarse_indices(n: int) -> np.ndarray:
    """The sample indices per axis that ``line_minima`` measures first, on a line of n samples:
    the first, the last and evenly spaced ones between them, about sqrt(n - 1) samples apart
    (0, 3, 7, 10 and 14 of 15).  A coarse subgrid of K^2 matrices leaves unmeasured a region
    around the minimum of about the square of its step, (n - 1)^2 / (K - 1)^2 samples, and the
    sum of the two is least near K - 1 = sqrt(n - 1)."""
    steps = max(1, round(math.sqrt(n - 1)))
    return np.array(sorted({i * (n - 1) // steps for i in range(steps + 1)}))


def line_minima(c: np.ndarray, u1: np.ndarray, u2: np.ndarray, step: float) -> np.ndarray:
    """The minimum of each n x n grid of ``flat_distances(c, u1, u2)``, for k relative frames c
    and u1, u2[0], ..., u2[k-1] each n samples of a line in its flat, consecutive samples
    ``step`` apart in X.  The singular values are taken only at a coarse subgrid and at the
    samples that it cannot rule out, and only those matrices are formed, each by the
    elementwise expression of the whole grid, so each minimum is the same float as over the
    whole grid.

    The grid is still checked finite, on one matrix per frame.  Entry (a, b) of grid matrix
    (k, i, j) is c[k, a, b] * exp((u2[k, j, b] - u1[i, a]) / 2), and a float difference is
    nondecreasing in its first operand and nonincreasing in its second, as halving, exp and
    the product with a fixed c[k, a, b] are nondecreasing in size.  So over (i, j) the entry
    is largest in size at the exponent max_j u2[k, j, b] - min_i u1[i, a], and is finite
    everywhere if it is finite there.  Where it is not, the grid holds that same non-finite
    entry: an infinite exponent, a NaN sample, a non-finite c, c * inf and 0 * inf all show
    at the largest exponent.

    X has nonpositive curvature, so for any measured (k, l) the triangle inequality gives
    d(i, j) >= d(k, l) - step * (|i - k| + |j - l|), and an entry whose bound exceeds the
    smallest measured distance cannot hold the minimum.  The margin keeps that true of the
    computed distances.  The svd is backward stable and each entry of M carries a few ulps,
    so each singular value moves by a small multiple of eps * s_max, and each log s by that
    multiple of eps * kappa(M), kappa(M) = s_max / s_min = exp(log s_max - log s_min).  Since
    (log s_max - log s_min)^2 <= 2 (log^2 s_max + log^2 s_min) <= 2 d^2, kappa(M) <= e^(sqrt 2 d),
    and a computed distance errs by at most 64 eps e^(sqrt 2 d).  (k, l) rules out only entries
    whose slack step * (|i - k| + |j - l|) is below d(k, l) - best, for best the smallest
    measured distance, and the triangle inequality also gives d(i, j) <= d(k, l) + slack, so
    d(i, j) < 2 d(k, l) - best there: the bound and the skipped entry together err by at most
    128 eps e^(sqrt 2 (2 d(k, l) - best)).  1e-12 more covers the rounding of the samples, of
    their spacing and of the bound itself.  A margin that overflows rules nothing out."""
    _finite(_frame_matrices(c, u1.min(axis=0)[None], u2.max(axis=-2)[:, None]))
    n = len(u1)
    coarse = _coarse_indices(n)
    d = _singular_distances(_frame_matrices(c, u1[coarse], u2[:, coarse]))
    best = d.min(axis=(1, 2))
    with np.errstate(over="ignore"):
        margin = 1e-12 + 128.0 * np.finfo(float).eps * np.exp(math.sqrt(2.0) * (2.0 * d - best[:, None, None]))
    off = step * np.abs(np.arange(n)[:, None] - coarse)  # n x coarse
    bound = np.full((len(c), n, n), -np.inf)
    for a, b in np.ndindex(len(coarse), len(coarse)):
        np.maximum(bound, (d[:, a, b] - margin[:, a, b])[:, None, None] - (off[:, a, None] + off[None, :, b]),
                   out=bound)
    bound[:, coarse[:, None], coarse] = np.inf  # measured already
    k, i, j = np.nonzero(bound <= best[:, None, None])
    if len(k):
        with np.errstate(over="ignore", invalid="ignore"):
            m = c[k] * np.exp((u2[k, j][:, None, :] - u1[i][:, :, None]) / 2.0)
        np.minimum.at(best, k, _singular_distances(m))
    return best


def flat_from_triangle(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> Flat:
    b = np.column_stack([_float_triple(p) for p in (p1, p2, p3)])
    exact = p1.exact and p2.exact and p3.exact
    if dot3(p1.v, cross3(p2.v, p3.v)) == 0 if exact else abs(np.linalg.det(b)) < 1e-12:
        raise CollinearVertices("triangle vertices are collinear")
    return Flat((p1, p2, p3), b)


def flat_geodesic(flat: Flat, base: XPoint, u0: np.ndarray, velocity: Sequence[float]) -> XGeodesic:
    """Unit-speed geodesic inside a flat with given log-diagonal velocity through base (u0 in the flat)."""
    w = np.asarray(velocity, dtype=float)
    w = w - w.mean()
    n = float(np.linalg.norm(w))
    if n < 1e-12:
        raise ZeroDirection("flat velocity vanishes")
    w = 2.0 * w / n
    _, half_inv = base._powers
    k = np.diag(np.exp(u0 / 2.0)) @ np.linalg.inv(flat.basis) @ half_inv
    lam = k.T @ np.diag(-w / 2.0) @ k
    return XGeodesic(base, lam)
