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
from typing import Iterable, List, Optional, Sequence, Tuple

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

# each pair with its rotation, the identity but for c at (p, p) and (q, q), s at (p, q), -s at (q, p)
_JACOBI_PAIRS = (
    (0, 1, lambda c, s: [[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]),
    (0, 2, lambda c, s: [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]),
    (1, 2, lambda c, s: [[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]]),
)


def _off_norm(a) -> float:
    try:
        return math.sqrt(a[0][1] ** 2 + a[0][2] ** 2 + a[1][2] ** 2)
    except OverflowError:  # a float square past the range, which numpy's is as inf
        return math.inf


def jacobi_eigh(mat):
    """Eigenvalues (descending) and orthonormal eigenvector columns.

    The pivots are read as Python floats, one ``tolist()`` per rotation, and
    the rotations are applied as numpy 3x3 products; v starts as the first."""
    a = np.array(mat, dtype=float)
    a = (a + a.T) / 2.0
    scale = max(1.0, float(np.sqrt((a * a).sum())))
    v = None
    al = a.tolist()
    for _ in range(64):
        if _off_norm(al) <= 1e-13 * scale:
            break
        for p, q, rotation in _JACOBI_PAIRS:
            apq = al[p][q]
            if abs(apq) <= 1e-300:
                continue
            theta = (al[q][q] - al[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            rot = np.array(rotation(c, t * c))
            a = rot.T @ a @ rot
            v = rot if v is None else v @ rot
            al = a.tolist()
    else:
        raise ConvergenceFailure("jacobi sweep limit reached")
    if v is None:
        v = np.eye(3)
    # descending, ties in index order; each column's largest entry (the first of equals) made positive
    order = sorted(range(3), key=lambda i: -al[i][i])
    vl = v.tolist()
    signs = [math.copysign(1.0, max((vl[i][j] for i in range(3)), key=abs)) for j in order]
    return np.array([al[i][i] for i in order]), v[:, order] * signs


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

    @classmethod
    def _checked(cls, a: np.ndarray) -> "XPoint":
        """The point of a read-only matrix that has passed ``__init__``'s checks unchanged."""
        e = cls.__new__(cls)
        e.m = a
        return e

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


def _xpoints(mats: np.ndarray) -> Optional[List[XPoint]]:
    """XPoint(m) for each m of a stack, checked as ``XPoint`` checks one matrix, in one batched
    det, cbrt and Cholesky; None when any m would take its rescaling or fail."""
    with np.errstate(all="ignore"):
        a = (mats + mats.swapaxes(1, 2)) / 2.0
        det = np.linalg.det(a)
        if not (np.isfinite(a).all() and (det >= _MIN_NORMAL).all() and (det < math.inf).all()):
            return None
        a = a / np.cbrt(det)[:, None, None]
    if not np.isfinite(a).all():
        return None
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    a.flags.writeable = False
    return [XPoint._checked(m) for m in a]


def geodesic_points(gamma: XGeodesic, taus: np.ndarray) -> Iterable[XPoint]:
    """``geodesic_point(gamma, tau)`` for each tau of taus, in order, the same matrices: from one
    stacked product when every point passes the checks as it stands, else one by one as they
    are read, so a failure raises where and as ``geodesic_point`` raises it."""
    w, v = gamma._direction_eig
    half, _ = gamma.base._powers
    with np.errstate(all="ignore"):
        diag = np.zeros((len(taus), 3, 3))
        diag[:, [0, 1, 2], [0, 1, 2]] = np.exp(-2.0 * taus[:, None] * w)
        points = _xpoints(half @ (v @ diag @ v.T) @ half)
    return (geodesic_point(gamma, float(tau)) for tau in taus) if points is None else points


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


_EPS = 2.0 ** -52

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


_SQRT6 = math.sqrt(6.0)


def _norm_bound(d: np.ndarray) -> np.ndarray:
    """h(d) = e^(4d/sqrt 6) + 2 e^(-2d/sqrt 6), the most that sum s^2 reaches over positive s with
    sum log s = 0 and sum log^2 s = d^2 (derived at ``line_minima``); increasing in d >= 0."""
    with np.errstate(over="ignore"):
        return np.exp(4.0 * d / _SQRT6) + 2.0 * np.exp(-2.0 * d / _SQRT6)


def _square_sums(w: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """sum over (a, b) of w[k, a, b] e^(u2[k, j, b] - u1[i, a]) for every frame k and samples i, j:
    k x n x n products e^(-u1) w e^(u2)'.  Both factors are shifted by half of max u2 - min u1, so
    neither overflows where e^((u2 - u1) / 2) does not; a factor below e^-700, whose term could
    underflow, is taken as inf, so a sum that might have lost a term is not finite."""
    shift = (u2.max(axis=(1, 2)) + u1.min())[:, None, None] / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        left, right = (np.exp(np.where(e < -700.0, np.inf, e)) for e in (shift - u1, u2 - shift))
        return left @ w @ right.swapaxes(1, 2)


def _grid_matrices(c, u1, u2, k, i, j) -> np.ndarray:
    """Grid matrices (k, i, j) of ``flat_distances(c, u1, u2)``, by the same elementwise expression."""
    with np.errstate(over="ignore", invalid="ignore"):
        return c[k] * np.exp((u2[k, j][:, None, :] - u1[i][:, :, None]) / 2.0)


def line_minima(c: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """The minimum of each n x n grid of ``flat_distances(c, u1, u2)``, for k relative frames c
    from ``relative_frames`` and centered samples u1, u2[0], ..., u2[k-1], n of each.  The
    singular values are taken only where a norm bound leaves room for a smaller distance, and
    only those matrices are formed, each by the elementwise expression of the whole grid, so
    each minimum is the same float as over the whole grid.

    The grid is still checked finite, on one matrix per frame.  Entry (a, b) of grid matrix
    (k, i, j) is c[k, a, b] * exp((u2[k, j, b] - u1[i, a]) / 2), and a float difference is
    nondecreasing in its first operand and nonincreasing in its second, as halving, exp and
    the product with a fixed c[k, a, b] are nondecreasing in size.  So over (i, j) the entry
    is largest in size at the exponent max_j u2[k, j, b] - min_i u1[i, a], and is finite
    everywhere if it is finite there.  Where it is not, the grid holds that same non-finite
    entry: an infinite exponent, a NaN sample, a non-finite c, c * inf and 0 * inf all show
    at the largest exponent.

    The bound.  A grid matrix M = D1^(-1/2) C D2^(1/2) has |det M| = 1, so the logs x of its
    singular values s sum to 0 and its distance is d = |x|.  On that circle sum s^2 is at most
    h(d) = e^(4d/sqrt 6) + 2 e^(-2d/sqrt 6) (``_norm_bound``), reached at x = d (2, -1, -1)/sqrt 6:
    there x_m = r cos(theta - 2 pi m/3) with r = 2d/sqrt 6, and summed over m = 0, 1, 2 the series
    e^(2r cos p) = I_0(2r) + 2 sum I_l(2r) cos(l p) keeps I_0 and the terms I_3l(2r) cos(3l theta),
    all of positive weight, so theta = 0 is largest.  With -x for x the same holds of sum s^-2.
    So d >= h^-1(max(F, G)) for F = |M|_F^2 and G = |adj M|_F^2, which is |M^-1|_F^2 at |det M| = 1.
    Over a frame's grid F is e^(-u1) (C o C) e^(u2)' and G is e^(u1) (A o A) e^(-u2)', A the
    cofactors of C (``_square_sums``); no 3 x 3 matrix is formed.  The svd runs first at each
    frame's entry of least max(F, G), and then only where max(F, G) (1 - mu) <= h(best), best
    the distance measured first; every other entry has a computed distance above best.

    The margin mu makes max(F, G) (1 - mu) a lower bound for h(d') of the computed distance d'.
    Let kappa = s_max / s_min, at most sqrt(F G) <= max(F, G).  (1) The svd is backward stable:
    its values are those of M + E, |E| <= 64 eps |M|, so each is within a factor 1 +- 64 eps
    kappa of s (Weyl), which lowers sum s^2 and sum s^-2 by at most 128 eps kappa.  (2) |det M|
    is 1 only up to rounding: C's determinant, which ``relative_frames`` divides out, errs by a
    few eps kappa(C) <= eps kc, kc = (|C|_F^2 |A|_F^2)^(1/2); each entry of M is in the normal
    range only at an exponent below about 750 in size and carries (750 + 4) eps there, which
    moves det M by up to 3 sqrt 3 (754 eps) kappa; the centered u sum to 0 within a few eps |u|;
    and the svd's values in (1) move their product by up to 192 eps kappa.  For computed logs x
    with sum t, sum e^(2x) <= e^(2t/3) h(|x|) and G = e^(2t) sum e^(-2x) <= e^(4t/3) h(|x|), since
    centering x shortens it; (4/3) |t| is at most about 5500 eps kappa + 40 eps kc.  (3) F and G
    as computed: each exponent rounds by at most 710 eps, exp, the products and the sums of
    positive terms by a few eps, and each cofactor, one 2 x 2 minor, by 2 eps (|m m| + |m m|)
    over the matching entries of M, which is at most a relative 4 eps F on G.  (4) d' is within
    4 eps (1 + d') < 4e-13 of |x| wherever h(d') is finite, and h(d + e) <= h(d) e^(1.64 e).
    So mu = 1e-11 + 8192 eps (max(F, G) + kc) covers (1)-(4) with room, and where mu is 1 or
    more, or F or G is not finite, nothing is ruled out."""
    _finite(_frame_matrices(c, u1.min(axis=0)[None], u2.max(axis=-2)[:, None]))
    cof = np.cross(c[:, [1, 2, 0]], c[:, [2, 0, 1]])
    c2, cof2 = c * c, cof * cof
    bound = np.maximum(_square_sums(c2, u1, u2), _square_sums(cof2, -u1, -u2))
    kc = np.sqrt(c2.sum(axis=(1, 2)) * cof2.sum(axis=(1, 2)))[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        lower = bound * (1.0 - (1e-11 + 8192.0 * _EPS * (bound + kc)))
    frames = np.arange(len(c))
    i, j = np.divmod(np.where(np.isnan(bound), np.inf, bound).reshape(len(c), -1).argmin(axis=1), len(u1))
    best = _singular_distances(_grid_matrices(c, u1, u2, frames, i, j))
    measure = ~(lower > _norm_bound(best)[:, None, None])
    measure[frames, i, j] = False
    k, i, j = np.nonzero(measure)
    if len(k):
        np.minimum.at(best, k, _singular_distances(_grid_matrices(c, u1, u2, k, i, j)))
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
