"""Prisms: flat triples over ideal triangles, their polarities and bending data.

A triangle in the Farey pattern carries three flats.  The triple of
flags at the triangle's vertices admits exactly three stabilizing
polarities when its triple product is not +-1; each polarity swaps two
flags, stabilizes the flat they bound, and reflects that flat through a
single point.  Those points are the inflection points, the singular
geodesics through them orthogonal to the medial direction are the
inflection lines, and the signed offset between each flat's medial
geodesic and its inflection point is the bending parameter reported
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .projective import (
    Flag,
    PappusError,
    Polarity,
    ProjMap,
    ProjPoint,
    is_exact_scalar,
    mat_vec,
    triple_product,
)
from .markedbox import (
    MarkedBox,
    OutOfRange,
    box_polarity,
    op_b,
    op_i,
    op_t,
    order3_transform,
    raw_invariant,
    top_flag,
)
from .fareypattern import flat_of_box, pattern_boxes
from .symmspace import (
    Flat,
    XGeodesic,
    XPoint,
    boundary_ray_class,
    LineClass,
    NotPositiveDefinite,
    PointClass,
    flat_geodesic,
    geodesic_between,
    geodesic_point,
    metric_d,
    polarity_fixed_point,
    _polarity_push,
    _polarity_matrix,
)


class PrismError(PappusError):
    pass


class DegenerateTriple(PrismError):
    pass


class UnityTripleProduct(PrismError):
    pass


class NoFixedPointInFlat(PrismError):
    pass


class DiagonalLocus(PrismError):
    pass


class ConsistencyFailure(PrismError):
    pass


# --- character variety --------------------------------------------------------

def triple_invariant(x, y) -> float:
    """Orbit-level invariant |log(x(1-x) / y(1-y))|; zero at the center."""
    if not (0 < x < 1 and 0 < y < 1):
        raise OutOfRange("parameters must lie in (0,1)")
    ratio = (x * (1 - x)) / (y * (1 - y))
    return abs(math.log(float(ratio)))


# --- stabilizing polarities ----------------------------------------------------

def _nullspace_exact(rows: List[List[Fraction]]) -> List[List[Fraction]]:
    m = [list(r) for r in rows]
    ncols = 6
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][fc]
        basis.append(v)
    return basis


def _nullspace_float(rows: List[List[float]]) -> List[List[float]]:
    a = np.array(rows, dtype=float)
    _, s, vt = np.linalg.svd(a)
    tol = max(a.shape) * (s[0] if len(s) else 1.0) * 1e-12
    null = [vt[i] for i in range(6) if i >= len(s) or s[i] <= tol]
    return [list(map(float, v)) for v in null]


def _sym_from_params(p) -> Tuple[Tuple, Tuple, Tuple]:
    q00, q01, q02, q11, q12, q22 = p
    return ((q00, q01, q02), (q01, q11, q12), (q02, q12, q22))


def _swap_rows(u, w) -> List[List]:
    """Rows of cross(q u, w) = 0 in the six symmetric unknowns."""
    zero = u[0] * 0
    qu = (
        (u[0], u[1], u[2], zero, zero, zero),
        (zero, u[0], zero, u[1], u[2], zero),
        (zero, zero, u[0], zero, u[1], u[2]),
    )
    rows = []
    for a, b, wa, wb in ((1, 2, w[2], w[1]), (2, 0, w[0], w[2]), (0, 1, w[1], w[0])):
        rows.append([qu[a][k] * wa - qu[b][k] * wb for k in range(6)])
    return rows


_TRANSPOSITIONS = ((1, 0, 2), (0, 2, 1), (2, 1, 0))


def stabilizing_polarities(flags: Sequence[Flag], tol: float = 1e-9) -> Tuple[Polarity, Polarity, Polarity]:
    """The three polarities carrying a generic flag triple to itself.

    Each acts by one transposition of the flags; returned in the order
    swap(0,1), swap(1,2), swap(2,0), so entry j stabilizes the flat
    bounded by the j-th flag pair of a prism.
    """
    if len(flags) != 3:
        raise DegenerateTriple("need exactly three flags")
    xi = triple_product(flags)
    if is_exact_scalar(xi):
        if xi == 1 or xi == -1:
            raise UnityTripleProduct("flag triple has unity triple product")
    elif min(abs(float(xi) - 1.0), abs(float(xi) + 1.0)) < tol:
        raise UnityTripleProduct("flag triple has unity triple product")
    exact = all(
        is_exact_scalar(c) for f in flags for c in (*f.point.v, *f.line.v)
    )
    out = []
    for perm in _TRANSPOSITIONS:
        rows = []
        for k in range(3):
            u = flags[k].point.v
            w = flags[perm[k]].line.v
            rows.append(_swap_rows(u, w))
        flat_rows = [r for block in rows for r in block]
        if exact:
            basis = _nullspace_exact([[Fraction(v) for v in r] for r in flat_rows])
        else:
            basis = _nullspace_float([[float(v) for v in r] for r in flat_rows])
        if len(basis) != 1:
            raise DegenerateTriple(
                f"polarity solution space has dimension {len(basis)}"
            )
        q = _sym_from_params(basis[0])
        pol = Polarity(q)
        for k in range(3):
            img = mat_vec(q, flags[k].point.v)
            if not ProjPoint(img).same(ProjPoint(flags[perm[k]].line.v), 1e-7):
                raise DegenerateTriple("solved polarity misses a flag image")
        out.append(pol)
    return tuple(out)


# --- prisms --------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Prism:
    """Triple of flats over one ideal triangle.

    boxes, flags, and flats are aligned: flats[0] is bounded by flags 0
    and 1, flats[1] by flags 1 and 2, flats[2] by flags 2 and 0, and
    polarities[j] swaps exactly the pair bounding flats[j].
    """

    boxes: Tuple[MarkedBox, MarkedBox, MarkedBox]
    flags: Tuple[Flag, Flag, Flag]
    flats: Tuple[Flat, Flat, Flat]
    order3: ProjMap
    polarities: Tuple[Polarity, Polarity, Polarity]


def prism_of_triangle(m: MarkedBox) -> Prism:
    boxes = (op_i(m), op_t(m), op_b(m))
    flags = tuple(top_flag(b) for b in boxes)
    flats = tuple(flat_of_box(b) for b in boxes)
    return Prism(
        boxes=boxes,
        flags=flags,
        flats=flats,
        order3=order3_transform(m),
        polarities=stabilizing_polarities(flags),
    )


def inflection_point(psi: Polarity, flat: Flat) -> XPoint:
    """Unique fixed point on a flat of the reflection induced by psi.

    The polarity diagonalizes in the flat basis; the fixed point is the
    positive diagonal form with those absolute entries.
    """
    q = _polarity_matrix(psi)
    c = flat.basis.T @ q @ flat.basis
    off = math.sqrt(2.0 * (c[0, 1] ** 2 + c[0, 2] ** 2 + c[1, 2] ** 2))
    if off > 1e-8 * float(np.sqrt((c * c).sum())):
        raise NoFixedPointInFlat("polarity does not stabilize this flat")
    d = np.abs(np.diag(c))
    if d.min() <= 0:
        raise NoFixedPointInFlat("degenerate diagonal form")
    p = XPoint(flat.basis_inv.T @ np.diag(d) @ flat.basis_inv)
    if not _polarity_push(q, p).same(p, 1e-10):
        raise NoFixedPointInFlat("fixed point residual too large")
    return p


# singular velocity in flat coordinates: both flag axes shrink, the
# meet axis grows, so the forward end is the meet vertex in P
_SINGULAR_VELOCITY = (1.0, 1.0, -2.0)


def inflection_line(flat: Flat, p: XPoint) -> XGeodesic:
    """Singular geodesic of the flat through p, oriented line-end to point-end."""
    return flat_geodesic(flat, p, _SINGULAR_VELOCITY)


@dataclass(frozen=True, eq=False)
class InflectionData:
    flat: Flat
    polarity: Polarity
    point: XPoint
    line: XGeodesic
    medial_point: XPoint
    signed_distance: float
    collinearity_residual: float


def _inflection_for(flat: Flat, psi: Polarity, box: MarkedBox) -> InflectionData:
    pt = inflection_point(psi, flat)
    line = inflection_line(flat, pt)
    medial = polarity_fixed_point(box_polarity(box))
    a_m, b_m = flat.metric_coords(medial)
    a_i, b_i = flat.metric_coords(pt)
    return InflectionData(
        flat=flat,
        polarity=psi,
        point=pt,
        line=line,
        medial_point=medial,
        signed_distance=b_i - b_m,
        collinearity_residual=abs(a_i - a_m),
    )


def prism_inflection_data(p: Prism) -> Tuple[InflectionData, InflectionData, InflectionData]:
    return tuple(
        _inflection_for(p.flats[j], p.polarities[j], p.boxes[j]) for j in range(3)
    )


# --- the translation matrix in the square frame --------------------------------

def translation_T(x, y) -> ProjMap:
    """Singular-line translation of the square-frame box, up to scale.

    The box with invariant (x, y) sits on the unit square: top edge at
    height one traversed left to right, bottom edge at height zero right
    to left.  Eigenvalues are (1, -1, (-1+x+y)/(x-y)) on the top point, the bottom
    point, and the meet of the top and bottom lines.  Undefined on the
    diagonal x = y; singular on the antidiagonal x + y = 1, where the
    triple product is -1.
    """
    if not (0 < x < 1 and 0 < y < 1):
        raise OutOfRange("parameters must lie in (0,1)")
    exact = is_exact_scalar(x) and is_exact_scalar(y)
    if (x == y) if exact else abs(float(x) - float(y)) < 1e-12:
        raise DiagonalLocus("translation matrix degenerates at x = y")
    den = x - y
    row0 = (
        (-1 + x + y) / den,
        (-1 + 3 * x + y - 4 * x * y) / den,
        (1 - 2 * x - y + 2 * x * y) / den,
    )
    one = 1 if exact else 1.0
    zero = 0 * one
    return ProjMap((row0, (zero, one, zero), (zero, 2 * one, -one)))


# --- order-3 axis ---------------------------------------------------------------

def _order3_float(p: Prism) -> np.ndarray:
    g = np.array([[float(v) for v in row] for row in p.order3.m], dtype=float)
    return g / np.cbrt(float(np.linalg.det(g)))


def order3_axis(p: Prism) -> Tuple[XGeodesic, XPoint]:
    """Fixed singular geodesic of the order-3 symmetry and the prism center.

    The axis is spanned by averaged invariant forms; the center is the
    common fixed point of the three polarity reflections on the axis.
    """
    g = _order3_float(p)
    g2 = g @ g

    def average(s0):
        return s0 + g.T @ s0 @ g + g2.T @ s0 @ g2

    e1 = XPoint(average(np.eye(3)))
    e2 = None
    for k in range(3):
        seed = np.zeros((3, 3))
        seed[k, k] = 1.0
        try:
            cand = XPoint(average(seed))
        except NotPositiveDefinite:
            continue
        if not e1.same(cand, 1e-9):
            e2 = cand
            break
    if e2 is None:
        raise ConsistencyFailure("could not span the fixed-form plane")
    axis, _ = geodesic_between(e1, e2)
    forward = boundary_ray_class(axis, 1)
    if isinstance(forward, LineClass):
        axis = axis.reverse()
    elif not isinstance(forward, PointClass):
        raise ConsistencyFailure("order-3 fixed set is not a singular geodesic")

    params = []
    base = geodesic_point(axis, 0.0)
    for psi in p.polarities:
        q = _polarity_matrix(psi)
        image = _polarity_push(q, base)
        dist = metric_d(base, image)
        if dist < 1e-12:
            params.append(0.0)
            continue
        plus = geodesic_point(axis, dist)
        minus = geodesic_point(axis, -dist)
        err_p = float(np.max(np.abs(plus.m - image.m)))
        err_m = float(np.max(np.abs(minus.m - image.m)))
        if min(err_p, err_m) > 1e-6:
            raise ConsistencyFailure("polarity does not stabilize the axis")
        params.append(dist / 2.0 if err_p < err_m else -dist / 2.0)
    spread = max(params) - min(params)
    if spread > 1e-9:
        raise ConsistencyFailure(f"polarity centers disagree by {spread:.3e}")
    center = geodesic_point(axis, sum(params) / 3.0)
    return XGeodesic(center, axis.direction), center


# --- bending report --------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PrismReport:
    word: str
    triple_invariant: float
    distances: Tuple[float, float, float]
    collinearity_residuals: Tuple[float, float, float]


@dataclass(frozen=True, eq=False)
class AdjacencyReport:
    word: str
    child_word: str
    line_offset: float
    point_offset: float


@dataclass(frozen=True, eq=False)
class BendingReport:
    x: float
    y: float
    depth: int
    prisms: Tuple[PrismReport, ...]
    adjacencies: Tuple[AdjacencyReport, ...]

    def as_dict(self) -> Dict:
        return {
            "x": self.x,
            "y": self.y,
            "depth": self.depth,
            "prisms": [
                {
                    "word": p.word,
                    "triple_invariant": p.triple_invariant,
                    "distances": list(p.distances),
                    "collinearity_residuals": list(p.collinearity_residuals),
                }
                for p in self.prisms
            ],
            "adjacent_pairs": [
                {
                    "word": a.word,
                    "child_word": a.child_word,
                    "inflection_line_offset": a.line_offset,
                    "inflection_point_offset": a.point_offset,
                }
                for a in self.adjacencies
            ],
        }


def bending_report(x, y, depth: int) -> BendingReport:
    """Inflection distances per prism plus adjacent-prism displacements.

    Adjacent prisms share a flat; the offsets compare their inflection
    points in the shared flat's coordinates, along the medial axis
    (line_offset, zero when the inflection lines coincide) and along
    the singular axis (point_offset).
    """
    boxes = dict(pattern_boxes(x, y, depth))
    prisms: Dict[str, Prism] = {w: prism_of_triangle(m) for w, m in boxes.items()}
    data = {w: prism_inflection_data(pr) for w, pr in prisms.items()}
    reports = []
    for w in boxes:
        inv = triple_invariant(*raw_invariant(boxes[w]))
        d3 = data[w]
        reports.append(
            PrismReport(
                word=w,
                triple_invariant=inv,
                distances=tuple(item.signed_distance for item in d3),
                collinearity_residuals=tuple(item.collinearity_residual for item in d3),
            )
        )
    adjacencies = []
    for w in boxes:
        for letter, slot in (("t", 1), ("b", 2)):
            child = w + letter
            if child not in prisms:
                continue
            shared = prisms[w].flats[slot]
            if not shared.same_flat(prisms[child].flats[0]):
                raise ConsistencyFailure("adjacent prisms do not share a flat")
            a_p, b_p = shared.metric_coords(data[w][slot].point)
            a_c, b_c = shared.metric_coords(data[child][0].point)
            adjacencies.append(
                AdjacencyReport(
                    word=w,
                    child_word=child,
                    line_offset=abs(a_p - a_c),
                    point_offset=b_p - b_c,
                )
            )
    return BendingReport(
        x=float(x),
        y=float(y),
        depth=depth,
        prisms=tuple(reports),
        adjacencies=tuple(adjacencies),
    )


# --- cone filling -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConeMesh:
    """Sampled cone over a geodesic triangle.

    Vertices are flattened symmetric matrices (xx, xy, xz, yy, yz, zz),
    not Euclidean points.  Each piece is a grid of vertex indices: rows
    walk one triangle side, columns walk toward the apex.
    """

    vertices: List[Tuple[float, float, float, float, float, float]]
    pieces: List[List[List[int]]]
    faces: List[Tuple[int, int, int, int]]
    apex: XPoint


def _flatten_sym(s: np.ndarray) -> Tuple[float, ...]:
    return (
        float(s[0, 0]), float(s[0, 1]), float(s[0, 2]),
        float(s[1, 1]), float(s[1, 2]), float(s[2, 2]),
    )


def cone_fill_sample(p: Prism, triangle: Sequence[XGeodesic], d: float, n: int,
                     window: float = 2.0) -> ConeMesh:
    """Mesh of the cone from a triangle of geodesics to the shifted center."""
    if n < 2:
        raise PrismError("need at least 2 samples per direction")
    axis, center = order3_axis(p)
    apex = geodesic_point(axis, d) if d != 0 else center
    vertices: List[Tuple[float, ...]] = []
    pieces: List[List[List[int]]] = []
    faces: List[Tuple[int, int, int, int]] = []
    for gamma in triangle:
        grid: List[List[int]] = []
        for tau in np.linspace(-window, window, n):
            start = geodesic_point(gamma, float(tau))
            row = []
            if start.same(apex, 1e-12):
                row = [len(vertices)] * n
                vertices.append(_flatten_sym(start.m))
            else:
                seg, dist = geodesic_between(start, apex)
                for frac in np.linspace(0.0, 1.0, n):
                    row.append(len(vertices))
                    vertices.append(_flatten_sym(geodesic_point(seg, float(frac) * dist).m))
            grid.append(row)
        pieces.append(grid)
        for i in range(n - 1):
            for k in range(n - 1):
                faces.append((grid[i][k], grid[i + 1][k], grid[i + 1][k + 1], grid[i][k + 1]))
    return ConeMesh(vertices=vertices, pieces=pieces, faces=faces, apex=apex)


def mesh_to_obj(mesh: ConeMesh) -> str:
    lines = [
        "# cone mesh over a geodesic triangle",
        "# v lines carry 6 entries: the symmetric matrix (xx xy xz yy yz zz)",
        "# these are NOT Euclidean coordinates",
    ]
    for v in mesh.vertices:
        lines.append("v " + " ".join(f"{c:.12g}" for c in v))
    for f in mesh.faces:
        lines.append("f " + " ".join(str(i + 1) for i in f))
    return "\n".join(lines) + "\n"
