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

A flat's box polarity (fixed point: the medial point) and swap polarity
(fixed point: the inflection point) are diagonal in its vertex frame
(t, b, top line ^ bottom line): one sends t and b to the bottom and top
lines, the other trades the flat's two flags.  So the report reads both
points off the diagonal (``Flat.log_diagonal``, exact on exact input)
and builds no point of X.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .projective import (
    Flag,
    PappusError,
    Polarity,
    ProjMap,
    dot3,
    is_exact_scalar,
    mat_adjugate,
    mat_det,
    mat_mul,
    mat_scale,
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
    pattern_boxes,
    raw_invariant,
    top_flag,
    triple_invariant,
)
from .fareypattern import flat_of_box
from .symmspace import (
    FLAT_AXIS_MEDIAL,
    FLAT_AXIS_SINGULAR,
    Flat,
    XGeodesic,
    XPoint,
    boundary_ray_class,
    LineClass,
    NotPositiveDefinite,
    PointClass,
    geodesic_between,
    geodesic_point,
    metric_d,
    _polarity_push,
    _polarity_matrix,
)


class PrismError(PappusError):
    pass


class DegenerateTriple(PrismError):
    pass


class UnityTripleProduct(PrismError):
    pass


class DiagonalLocus(PrismError):
    pass


class ConsistencyFailure(PrismError):
    pass


# --- stabilizing polarities ----------------------------------------------------

_TRANSPOSITIONS = ((1, 0, 2), (0, 2, 1), (2, 1, 0))


def stabilizing_polarities(flags: Sequence[Flag]) -> Tuple[Polarity, Polarity, Polarity]:
    """The three polarities carrying a generic flag triple to itself.

    Each acts by one transposition pi of the flags; returned in the order
    swap(0,1), swap(1,2), swap(2,0), so entry j stabilizes the flat
    bounded by the j-th flag pair of a prism.

    Closed form on the stored triples, with P = [p0 p1 p2], f the flag pi
    fixes and s, t the two it swaps:

        q = [d0 l_pi(0) | d1 l_pi(1) | d2 l_pi(2)] adj(P),
        d_s = (p_s.l_f)(p_f.l_s),  d_t = (p_t.l_f)(p_f.l_t),  d_f = (p_f.l_t)(p_f.l_s).

    q p_k is a multiple of l_pi(k), and these weights make P'qP, hence q,
    symmetric.  Rescaling a point or line rescales q as a whole, so an
    exact q is divided by the last nonzero entry of (q00, q01, q02, q11,
    q12, q22): the entry a reduced-echelon solution of the six symmetric
    unknowns sets to 1, so q is the rational matrix elimination gives.  A
    float q is divided by its largest |entry| and symmetrized.
    """
    if len(flags) != 3:
        raise DegenerateTriple("need exactly three flags")
    exact = all(f.point.exact and f.line.exact for f in flags)
    xi = triple_product(flags)
    if (xi == 1 or xi == -1) if exact else min(abs(float(xi) - 1.0), abs(float(xi) + 1.0)) < 1e-9:
        raise UnityTripleProduct("flag triple has unity triple product")
    pts = tuple(f.point.v for f in flags)
    lns = tuple(f.line.v for f in flags)
    # q is symmetric, so it is built as its transpose adj(P)' [d_k l_pi(k) rows]
    adj_pt = mat_adjugate(pts)
    out = []
    for perm in _TRANSPOSITIONS:
        fix = next(k for k in range(3) if perm[k] == k)
        d = [dot3(pts[k], lns[fix]) * dot3(pts[fix], lns[k]) for k in range(3)]
        d[fix] = dot3(pts[fix], lns[(fix + 1) % 3]) * dot3(pts[fix], lns[(fix + 2) % 3])
        q = mat_mul(adj_pt, tuple(tuple(d[k] * x for x in lns[perm[k]]) for k in range(3)))
        if mat_det(q) == 0:
            raise DegenerateTriple("flag points collinear, lines concurrent or a pairing zero")
        if exact:
            last = next(x for x in (q[2][2], q[1][2], q[1][1], q[0][2], q[0][1], q[0][0]) if x != 0)
            q = mat_scale(q, Fraction(1, last))
        else:
            top = 2 * max(abs(x) for row in q for x in row)
            q = tuple(tuple((q[i][j] + q[j][i]) / top for j in range(3)) for i in range(3))
        out.append(Polarity(q))
    return tuple(out)


# --- prisms --------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Prism:
    """Triple of flats over one ideal triangle.

    base is the box M of the triangle and boxes are (i(M), t(M), b(M)).
    boxes, flags, and flats are aligned: flats[0] is bounded by flags 0
    and 1, flats[1] by flags 1 and 2, flats[2] by flags 2 and 0, and
    polarities[j] swaps exactly the pair bounding flats[j].
    """

    base: MarkedBox
    boxes: Tuple[MarkedBox, MarkedBox, MarkedBox]
    flags: Tuple[Flag, Flag, Flag]
    flats: Tuple[Flat, Flat, Flat]
    polarities: Tuple[Polarity, Polarity, Polarity]


def prism_of_triangle(m: MarkedBox) -> Prism:
    boxes = (op_i(m), op_t(m), op_b(m))
    flags = tuple(top_flag(b) for b in boxes)
    flats = tuple(flat_of_box(b) for b in boxes)
    return Prism(
        base=m,
        boxes=boxes,
        flags=flags,
        flats=flats,
        polarities=stabilizing_polarities(flags),
    )


@dataclass(frozen=True, eq=False)
class InflectionData:
    point: XPoint
    medial_point: XPoint
    signed_distance: float
    collinearity_residual: float


def _slot_logs(p: Prism, j: int) -> Tuple[np.ndarray, np.ndarray]:
    """Log-coordinates on flat j of its inflection point, the fixed point of
    the swap polarity, and of its medial point, the box polarity's."""
    flat = p.flats[j]
    return flat.log_diagonal(p.polarities[j]), flat.log_diagonal(box_polarity(p.boxes[j]))


def _plane_coords(u: np.ndarray) -> Tuple[float, float]:
    """Metric plane coordinates (medial, singular) of flat log-coordinates."""
    return float(u @ FLAT_AXIS_MEDIAL) / 2.0, float(u @ FLAT_AXIS_SINGULAR) / 2.0


def prism_inflection_data(p: Prism) -> Tuple[InflectionData, InflectionData, InflectionData]:
    def item(flat: Flat, u_psi: np.ndarray, u_q: np.ndarray) -> InflectionData:
        a, b = _plane_coords(u_psi - u_q)
        return InflectionData(flat.point_from_log(u_psi), flat.point_from_log(u_q), b, abs(a))

    return tuple(item(p.flats[j], *_slot_logs(p, j)) for j in range(3))


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
    g = np.array([[float(v) for v in row] for row in order3_transform(p.base).m], dtype=float)
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
    inflection_line_offset: float
    inflection_point_offset: float


@dataclass(frozen=True, eq=False)
class BendingReport:
    x: float
    y: float
    depth: int
    prisms: Tuple[PrismReport, ...]
    adjacent_pairs: Tuple[AdjacencyReport, ...]


def bending_report(x, y, depth: int) -> BendingReport:
    """Inflection distances per prism plus adjacent-prism displacements.

    Adjacent prisms share a flat; the offsets compare their inflection
    points in the shared flat's coordinates, along the medial axis
    (inflection_line_offset, zero when the inflection lines coincide)
    and along the singular axis (inflection_point_offset).
    """
    boxes = dict(pattern_boxes(x, y, depth))
    prisms: Dict[str, Prism] = {w: prism_of_triangle(m) for w, m in boxes.items()}
    logs = {w: tuple(_slot_logs(pr, j) for j in range(3)) for w, pr in prisms.items()}
    reports = []
    for w in boxes:
        coords = [_plane_coords(u_psi - u_q) for u_psi, u_q in logs[w]]
        reports.append(
            PrismReport(
                word=w,
                triple_invariant=triple_invariant(*raw_invariant(boxes[w])),
                distances=tuple(b for _, b in coords),
                collinearity_residuals=tuple(abs(a) for a, _ in coords),
            )
        )
    adjacent_pairs = []
    for w in boxes:
        for letter, slot in (("t", 1), ("b", 2)):
            child = w + letter
            if child not in prisms:
                continue
            shared = prisms[w].flats[slot]
            # the same flat, so the child's swap polarity 0 is read on its frame
            if not shared.same_flat(prisms[child].flats[0]):
                raise ConsistencyFailure("adjacent prisms do not share a flat")
            u_child = shared.log_diagonal(prisms[child].polarities[0])
            a, b = _plane_coords(logs[w][slot][0] - u_child)
            adjacent_pairs.append(
                AdjacencyReport(
                    word=w,
                    child_word=child,
                    inflection_line_offset=abs(a),
                    inflection_point_offset=b,
                )
            )
    return BendingReport(
        x=float(x),
        y=float(y),
        depth=depth,
        prisms=tuple(reports),
        adjacent_pairs=tuple(adjacent_pairs),
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
    return ConeMesh(vertices=vertices, pieces=pieces, faces=faces)


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
