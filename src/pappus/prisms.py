"""Prisms: flat triples over ideal triangles, their polarities and bending data.

A triangle in the Farey pattern carries three flags at its vertices and
three flats, each the flat of two consecutive flags (``flat_of_flags``),
as a box's flat is the flat of its top and bottom flags.  The flag
triple admits exactly three stabilizing polarities when its triple
product is not +-1; each polarity swaps two flags, stabilizes the flat
they bound, and reflects that flat through a single point.  Those
points are the inflection points, the singular geodesics through them
orthogonal to the medial direction are the inflection lines, and the
signed offset between each flat's medial geodesic and its inflection
point is the bending parameter reported here.

A flat's box polarity (fixed point: the medial point) and swap polarity
(fixed point: the inflection point) are diagonal in its vertex frame
(t, b, top line ^ bottom line): one sends t and b to the bottom and top
lines, the other trades the flat's two flags.  So the report reads both
points off the diagonal (``Flat.log_diagonal``, exact on exact input)
and builds no point of X.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

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
    box_polarity,
    invariant_rotations,
    op_i,
    pattern_boxes,
    top_flag,
    triple_invariant,
    word_rotation,
    _check_params,
    _tb_children,
)
from .fareypattern import flat_of_flags, geodesic_of_box
from .symmspace import (
    FLAT_AXIS_MEDIAL,
    FLAT_AXIS_SINGULAR,
    Flat,
    XGeodesic,
    XPoint,
    geodesic_between,
    geodesic_point,
    geodesic_points,
    _map_matrix,
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
    exact q is held as its int matrix with the scale 1 / last, for last the
    last nonzero entry of (q00, q01, q02, q11, q12, q22): the entry a
    reduced-echelon solution of the six symmetric unknowns sets to 1, so q
    reads as the rational matrix elimination gives.  A float q is divided
    by its largest |entry| and symmetrized.
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
            out.append(Polarity(q, 1, last))
        else:
            top = 2 * max(abs(x) for row in q for x in row)
            out.append(Polarity(tuple(tuple((q[i][j] + q[j][i]) / top for j in range(3)) for i in range(3))))
    return tuple(out)


# --- prisms --------------------------------------------------------------------

class Prism(namedtuple("Prism", "boxes flags flats polarities")):
    """Triple of flats over one ideal triangle.

    boxes are (i(M), t(M), b(M)) for the box M of the triangle.  boxes,
    flags, and flats are aligned: flags[j] is the top flag of boxes[j]
    and the bottom flag of boxes[j - 1], so flats[j], the flat of box j,
    is the flat of flags j and j + 1 (mod 3), and polarities[j] swaps
    exactly the pair bounding flats[j].
    """

    __slots__ = ()


def prism_of_triangle(m: MarkedBox) -> Prism:
    boxes = (op_i(m), *_tb_children(m))
    flags = tuple(top_flag(b) for b in boxes)
    flats = tuple(flat_of_flags(flags[j], flags[(j + 1) % 3]) for j in range(3))
    return Prism(
        boxes=boxes,
        flags=flags,
        flats=flats,
        polarities=stabilizing_polarities(flags),
    )


# the inflection point and the medial point of a flat, points of X; the
# inflection point's signed offset from the medial point along the flat's
# singular axis, and the size of its offset along the medial axis
InflectionData = namedtuple("InflectionData", "point medial_point signed_distance collinearity_residual")


def _slot_logs(p: Prism, j: int, medial: Optional[Polarity] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Log-coordinates on flat j of its inflection point, the fixed point of
    the swap polarity, and of its medial point, the fixed point of ``medial``:
    box j's box polarity, built here unless the caller holds it or a multiple
    of it (``log_diagonal`` reads only ratios)."""
    flat = p.flats[j]
    if medial is None:
        medial = box_polarity(p.boxes[j])
    return flat.log_diagonal(p.polarities[j]), flat.log_diagonal(medial)


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
    _check_params(x, y)
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

def order3_transform(p: Prism) -> ProjMap:
    """The order-3 map i(M) -> t(M) -> b(M): psi_0^-1 psi_1, as psi_1 swaps flags 1
    and 2 and psi_0 flags 0 and 1, scaled to send t(M)'s corner c to b(M)'s, each
    read first-nonzero-is-one, as ``box_polarity`` scales its frame.  That scale is
    the map's only one, so it is built from the polarities' matrices m (ints on
    exact input), whatever their own scales."""
    psi0, psi1 = p.polarities[:2]
    g = mat_mul(psi0.adj, psi1.m)
    ct, cb = p.boxes[1].c.v, p.boxes[2].c.v
    k = max(range(3), key=lambda i: abs(cb[i]))  # g c_t is a multiple of c_b
    num, den = (ct[0] or ct[1] or ct[2]) * cb[k], (cb[0] or cb[1] or cb[2]) * dot3(g[k], ct)
    return ProjMap(mat_scale(g, Fraction(num, den) if psi0.exact else num / den))


def _rotation_axis(e: XPoint, g: np.ndarray) -> np.ndarray:
    """Unit axis n of the third-of-a-turn rotation r = e^(1/2) g e^(-1/2), e g-invariant."""
    half, half_inv = e._powers
    r = half @ g @ half_inv
    residual = max(float(np.max(np.abs(r.T @ r - np.eye(3)))), abs(float(np.trace(r))))
    if residual > 1e-8:
        raise ConsistencyFailure(f"order-3 map is not a third-turn rotation: residual {residual:.3e}")
    n = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return n / np.linalg.norm(n)


def order3_axis(p: Prism) -> Tuple[XGeodesic, XPoint]:
    """Fixed singular geodesic of the order-3 symmetry and the prism center.

    g is ``order3_transform(p)`` scaled to det 1, acting by S -> g'Sg,
    and e1 = I + g'g + g^2'g^2 its averaged invariant form.  In e1's
    frame r = e1^(1/2) g e1^(-1/2) is a rotation by a third of a turn
    about a unit axis n, so the g-invariant forms are
    e1^(1/2) (a nn' + b (I - nn')) e1^(1/2): the geodesic through e1 with
    direction (3nn' - I)/sqrt 6, whose forward end is a point class.  A
    swap polarity q reflects that axis, sending e1 to the axis point at
    parameter 2c; with M = e1^(-1/2) (q e1^-1 q) e1^(-1/2),
    lambda_n = n'Mn and lambda_perp = (tr M - lambda_n)/2,
    c = -log(lambda_n / lambda_perp) / (2 sqrt 6).  The center is the
    axis point at the mean of the three c.  A direction is read in its
    base point's frame, so the axis is returned based at the center with
    n read again in the center's frame; e1's direction moved there would
    leave the fixed set away from the center.
    """
    g = _map_matrix(order3_transform(p))
    g2 = g @ g
    e1 = XPoint(np.eye(3) + g.T @ g + g2.T @ g2)
    n = _rotation_axis(e1, g)
    nn = np.outer(n, n)
    axis = XGeodesic(e1, 3.0 * nn - np.eye(3))
    _, half_inv = e1._powers
    params = []
    for psi in p.polarities:
        m = half_inv @ _polarity_push(_polarity_matrix(psi), e1).m @ half_inv
        lam_n = float(n @ m @ n)
        lam_perp = (float(np.trace(m)) - lam_n) / 2.0
        off = float(np.max(np.abs(m - lam_n * nn - lam_perp * (np.eye(3) - nn))))
        if off > 1e-6 * float(np.max(np.abs(m))):
            raise ConsistencyFailure("polarity does not stabilize the axis")
        params.append(-math.log(lam_n / lam_perp) / (2.0 * math.sqrt(6.0)))
    spread = max(params) - min(params)
    if spread > 1e-9:
        raise ConsistencyFailure(f"polarity centers disagree by {spread:.3e}")
    center = geodesic_point(axis, sum(params) / 3.0)
    n = _rotation_axis(center, g)
    return XGeodesic(center, 3.0 * np.outer(n, n) - np.eye(3)), center


# --- bending report --------------------------------------------------------------

# per prism of the pattern, its word, the orbit invariant of its box and, per
# flat, the inflection distance and collinearity residual
PrismReport = namedtuple("PrismReport", "word triple_invariant distances collinearity_residuals")
AdjacencyReport = namedtuple("AdjacencyReport",
                             "word child_word inflection_line_offset inflection_point_offset")
BendingReport = namedtuple("BendingReport", "x y depth prisms adjacent_pairs")


def bending_report(x, y, depth: int) -> BendingReport:
    """Inflection distances per prism plus adjacent-prism displacements.

    Adjacent prisms share a flat; the offsets compare their inflection
    points in the shared flat's coordinates, along the medial axis
    (inflection_line_offset, zero when the inflection lines coincide)
    and along the singular axis (inflection_point_offset).
    """
    # a box's invariant pair is one of four rotations of (x, y), read off its word
    invariants = [triple_invariant(*pair) for pair in invariant_rotations(x, y)]
    # a child's word -> the flat its prism shares with its parent's (the
    # parent's slot 1 for t, 2 for b), the parent's inflection point there
    # and the parent's box polarity of that slot: the child c's slot-0 box is
    # i(c), whose box polarity is a multiple of c's (both swap c and i(c))
    shared = {}
    reports = []
    adjacent_pairs = []
    # breadth first, children in their parents' order, so the pairs are too
    for w, m in pattern_boxes(x, y, depth):
        prism = prism_of_triangle(m)
        flat, u_parent, inherited = shared.pop(w) if w else (None, None, None)
        medial = [inherited, box_polarity(prism.boxes[1]), box_polarity(prism.boxes[2])]
        logs = tuple(_slot_logs(prism, j, medial[j]) for j in range(3))
        coords = [_plane_coords(u_psi - u_q) for u_psi, u_q in logs]
        reports.append(
            PrismReport(
                word=w,
                triple_invariant=invariants[word_rotation(w)],
                distances=tuple(b for _, b in coords),
                collinearity_residuals=tuple(abs(a) for a, _ in coords),
            )
        )
        if w:
            # the same flat, so the child's swap polarity 0 is read on its frame
            if not flat.same_flat(prism.flats[0]):
                raise ConsistencyFailure("adjacent prisms do not share a flat")
            a, b = _plane_coords(u_parent - flat.log_diagonal(prism.polarities[0]))
            adjacent_pairs.append(
                AdjacencyReport(
                    word=w[:-1],
                    child_word=w,
                    inflection_line_offset=abs(a),
                    inflection_point_offset=b,
                )
            )
        shared[w + "t"] = prism.flats[1], logs[1][0], medial[1]
        shared[w + "b"] = prism.flats[2], logs[2][0], medial[2]
    return BendingReport(
        x=float(x),
        y=float(y),
        depth=depth,
        prisms=tuple(reports),
        adjacent_pairs=tuple(adjacent_pairs),
    )


# --- cone filling -----------------------------------------------------------------

class ConeMesh(namedtuple("ConeMesh", "vertices pieces faces")):
    """Sampled cone over a geodesic triangle.

    Vertices are flattened symmetric matrices (xx, xy, xz, yy, yz, zz),
    not Euclidean points.  Each piece is a grid of vertex indices: rows
    walk one triangle side, columns walk toward the apex.  Faces are
    quadruples of vertex indices.
    """

    __slots__ = ()


def _flatten_sym(s: np.ndarray) -> Tuple[float, ...]:
    return (
        float(s[0, 0]), float(s[0, 1]), float(s[0, 2]),
        float(s[1, 1]), float(s[1, 2]), float(s[2, 2]),
    )


def cone_fill_sample(p: Prism, d: float, n: int, window: float) -> ConeMesh:
    """Mesh of the cone from the medial geodesics of p's boxes to its center shifted by d."""
    if n < 2:
        raise PrismError("need at least 2 samples per direction")
    axis, center = order3_axis(p)
    apex = geodesic_point(axis, d) if d != 0 else center
    vertices: List[Tuple[float, ...]] = []
    pieces: List[List[List[int]]] = []
    faces: List[Tuple[int, int, int, int]] = []
    for box in p.boxes:
        gamma = geodesic_of_box(box).geodesic
        grid: List[List[int]] = []
        for start in geodesic_points(gamma, np.linspace(-window, window, n)):
            if start.same(apex):
                row = [len(vertices)] * n
                vertices.append(_flatten_sym(start.m))
            else:
                seg, dist = geodesic_between(start, apex)
                row = list(range(len(vertices), len(vertices) + n))
                vertices += [_flatten_sym(e.m) for e in geodesic_points(seg, np.linspace(0.0, 1.0, n) * dist)]
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
