"""Prisms, inflection lines, and the bending report."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pappus.projective import (
    Polarity, ProjLine, ProjPoint, SingularMap, cross3, dot3, mat_adjugate, mat_det, mat_mul,
    mat_vec, triple_product,
)
from pappus.markedbox import (
    OutOfRange, apply_word_box, base_box, bottom_flag, box_polarity, op_i, pattern_boxes,
    top_flag,
    triple_invariant,
)
from pappus.symmspace import (
    boundary_ray_class,
    flat_geodesic,
    geodesic_point,
    metric_d,
)
from pappus import prisms
from pappus.cli import main
from pappus.fareypattern import flat_of_flags
from pappus.prisms import (
    ConsistencyFailure,
    DegenerateTriple,
    DiagonalLocus,
    UnityTripleProduct,
    bending_report,
    stabilizing_polarities,
    cone_fill_sample,
    mesh_to_obj,
    order3_axis,
    order3_transform,
    prism_inflection_data,
    Prism,
    prism_of_triangle,
    translation_T,
)
from sweep import sweep_pairs

X, Y = Fraction(3, 10), Fraction(2, 5)

# measured once from this implementation and frozen as a regression pin
INFLECTION_DIST = 0.44850658873134785

# the inflection line's velocity in flat coordinates: both flag axes shrink
# and the meet axis grows, so its forward end is the meet vertex in P
SINGULAR_VELOCITY = (1.0, 1.0, -2.0)


def test_triple_invariant_formula_and_domain():
    assert triple_invariant(X, Y) == pytest.approx(math.log(8 / 7), rel=1e-15)
    assert triple_invariant(Fraction(1, 2), Fraction(1, 2)) == 0.0
    assert triple_invariant(X, Y) == pytest.approx(triple_invariant(Y, X), rel=1e-14)
    with pytest.raises(OutOfRange):
        triple_invariant(0, Fraction(1, 2))


def test_triple_invariant_constant_on_quarter_rotation_orbit():
    orbit = [(X, Y)]
    for _ in range(3):
        x, y = orbit[-1]
        orbit.append((1 - y, x))
    vals = [triple_invariant(x, y) for x, y in orbit]
    assert max(vals) - min(vals) < 1e-14


def test_stabilizing_polarities_swap_the_flag_pairs():
    m = base_box(X, Y)
    prism = prism_of_triangle(m)
    perms = ((1, 0, 2), (0, 2, 1), (2, 1, 0))
    for psi, perm in zip(prism.polarities, perms):
        for k in range(3):
            img_line = psi.point_to_line(prism.flags[k].point)
            assert img_line.same(prism.flags[perm[k]].line, 1e-9)
            img_pt = psi.line_to_point(prism.flags[k].line)
            assert img_pt.same(prism.flags[perm[k]].point, 1e-9)


unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(
    lambda v: 0 < v < 1)


@given(unit_rationals, unit_rationals, st.text(alphabet="itb", max_size=4))
@settings(deadline=None, max_examples=150)
def test_exact_swap_polarities_are_exact_symmetric_and_normalized(x, y, word):
    # x(1-x) = y(1-y) is the unity triple product locus of the whole orbit
    assume(x != y and x + y != 1)
    m = apply_word_box(word, base_box(x, y))
    flags = tuple(top_flag(b) for b in (op_i(m), *m_children(m)))
    perms = ((1, 0, 2), (0, 2, 1), (2, 1, 0))
    for psi, perm in zip(stabilizing_polarities(flags), perms):
        q = psi.q
        assert psi.exact and mat_det(q) != 0
        assert all(q[i][j] == q[j][i] for i in range(3) for j in range(3))
        for k in range(3):
            image = mat_vec(q, flags[k].point.v)
            assert cross3(image, flags[perm[k]].line.v) == (0, 0, 0)
        params = (q[0][0], q[0][1], q[0][2], q[1][1], q[1][2], q[2][2])
        assert [v for v in params if v != 0][-1] == 1


def test_two_reflections_compose_to_order_three():
    prism = prism_of_triangle(base_box(X, Y))
    a = np.array([[float(v) for v in r] for r in prism.polarities[0].q])
    b = np.array([[float(v) for v in r] for r in prism.polarities[1].q])
    g = np.linalg.inv(a) @ b
    g = g / np.cbrt(np.linalg.det(g))
    assert np.allclose(g @ g @ g, np.eye(3), atol=1e-9)
    assert not np.allclose(g, np.eye(3), atol=1e-6)


def test_unity_triple_product_locus_is_rejected():
    m = base_box(Fraction(1, 4), Fraction(3, 4))
    flags = tuple(top_flag(b) for b in (op_i(m), *m_children(m)))
    xi = triple_product(flags)
    assert xi in (1, -1)
    with pytest.raises(UnityTripleProduct):
        prism_of_triangle(m)


def m_children(m):
    from pappus.markedbox import op_t, op_b
    return op_t(m), op_b(m)


def test_degenerate_flag_count_rejected():
    m = base_box(X, Y)
    with pytest.raises(DegenerateTriple):
        stabilizing_polarities((top_flag(m), top_flag(m)))


def test_prism_structure_over_the_base_triangle():
    m = base_box(X, Y)
    prism = prism_of_triangle(m)
    assert prism.flats[0].same_flat(flat_of_flags(top_flag(m), bottom_flag(m)))
    for j in range(3):
        box = prism.boxes[j]
        assert prism.flats[j].same_flat(flat_of_flags(top_flag(box), bottom_flag(box)))
    g = order3_transform(prism)
    g3 = mat_mul(g.m, mat_mul(g.m, g.m))
    assert all(g3[i][j] == (g3[0][0] if i == j else 0) for i in range(3) for j in range(3))


def test_within_prism_inflection_distances_agree():
    prism = prism_of_triangle(base_box(X, Y))
    data = prism_inflection_data(prism)
    ds = [abs(item.signed_distance) for item in data]
    for d in ds:
        assert d == pytest.approx(INFLECTION_DIST, rel=1e-9)
    for j, item in enumerate(data):
        assert item.collinearity_residual < 1e-9
        # inflection point sits on its own singular line at parameter zero
        flat = prism.flats[j]
        line = flat_geodesic(flat, item.point, flat.log_coords(item.point), SINGULAR_VELOCITY)
        assert metric_d(geodesic_point(line, 0.0), item.point) < 1e-10


def test_inflection_line_is_singular_not_medial():
    prism = prism_of_triangle(base_box(X, Y))
    item = prism_inflection_data(prism)[0]
    flat = prism.flats[0]
    line = flat_geodesic(flat, item.point, flat.log_coords(item.point), SINGULAR_VELOCITY)
    fwd = boundary_ray_class(line, 1)
    assert isinstance(fwd, ProjPoint)


def test_axial_parameters_put_the_inflection_on_the_medial_point():
    for x in (Fraction(3, 10), Fraction(1, 5), Fraction(2, 7)):
        m = base_box(x, Fraction(1, 2))
        prism = prism_of_triangle(m)
        for item in prism_inflection_data(prism):
            assert abs(item.signed_distance) < 1e-8
            assert metric_d(item.point, item.medial_point) < 1e-8


def test_polarity_fixes_the_inflection_point():
    # indefinite polarity, so push q e^{-1} q by hand and renormalize
    prism = prism_of_triangle(base_box(X, Y))
    for j, item in enumerate(prism_inflection_data(prism)):
        q = np.array([[float(v) for v in r] for r in prism.polarities[j].q])
        moved = q @ np.linalg.inv(item.point.m) @ q
        moved = moved / np.cbrt(np.linalg.det(moved))
        assert np.max(np.abs(moved - item.point.m)) < 1e-9


def test_square_frame_box_invariant_and_translation_eigenvalues():
    for x, y in ((X, Y), (Fraction(2, 7), Fraction(3, 5))):
        T = translation_T(x, y)
        a = np.array([[float(v) for v in r] for r in T.m])
        lam = sorted(np.linalg.eigvals(a).real)
        third = float((-1 + x + y) / (x - y))
        expected = sorted([1.0, -1.0, third])
        assert np.allclose(lam, expected, atol=1e-10)


def test_translation_degenerate_loci():
    with pytest.raises(DiagonalLocus):
        translation_T(Fraction(2, 5), Fraction(2, 5))
    with pytest.raises(SingularMap):
        translation_T(Fraction(1, 4), Fraction(3, 4))


def test_translation_fixes_the_marked_square_points():
    T = translation_T(X, Y)
    top = ProjPoint((X, 1, 1))
    bottom = ProjPoint((1 - Y, Fraction(0), 1))
    assert ProjPoint(mat_vec(T.m, top.v)).same(top)
    assert ProjPoint(mat_vec(T.m, bottom.v)).same(bottom)


def test_order3_axis_is_singular_with_central_fixed_point():
    m = base_box(X, Y)
    prism = prism_of_triangle(m)
    axis, center = order3_axis(prism)
    assert isinstance(boundary_ray_class(axis, 1), ProjPoint)
    assert metric_d(geodesic_point(axis, 0.0), center) < 1e-12
    g = np.array([[float(v) for v in r] for r in order3_transform(prism).m])
    g = g / np.cbrt(np.linalg.det(g))
    moved = g.T @ center.m @ g
    assert np.max(np.abs(moved - center.m)) < 1e-9


# the canonical exact pairs and one float pair
AXIS_CASES = [(X, Y), (Fraction(17, 41), Fraction(5, 37)), (Fraction(3, 10), Fraction(5, 14)), (0.3, 0.4)]


def _unit_det(s):
    return s / np.cbrt(np.linalg.det(s))


@pytest.mark.parametrize("x, y", AXIS_CASES, ids=lambda v: str(v).replace("/", "_"))
def test_order3_axis_is_fixed_and_each_swap_polarity_reflects_it(x, y):
    prism = prism_of_triangle(base_box(x, y))
    axis, center = order3_axis(prism)
    g = _unit_det(np.array([[float(v) for v in r] for r in order3_transform(prism).m]))
    for t in (-1.0, 0.3, 1.5):
        s = geodesic_point(axis, t).m
        assert np.max(np.abs(g.T @ s @ g - s)) < 1e-12 * np.max(np.abs(s))
    # q S^-1 q = S at the center, and the axis point at t goes to the one at -t
    for psi in prism.polarities:
        q = np.array([[float(v) for v in r] for r in psi.q])
        for t in (0.0, 0.3, 1.5):
            image = _unit_det(q @ np.linalg.inv(geodesic_point(axis, t).m) @ q)
            target = center.m if t == 0.0 else geodesic_point(axis, -t).m
            assert np.max(np.abs(image - target)) < 1e-12 * np.max(np.abs(target))


@pytest.mark.parametrize("x, y", AXIS_CASES, ids=lambda v: str(v).replace("/", "_"))
def test_order3_axis_matches_a_60_digit_reference(x, y):
    mpmath = pytest.importorskip("mpmath")
    prism = prism_of_triangle(base_box(x, y))
    axis, center = order3_axis(prism)
    with mpmath.workdps(60):
        def mat(rows):
            return mpmath.matrix([[mpmath.mpf(Fraction(v).numerator) / Fraction(v).denominator
                                   for v in r] for r in rows])

        def unit_det(s):
            return s / mpmath.cbrt(mpmath.det(s))

        def frame(s):
            w, v = mpmath.eigsy(s)
            return (v * mpmath.diag([mpmath.sqrt(a) for a in w]) * v.T,
                    v * mpmath.diag([1 / mpmath.sqrt(a) for a in w]) * v.T)

        def axis_projector(half, half_inv):
            r = half * g * half_inv
            n = mpmath.matrix([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
            return n * n.T / mpmath.norm(n) ** 2

        def trace(m):
            return m[0, 0] + m[1, 1] + m[2, 2]

        g = unit_det(mat(order3_transform(prism).m))
        e1 = unit_det(mpmath.eye(3) + g.T * g + (g * g).T * (g * g))
        half, half_inv = frame(e1)
        nn = axis_projector(half, half_inv)
        params = []
        for psi in prism.polarities:
            q = mat(psi.q)
            m = half_inv * q * mpmath.inverse(e1) * q * half_inv
            lam_n = trace(nn * m)
            params.append(-mpmath.log(2 * lam_n / (trace(m) - lam_n)) / (2 * mpmath.sqrt(6)))
        c = sum(params) / 3
        ref_center = half * (mpmath.exp(-4 * c / mpmath.sqrt(6)) * nn
                             + mpmath.exp(2 * c / mpmath.sqrt(6)) * (mpmath.eye(3) - nn)) * half
        ref_direction = (3 * axis_projector(*frame(ref_center)) - mpmath.eye(3)) / mpmath.sqrt(6)
        center_err = mpmath.mnorm(mat(center.m) - ref_center, 1) / mpmath.mnorm(ref_center, 1)
        direction_err = mpmath.mnorm(mat(axis.direction) - ref_direction, 1)
    assert center_err < 1e-13
    assert direction_err < 1e-13


# a polarity of another prism: with a foreign psi_0 or psi_1 the map
# psi_0^-1 psi_1 is no third-turn rotation, and a foreign psi_2 does not
# reflect the axis the other two make
@pytest.mark.parametrize("j, message", [
    (0, "order-3 map is not a third-turn rotation"),
    (1, "order-3 map is not a third-turn rotation"),
    (2, "polarity does not stabilize the axis"),
], ids=["psi0", "psi1", "psi2"])
def test_order3_axis_refuses_a_foreign_polarity(j, message):
    prism = prism_of_triangle(base_box(X, Y))
    foreign = prism_of_triangle(base_box(Fraction(1, 3), Fraction(1, 5))).polarities[j]
    polarities = tuple(foreign if k == j else psi for k, psi in enumerate(prism.polarities))
    with pytest.raises(ConsistencyFailure) as refused:
        order3_axis(Prism(prism.boxes, prism.flags, prism.flats, polarities))
    assert str(refused.value).startswith(message)


def test_bending_report_shape_and_adjacency_offsets():
    rep = bending_report(X, Y, 2)
    assert rep.depth == 2 and len(rep.prisms) == 7
    assert len(rep.adjacent_pairs) == 6
    for p in rep.prisms:
        assert p.triple_invariant == pytest.approx(math.log(8 / 7), rel=1e-12)
        for d in p.distances:
            assert abs(d) == pytest.approx(INFLECTION_DIST, rel=1e-9)
        for r in p.collinearity_residuals:
            assert r < 1e-9
    for a in rep.adjacent_pairs:
        assert a.inflection_line_offset < 1e-9
        assert abs(a.inflection_point_offset) == pytest.approx(2 * INFLECTION_DIST, rel=1e-8)


def test_bending_report_as_dict_keys(capsys):
    # the field names are the json keys: cmd_prism prints each record's fields
    assert main(["prism", "--x", "3/10", "--y", "2/5", "--depth", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.pop("command") == "prism"
    assert set(doc) == {"x", "y", "depth", "prisms", "adjacent_pairs"}
    assert set(doc["prisms"][0]) == {
        "word", "triple_invariant", "distances", "collinearity_residuals",
    }
    assert set(doc["adjacent_pairs"][0]) == {
        "word", "child_word", "inflection_line_offset", "inflection_point_offset",
    }


def test_equal_characters_give_equal_bending_data():
    # quarter-rotated parameters: same canonical character, same multisets
    rep_a = bending_report(X, Y, 1)
    rep_b = bending_report(1 - Y, X, 1)
    da = sorted(abs(d) for p in rep_a.prisms for d in p.distances)
    db = sorted(abs(d) for p in rep_b.prisms for d in p.distances)
    assert np.allclose(da, db, atol=1e-8)


def test_cone_mesh_and_obj_export():
    prism = prism_of_triangle(base_box(X, Y))
    n = 4
    mesh = cone_fill_sample(prism, 0.25, n, 2.0)
    assert len(mesh.pieces) == 3
    assert all(len(grid) == n and all(len(row) == n for row in grid) for grid in mesh.pieces)
    assert len(mesh.faces) == 3 * (n - 1) ** 2
    assert all(0 <= idx < len(mesh.vertices) for f in mesh.faces for idx in f)
    # column n-1 of every grid is the shared apex sample
    apex_flat = mesh.vertices[mesh.pieces[0][0][n - 1]]
    for grid in mesh.pieces:
        for row in grid:
            assert np.allclose(mesh.vertices[row[n - 1]], apex_flat, atol=1e-12)

    obj = mesh_to_obj(mesh)
    lines = obj.splitlines()
    assert "# these are NOT Euclidean coordinates" in lines[:3]
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == len(mesh.vertices)
    assert len(f_lines) == len(mesh.faces)
    assert all(len(l.split()) == 7 for l in v_lines)
    for l in f_lines:
        idx = [int(tok) for tok in l.split()[1:]]
        assert all(1 <= i <= len(mesh.vertices) for i in idx)


def _off_diagonal(flat, psi):
    """Entries (0, 1), (0, 2), (1, 2) of V'QV over the flat's stored vertex triples."""
    vs = [v.v for v in flat.vertices]
    return [dot3(vs[i], mat_vec(psi.q, vs[k])) for i, k in ((0, 1), (0, 2), (1, 2))]


@given(unit_rationals, unit_rationals, st.text(alphabet="tb", max_size=3))
@settings(deadline=None, max_examples=60)
def test_flat_polarities_are_diagonal_in_the_vertex_frame(x, y, word):
    # the identity Flat.log_diagonal reads the bending data off: on every flat
    # of a prism, the box polarity of the flat's box and the swap polarity of
    # the flat are diagonal in the flat's vertex frame, exactly
    assume(x != y and x + y != 1)
    prism = prism_of_triangle(apply_word_box(word, base_box(x, y)))
    for j in range(3):
        for psi in (box_polarity(prism.boxes[j]), prism.polarities[j]):
            assert psi.exact
            assert _off_diagonal(prism.flats[j], psi) == [0, 0, 0]


def test_swap_polarity_is_not_diagonal_on_a_foreign_flat():
    prism = prism_of_triangle(base_box(X, Y))
    assert any(c != 0 for c in _off_diagonal(prism.flats[1], prism.polarities[0]))


_SYMMETRIC = ((0, 1, 2), (1, 3, 4), (2, 4, 5))  # q[i][j] as one of (q00, q01, q02, q11, q12, q22)


def _eliminated_polarity(flags, perm):
    """The symmetric q with q p_k a multiple of l_perm(k) for every flag k, by Gauss-Jordan
    elimination in Fractions on its six unknowns (q00, q01, q02, q11, q12, q22): the one free
    unknown set to 1, then the solution divided by its last nonzero entry."""
    rows = []
    for k in range(3):
        p, l = flags[k].point.v, flags[perm[k]].line.v
        qp = [[0] * 6 for _ in range(3)]  # the coefficients of the entries of q p
        for i in range(3):
            for j in range(3):
                qp[i][_SYMMETRIC[i][j]] += p[j]
        for a, b in ((1, 2), (2, 0), (0, 1)):  # (q p) x l = 0
            rows.append([Fraction(qp[a][v] * l[b] - qp[b][v] * l[a]) for v in range(6)])
    pivots = []
    for col in range(6):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                rows[i] = [v - rows[i][col] * w for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
    (free,) = [col for col in range(6) if col not in pivots]
    sol = [Fraction(0)] * 6
    sol[free] = Fraction(1)
    for i, col in enumerate(pivots):
        sol[col] = -rows[i][free]
    last = [v for v in sol if v != 0][-1]
    return tuple(tuple(sol[_SYMMETRIC[i][j]] / last for j in range(3)) for i in range(3))


def _integer_route_prisms(depth):
    pairs = [(X, Y), (Fraction(17, 41), Fraction(5, 37))] + sweep_pairs()
    return [prism_of_triangle(m) for x, y in pairs for _, m in pattern_boxes(x, y, depth)]


def test_swap_polarities_on_ints_are_the_rescaled_elimination_result():
    perms = ((1, 0, 2), (0, 2, 1), (2, 1, 0))
    for prism in _integer_route_prisms(2):
        for psi, perm in zip(prism.polarities, perms):
            assert all(type(e) is int for row in psi.m for e in row)
            assert psi.q == _eliminated_polarity(prism.flags, perm)


def test_polarity_images_are_the_rational_matrix_images():
    # the images through the int matrix m (lines through its adjugate) are the
    # images through the rational matrix q
    for prism in _integer_route_prisms(1):
        for delta in (*prism.polarities, *(box_polarity(b) for b in prism.boxes)):
            q = delta.q
            for flag in prism.flags:
                p, l = flag.point, flag.line
                assert delta.point_to_line(p).v == ProjLine(mat_vec(q, p.v)).v
                assert delta.line_to_point(l).v == ProjPoint(mat_vec(mat_adjugate(q), l.v)).v
                # a float vector is imaged through the same int matrices, which
                # agrees with the image through q up to rounding
                pf, lf = ProjPoint(p.floats()), ProjLine(l.floats())
                assert delta.point_to_line(pf).v == ProjLine(mat_vec(delta.m, pf.v)).v
                assert delta.line_to_point(lf).v == ProjPoint(mat_vec(mat_adjugate(delta.m), lf.v)).v
                assert delta.point_to_line(pf).same(ProjLine(mat_vec(q, pf.v)))
                assert delta.line_to_point(lf).same(ProjPoint(mat_vec(mat_adjugate(q), lf.v)))


def _cleared_log_diagonal(flat, psi):
    """The log-diagonal read with q's denominators cleared by their lcm."""
    den = math.lcm(*(x.denominator for row in psi.q for x in row))
    q = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in psi.q)
    diag = [(dot3(v.v, mat_vec(q, v.v)), dot3(v.v, v.v)) for v in flat.vertices]
    a0, w0 = diag[0]
    u = np.array([math.log(abs(a * w0 / (a0 * w))) for a, w in diag])
    return u - u.mean()


def test_log_diagonal_on_ints_gives_the_cleared_rational_floats():
    for prism in _integer_route_prisms(2):
        for j in range(3):
            for psi in (prism.polarities[j], box_polarity(prism.boxes[j])):
                assert np.array_equal(prism.flats[j].log_diagonal(psi),
                                      _cleared_log_diagonal(prism.flats[j], psi))


def test_every_polarity_of_the_report_is_built_by_its_constructor(monkeypatch):
    # 63 box polarities and 93 swap polarities (3 for each of 31 prisms), none
    # built around Polarity.__init__
    built = []
    init = Polarity.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Polarity, "__init__", counted)
    bending_report(X, Y, 4)
    assert len(built) == 156


@pytest.mark.parametrize("x, y, calls", [(X, Y, 63), (0.3, 0.4, 63)], ids=["exact", "float"])
def test_bending_report_builds_one_box_polarity_per_flat(monkeypatch, x, y, calls):
    # a child prism reads its slot-0 flat through its parent's box polarity of
    # that flat: 3 calls for the root prism and 2 for each of the other 30, not 93
    built = []

    def counted(m):
        built.append(m)
        return box_polarity(m)

    monkeypatch.setattr(prisms, "box_polarity", counted)
    bending_report(x, y, 4)
    assert len(built) == calls
