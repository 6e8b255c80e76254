"""Prisms, inflection lines, and the bending report."""

import math
from fractions import Fraction

import numpy as np
import pytest

from pappus.projective import ProjPoint, SingularMap, triple_product
from pappus.markedbox import OutOfRange, op_i, top_flag
from pappus.symmspace import (
    PointClass,
    boundary_ray_class,
    geodesic_point,
    metric_d,
)
from pappus.fareypattern import base_box, flat_of_box, geodesic_of_box
from pappus.prisms import (
    DegenerateTriple,
    DiagonalLocus,
    UnityTripleProduct,
    bending_report,
    cone_fill_sample,
    inflection_point,
    mesh_to_obj,
    order3_axis,
    prism_inflection_data,
    prism_of_triangle,
    translation_T,
    triple_invariant,
)

X, Y = Fraction(3, 10), Fraction(2, 5)

# measured once from this implementation and frozen as a regression pin
INFLECTION_DIST = 0.44850658873134785


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
    from pappus.prisms import stabilizing_polarities
    m = base_box(X, Y)
    with pytest.raises(DegenerateTriple):
        stabilizing_polarities((top_flag(m), top_flag(m)))


def test_prism_structure_over_the_base_triangle():
    m = base_box(X, Y)
    prism = prism_of_triangle(m)
    assert prism.flats[0].same_flat(flat_of_box(m))
    for j in range(3):
        assert prism.flats[j].same_flat(flat_of_box(prism.boxes[j]))
    g3 = prism.order3.compose(prism.order3).compose(prism.order3)
    from pappus.projective import ProjMap
    assert g3.same(ProjMap(((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_within_prism_inflection_distances_agree():
    prism = prism_of_triangle(base_box(X, Y))
    data = prism_inflection_data(prism)
    ds = [abs(item.signed_distance) for item in data]
    for d in ds:
        assert d == pytest.approx(INFLECTION_DIST, rel=1e-9)
    for item in data:
        assert item.collinearity_residual < 1e-9
        # inflection point sits on its own singular line at parameter zero
        assert metric_d(geodesic_point(item.line, 0.0), item.point) < 1e-10


def test_inflection_line_is_singular_not_medial():
    prism = prism_of_triangle(base_box(X, Y))
    item = prism_inflection_data(prism)[0]
    fwd = boundary_ray_class(item.line, 1)
    assert isinstance(fwd, PointClass)


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
    assert T.apply_point(top).same(top)
    assert T.apply_point(bottom).same(bottom)


def test_order3_axis_is_singular_with_central_fixed_point():
    prism = prism_of_triangle(base_box(X, Y))
    axis, center = order3_axis(prism)
    assert isinstance(boundary_ray_class(axis, 1), PointClass)
    assert metric_d(geodesic_point(axis, 0.0), center) < 1e-12
    g = np.array([[float(v) for v in r] for r in prism.order3.m])
    g = g / np.cbrt(np.linalg.det(g))
    moved = g.T @ center.m @ g
    assert np.max(np.abs(moved - center.m)) < 1e-9


def test_bending_report_shape_and_adjacency_offsets():
    rep = bending_report(X, Y, 2)
    assert rep.depth == 2 and len(rep.prisms) == 7
    assert len(rep.adjacencies) == 6
    for p in rep.prisms:
        assert p.triple_invariant == pytest.approx(math.log(8 / 7), rel=1e-12)
        for d in p.distances:
            assert abs(d) == pytest.approx(INFLECTION_DIST, rel=1e-9)
        for r in p.collinearity_residuals:
            assert r < 1e-9
    for a in rep.adjacencies:
        assert a.line_offset < 1e-9
        assert abs(a.point_offset) == pytest.approx(2 * INFLECTION_DIST, rel=1e-8)


def test_bending_report_as_dict_keys():
    doc = bending_report(X, Y, 1).as_dict()
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
    triangle = [geodesic_of_box(b).geodesic for b in prism.boxes]
    n = 4
    mesh = cone_fill_sample(prism, triangle, 0.25, n)
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


def test_inflection_point_rejects_foreign_flat():
    from pappus.prisms import NoFixedPointInFlat
    prism = prism_of_triangle(base_box(X, Y))
    with pytest.raises(NoFixedPointInFlat):
        inflection_point(prism.polarities[0], prism.flats[1])
