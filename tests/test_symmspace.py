"""Unit-ellipsoid space: metric, geodesics, flats, boundary classes.

Distances are checked two ways: the matrix-level routine under test
against a direct log-eigenvalue formula on diagonal pairs, and the
hand-rolled Jacobi eigensolver against numpy's.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from pappus.projective import ProjMap, ProjPoint
from pappus.symmspace import (
    CollinearVertices,
    Flag,
    FlagClass,
    Flat,
    Generic,
    LineClass,
    NotPositiveDefinite,
    PointClass,
    PointOffFlat,
    XGeodesic,
    XPoint,
    ZeroDirection,
    boundary_ray_class,
    duality_action,
    flat_from_triangle,
    flat_geodesic,
    geodesic_between,
    geodesic_point,
    group_action,
    identity_point,
    jacobi_eigh,
    metric_d,
)
from pappus.markedbox import box_polarity
from pappus.fareypattern import base_box, flat_of_box

RNG = np.random.default_rng(20260816)


def random_spd():
    while True:
        g = RNG.normal(size=(3, 3))
        if abs(np.linalg.det(g)) > 0.1:
            return XPoint(g @ g.T)


def random_sl3():
    g = RNG.normal(size=(3, 3))
    return g / np.cbrt(np.linalg.det(g))


def test_xpoint_normalizes_determinant_and_rejects_non_spd():
    e = XPoint(np.diag([2.0, 2.0, 2.0]))
    assert abs(np.linalg.det(e.m) - 1.0) < 1e-12
    with pytest.raises(NotPositiveDefinite):
        XPoint(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        XPoint(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def test_jacobi_agrees_with_numpy():
    for _ in range(50):
        a = RNG.normal(size=(3, 3))
        s = a + a.T
        w, v = jacobi_eigh(s)
        assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(s))) < 1e-12
        assert np.max(np.abs(s @ v - v * w)) < 1e-11


def test_metric_on_diagonal_pairs_matches_log_formula():
    for _ in range(30):
        a = np.exp(RNG.uniform(-1.5, 1.5, size=3))
        b = np.exp(RNG.uniform(-1.5, 1.5, size=3))
        a /= np.cbrt(a.prod())
        b /= np.cbrt(b.prod())
        direct = 0.5 * math.sqrt(sum(math.log(x / y) ** 2 for x, y in zip(a, b)))
        assert abs(metric_d(XPoint(np.diag(a)), XPoint(np.diag(b))) - direct) < 1e-12


def test_metric_axioms_and_invariance():
    for _ in range(40):
        e1, e2, e3 = random_spd(), random_spd(), random_spd()
        d12 = metric_d(e1, e2)
        assert d12 > 0
        assert abs(d12 - metric_d(e2, e1)) < 1e-9 * (1 + d12)
        assert d12 <= metric_d(e1, e3) + metric_d(e3, e2) + 1e-9
        g = ProjMap(tuple(tuple(float(v) for v in row) for row in random_sl3()))
        moved = metric_d(group_action(g, e1), group_action(g, e2))
        assert abs(moved - d12) < 1e-9 * (1 + d12)
    assert metric_d(identity_point(), identity_point()) < 1e-12


def test_lambda_norm_is_distance_from_the_round_sphere():
    # half the norm of the log eigenvalues, computed here with numpy
    for _ in range(10):
        e = random_spd()
        lam = 0.5 * np.linalg.norm(np.log(np.linalg.eigvalsh(e.m)))
        assert abs(lam - metric_d(identity_point(), e)) < 1e-10


def test_duality_action_is_an_isometry_and_involution():
    from pappus.projective import standard_polarity
    delta = standard_polarity(exact=False)
    for _ in range(20):
        e1, e2 = random_spd(), random_spd()
        d = metric_d(e1, e2)
        assert abs(metric_d(duality_action(delta, e1), duality_action(delta, e2)) - d) < 1e-9 * (1 + d)
        back = duality_action(delta, duality_action(delta, e1))
        assert np.max(np.abs(back.m - e1.m)) < 1e-10


def test_geodesics_have_unit_speed_and_prescribed_endpoints():
    for _ in range(20):
        e1, e2 = random_spd(), random_spd()
        gamma, dist = geodesic_between(e1, e2)
        assert np.max(np.abs(geodesic_point(gamma, 0.0).m - e1.m)) < 1e-9
        assert np.max(np.abs(geodesic_point(gamma, dist).m - e2.m)) < 1e-8
        t1, t2 = sorted(RNG.uniform(-2, 2, size=2))
        d = metric_d(geodesic_point(gamma, t1), geodesic_point(gamma, t2))
        assert abs(d - (t2 - t1)) < 1e-8 * (1 + t2 - t1)


def test_zero_direction_rejected():
    with pytest.raises(ZeroDirection):
        XGeodesic(identity_point(), np.zeros((3, 3)))


def test_reverse_flips_the_parameter():
    gamma = XGeodesic(random_spd(), RNG.normal(size=(3, 3)))
    rev = gamma.reverse()
    for t in (-1.3, 0.4, 2.0):
        assert np.max(np.abs(geodesic_point(rev, t).m - geodesic_point(gamma, -t).m)) < 1e-10
    assert gamma.same_unoriented(rev)


# --- flats -------------------------------------------------------------------


def unit_triangle_flat():
    a = ProjPoint((1.0, 0.0, 0.0))
    b = ProjPoint((0.0, 1.0, 0.0))
    c = ProjPoint((0.0, 0.0, 1.0))
    return flat_from_triangle(a, b, c)


def test_flat_from_collinear_triangle_rejected():
    a = ProjPoint((1.0, 0.0, 0.0))
    b = ProjPoint((0.0, 1.0, 0.0))
    c = ProjPoint((1.0, 1.0, 0.0))
    with pytest.raises(CollinearVertices):
        flat_from_triangle(a, b, c)


def test_flat_membership_and_log_coordinates_roundtrip():
    f = unit_triangle_flat()
    for _ in range(10):
        u = RNG.uniform(-1.5, 1.5, size=3)
        p = f.point_from_log(u - u.mean())
        assert f.contains(p, 1e-9)
        back = f.log_coords(p)
        assert np.max(np.abs(back - (u - u.mean()))) < 1e-9
    with pytest.raises(PointOffFlat):
        f.log_coords(random_spd())


def test_flat_chart_is_isometric():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    f = flat_of_box(m)
    for _ in range(10):
        a1, b1, a2, b2 = RNG.uniform(-2, 2, size=4)
        d = metric_d(f.point_at(a1, b1), f.point_at(a2, b2))
        assert abs(d - math.hypot(a1 - a2, b1 - b2)) < 1e-9


def test_flat_geodesics_stay_in_the_flat_at_unit_speed():
    f = unit_triangle_flat()
    p = f.point_at(0.3, -0.2)
    gamma = flat_geodesic(f, p, (1.0, -1.0, 0.0))
    for t in (-2.0, -0.5, 0.7, 1.8):
        assert f.contains(geodesic_point(gamma, t), 1e-9)
    d = metric_d(geodesic_point(gamma, -1.0), geodesic_point(gamma, 1.5))
    assert abs(d - 2.5) < 1e-9


def test_boundary_class_of_medial_directions_is_a_flag():
    f = unit_triangle_flat()
    gamma = flat_geodesic(f, f.point_at(0.0, 0.0), (1.0, -1.0, 0.0))
    fwd = boundary_ray_class(gamma, 1)
    bwd = boundary_ray_class(gamma, -1)
    assert isinstance(fwd, FlagClass) and isinstance(bwd, FlagClass)


def test_boundary_class_of_singular_directions_splits_point_line():
    # shrinking two axes together leaves a single fat axis: a point class;
    # the reverse end fattens two axes and leaves a line class
    f = unit_triangle_flat()
    gamma = flat_geodesic(f, f.point_at(0.0, 0.0), (1.0, 1.0, -2.0))
    assert isinstance(boundary_ray_class(gamma, 1), PointClass)
    assert isinstance(boundary_ray_class(gamma, -1), LineClass)


def test_boundary_class_generic_direction():
    gamma = XGeodesic(identity_point(), np.diag([2.0, 1.0, -3.0]))
    assert isinstance(boundary_ray_class(gamma, 1), Generic)


def test_medial_limits_of_a_box_flat_are_the_marked_flags():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    f = flat_of_box(m)
    from pappus.markedbox import top_flag, bottom_flag
    from pappus.fareypattern import geodesic_of_box
    g = geodesic_of_box(m)
    fwd = boundary_ray_class(g.geodesic, 1)
    bwd = boundary_ray_class(g.geodesic, -1)
    bot, top = bottom_flag(m), top_flag(m)
    assert fwd.flag.point.same(bot.point, 1e-8) and fwd.flag.line.same(bot.line, 1e-8)
    assert bwd.flag.point.same(top.point, 1e-8) and bwd.flag.line.same(top.line, 1e-8)


def test_same_flat_is_vertex_order_insensitive():
    a = ProjPoint((1.0, 0.0, 0.0))
    b = ProjPoint((0.0, 1.0, 0.0))
    c = ProjPoint((0.0, 0.0, 1.0))
    f1 = flat_from_triangle(a, b, c)
    f2 = flat_from_triangle(c, a, b)
    assert f1.same_flat(f2)
    shifted = flat_from_triangle(ProjPoint((1.0, 0.1, 0.0)), b, c)
    assert not f1.same_flat(shifted)
