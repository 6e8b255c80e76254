"""Unit-ellipsoid space: metric, geodesics, flats, boundary classes.

Distances are checked three ways: the matrix-level routine under test
against a direct log-eigenvalue formula on diagonal pairs, the
hand-rolled Jacobi eigensolver against numpy's, and the flat distance
kernel, which forms no matrix of X, against the matrix-level routine.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pappus.projective import Flag, Polarity, ProjLine, ProjMap, ProjPoint
from pappus.markedbox import apply_word_box, base_box, bottom_flag, box_polarity, top_flag
from pappus.symmspace import (
    _norm_bound,
    CollinearVertices,
    NotPositiveDefinite,
    NumericalFailure,
    PointOffFlat,
    SymmSpaceError,
    XGeodesic,
    XPoint,
    ZeroDirection,
    boundary_ray_class,
    duality_action,
    flat_distances,
    flat_from_triangle,
    flat_geodesic,
    geodesic_between,
    geodesic_point,
    group_action,
    jacobi_eigh,
    line_minima,
    metric_d,
    plane_log,
    polarity_fixed_point,
    relative_frames,
)
from pappus.fareypattern import build_pattern, flat_of_flags

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


def _jacobi_inputs():
    """200 seeded symmetric matrices: a diagonal one, which takes no rotation, then in turn
    two eigenvalues 1e-9 apart, a near multiple of the identity and two generic spectra."""
    rng = np.random.default_rng(20261021)
    mats = [np.diag([3.0, -1.0, 0.5])]
    for k in range(199):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        kind = k % 4
        if kind == 0:
            w = np.array([1.0, 1.0 + 1e-9, rng.normal()])
        elif kind == 1:
            w = 2.0 + 1e-13 * rng.normal(size=3)
        else:
            w = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4)
        mats.append(q @ np.diag(w) @ q.T)
    return mats


def test_jacobi_bits_are_pinned():
    # every float pin of the geometry runs through these bits; pinned before the
    # pivots were read as Python floats
    digest = hashlib.sha256()
    for mat in _jacobi_inputs():
        w, v = jacobi_eigh(mat)
        digest.update(w.tobytes() + v.tobytes())
    assert digest.hexdigest() == "7c9760d47cb52307537205395e91e56f83e475542405ef57193b8e905ee7ba03"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-4.0, 4.0), min_size=9, max_size=9))
@example([0, 0, 0, 1, 5.0217672557907946e-247, 0, 6.589237737757185e-66, 0, 1])  # det's LU divides by zero
def test_squared_norms_are_bounded_by_the_distance(entries):
    # line_minima rules grid matrices out by d >= h^-1(max(|M|_F^2, |M^-1|_F^2)) at |det M| = 1
    m = np.array(entries).reshape(3, 3)
    with np.errstate(divide="ignore", invalid="ignore"):  # a singular draw, which assume discards
        det = np.linalg.det(m)
    assume(abs(det) >= 0.5)
    m = m / np.cbrt(abs(det))
    s = np.linalg.svd(m, compute_uv=False)
    h = _norm_bound(math.sqrt(float((np.log(s) ** 2).sum())))
    assert (m * m).sum() <= h * (1.0 + 1e-12)
    inv = np.linalg.inv(m)
    assert (inv * inv).sum() <= h * (1.0 + 1e-12)


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
    assert metric_d(XPoint(np.eye(3)), XPoint(np.eye(3))) < 1e-12


def test_lambda_norm_is_distance_from_the_round_sphere():
    # half the norm of the log eigenvalues, computed here with numpy
    for _ in range(10):
        e = random_spd()
        lam = 0.5 * np.linalg.norm(np.log(np.linalg.eigvalsh(e.m)))
        assert abs(lam - metric_d(XPoint(np.eye(3)), e)) < 1e-10


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
        XGeodesic(XPoint(np.eye(3)), np.zeros((3, 3)))


# the symmetrization and the determinant of these make NaN and inf on the
# way; XPoint refuses them without letting numpy's warnings out
@pytest.mark.parametrize("mat", [np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 1.0]), np.diag([1e308] * 3)],
                         ids=["nan", "inf", "overflow"])
def test_a_matrix_not_finite_at_unit_determinant_is_refused(mat):
    with pytest.raises(NumericalFailure) as refused:
        XPoint(mat)
    assert str(refused.value) == "matrix is not finite at unit determinant"


# positive definite, with a determinant that overflows (1e309, 1e600) or
# underflows (1e-600) in floats
@pytest.mark.parametrize("scale", [1e103, 1e200, 1e-200])
def test_a_determinant_out_of_the_float_range_still_normalizes(scale):
    e = XPoint(np.diag([scale] * 3))
    assert np.max(np.abs(e.m - np.eye(3))) <= 4 * np.finfo(float).eps


# the overflowing one was stored as a zero direction, its entries over an infinite norm
@pytest.mark.parametrize("direction", [np.diag([np.nan, 0.0, 0.0]), np.diag([np.inf, 0.0, -np.inf]),
                                       np.diag([1e200, 0.0, -1e200])], ids=["nan", "inf", "overflow"])
def test_a_direction_not_finite_is_refused(direction):
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NumericalFailure) as refused:
        XGeodesic(XPoint(np.eye(3)), direction)
    assert str(refused.value) == "direction norm is not finite"


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


def test_exact_triangles_are_decided_by_their_triple_product():
    # unit float columns of this thin depth-12 flat have |det| 2.3e-13, under
    # the float test's 1e-12, but its exact vertices are not collinear
    m = apply_word_box("tbtbtbtbtbtb", base_box(Fraction(17, 41), Fraction(5, 37)))
    f = flat_of_flags(top_flag(m), bottom_flag(m))
    assert np.isfinite(np.linalg.inv(f.basis)).all()
    with pytest.raises(CollinearVertices):
        flat_from_triangle(ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0)), ProjPoint((1, 1, 0)))


def test_flat_membership_and_log_coordinates_roundtrip():
    f = unit_triangle_flat()
    for _ in range(10):
        u = RNG.uniform(-1.5, 1.5, size=3)
        p = f.point_from_log(u - u.mean())
        _, off, norm = f.frame(p.m)
        assert off <= 1e-9 * norm
        back = f.log_coords(p)
        assert np.max(np.abs(back - (u - u.mean()))) < 1e-9
    with pytest.raises(PointOffFlat):
        f.log_coords(random_spd())


def test_log_diagonal_reads_the_diagonal_of_a_flat_polarity():
    exact = flat_from_triangle(ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0)), ProjPoint((0, 0, 1)))
    want = np.log([2.0, 8.0, 0.5])
    want -= want.mean()
    for f, q in ((unit_triangle_flat(), ((2.0, 0.0, 0.0), (0.0, -8.0, 0.0), (0.0, 0.0, 0.5))),
                 (exact, ((2, 0, 0), (0, -8, 0), (0, 0, Fraction(1, 2))))):
        assert np.max(np.abs(f.log_diagonal(Polarity(q)) - want)) < 1e-15
    # on a box's flat, the box polarity's diagonal is its fixed point's chart
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    f = flat_of_flags(top_flag(m), bottom_flag(m))
    u = f.log_diagonal(box_polarity(m))
    assert np.max(np.abs(u - f.log_coords(polarity_fixed_point(box_polarity(m))))) < 1e-12
    with pytest.raises(PointOffFlat):
        exact.log_diagonal(Polarity(((0, 1, 0), (1, 0, 0), (0, 0, 1))))


def test_flat_chart_is_isometric():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    f = flat_of_flags(top_flag(m), bottom_flag(m))
    for _ in range(10):
        a1, b1, a2, b2 = RNG.uniform(-2, 2, size=4)
        d = metric_d(f.point_at(a1, b1), f.point_at(a2, b2))
        assert abs(d - math.hypot(a1 - a2, b1 - b2)) < 1e-9


def random_logs(n):
    u = RNG.uniform(-2.0, 2.0, size=(n, 3))
    return u - u.mean(axis=1, keepdims=True)


def test_flat_distances_match_the_metric_on_pattern_flats():
    geos = build_pattern(Fraction(3, 10), Fraction(2, 5), 3).geodesics
    for ga, gb in ((geos[0], geos[5]), (geos[3], geos[12])):
        u1, u2 = random_logs(4), random_logs(5)
        d = flat_distances(relative_frames(ga.flat, [gb.flat])[0], u1, u2)
        assert d.shape == (4, 5)
        for i, j in np.ndindex(d.shape):
            ref = metric_d(ga.flat.point_from_log(u1[i]), gb.flat.point_from_log(u2[j]))
            assert abs(d[i, j] - ref) <= 1e-10 * ref
    f = geos[7].flat
    u = random_logs(3)
    assert np.max(np.abs(np.diag(flat_distances(relative_frames(f, [f])[0], u, u)))) < 1e-14
    # one batched call measures f against several flats, each as its own call would
    others = [g.flat for g in geos[8:11]]
    u2 = np.stack([random_logs(5) for _ in others])
    batched = flat_distances(relative_frames(f, others), u, u2)
    for k, g in enumerate(others):
        assert np.array_equal(batched[k], flat_distances(relative_frames(f, [g])[0], u, u2[k]))


def test_flat_distances_reject_log_coordinates_out_of_range():
    # the log of an infinite or zero singular value would be NaN or infinite,
    # which is not JSON
    f = unit_triangle_flat()
    for far in ([-1600.0, 800.0, 800.0], [1600.0, -800.0, -800.0]):
        with pytest.raises(NumericalFailure):
            flat_distances(relative_frames(f, [f])[0], np.array([far]), np.zeros((1, 3)))


def test_line_samples_are_step_apart_and_bound_the_rest(monkeypatch):
    # the summary's line u0 + plane_log(tau, 0) moves at unit speed in tau, so
    # consecutive samples are 2 window / (samples - 1) apart, as it reports
    geos = build_pattern(Fraction(3, 10), Fraction(2, 5), 3).geodesics
    window, samples = 3.0, 15
    step = 2.0 * window / (samples - 1)
    line = plane_log(np.linspace(-window, window, samples), 0.0)
    f = geos[4].flat
    d = flat_distances(relative_frames(f, [f])[0], geos[4].fixed_log + line, geos[4].fixed_log + line)
    assert np.allclose(np.diag(d, 1), step, rtol=1e-12)
    # and the norm bound leaves a row of later geodesics 41 sample matrices
    # to take the singular values of, of the 2250 its full grids hold
    later = geos[5:]
    measured = []
    svd = np.linalg.svd

    def counted(m, **kw):
        measured.append(m.size // 9)
        return svd(m, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    line_minima(relative_frames(geos[4].flat, [g.flat for g in later]), geos[4].fixed_log + line,
                np.stack([g.fixed_log + line for g in later]))
    assert sum(measured) <= 41


def _far_apart_lines(first, second):
    """Two 15-sample lines on one flat, 6 / 14 apart each, whose grid minimum sits at the
    corner (14, 0), far from sample (1, 1); samples (1, 1) are replaced by first and second."""
    tau = np.linspace(-3.0, 3.0, 15)
    u1, u2 = plane_log(tau, 0.0), plane_log(tau + 10.0, 0.0)
    u1[1], u2[1] = first, second
    return np.eye(3)[None], u1, u2[None]


def test_line_minima_checks_the_matrices_it_does_not_measure(monkeypatch):
    # only grid matrix (1, 1) overflows: (u2[1, 0] - u1[1, 0]) / 2 = 750, while every other
    # exponent stays near 375 or below; the whole grid is checked finite before any bound
    # is formed, so (1, 1) is refused whether or not the bound would measure it
    with pytest.raises(NumericalFailure):
        line_minima(*_far_apart_lines([-750.0, 375.0, 375.0], [750.0, -375.0, -375.0]))
    # at exponent 700 the grid is finite, the same samples take 31 svds of the 225 of the
    # grid (row 1, whose bounds overflow, the corner and 15 entries near it), and the
    # minimum is the corner's, |3 - (-3 + 10)| = 4 in X
    measured = []
    svd = np.linalg.svd

    def counted(m, **kw):
        measured.append(m.size // 9)
        return svd(m, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    (best,) = line_minima(*_far_apart_lines([-700.0, 350.0, 350.0], [700.0, -350.0, -350.0]))
    assert best == pytest.approx(4.0, rel=1e-12)
    assert sum(measured) <= 31


def test_flat_geodesics_stay_in_the_flat_at_unit_speed():
    f = unit_triangle_flat()
    p = f.point_at(0.3, -0.2)
    gamma = flat_geodesic(f, p, f.log_coords(p), (1.0, -1.0, 0.0))
    for t in (-2.0, -0.5, 0.7, 1.8):
        _, off, norm = f.frame(geodesic_point(gamma, t).m)
        assert off <= 1e-9 * norm
    d = metric_d(geodesic_point(gamma, -1.0), geodesic_point(gamma, 1.5))
    assert abs(d - 2.5) < 1e-9


def test_boundary_class_of_medial_directions_is_a_flag():
    f = unit_triangle_flat()
    gamma = flat_geodesic(f, f.point_at(0.0, 0.0), np.zeros(3), (1.0, -1.0, 0.0))
    fwd = boundary_ray_class(gamma, 1)
    bwd = boundary_ray_class(gamma, -1)
    assert isinstance(fwd, Flag) and isinstance(bwd, Flag)


def test_boundary_class_of_singular_directions_splits_point_line():
    # shrinking two axes together leaves a single fat axis: a point class;
    # the reverse end fattens two axes and leaves a line class
    f = unit_triangle_flat()
    gamma = flat_geodesic(f, f.point_at(0.0, 0.0), np.zeros(3), (1.0, 1.0, -2.0))
    assert isinstance(boundary_ray_class(gamma, 1), ProjPoint)
    assert isinstance(boundary_ray_class(gamma, -1), ProjLine)


def test_boundary_class_generic_direction():
    gamma = XGeodesic(XPoint(np.eye(3)), np.diag([2.0, 1.0, -3.0]))
    assert boundary_ray_class(gamma, 1) is None


@pytest.mark.parametrize("end", [0, 2, -0.5])
def test_a_geodesic_end_is_plus_or_minus_one(end):
    gamma = XGeodesic(XPoint(np.eye(3)), np.diag([1.0, -1.0, 0.0]))
    with pytest.raises(SymmSpaceError) as refused:
        boundary_ray_class(gamma, end)
    assert str(refused.value) == "direction must be +1 or -1"


def test_medial_limits_of_a_box_flat_are_the_marked_flags():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    from pappus.fareypattern import geodesic_of_box
    g = geodesic_of_box(m)
    fwd = boundary_ray_class(g.geodesic, 1)
    bwd = boundary_ray_class(g.geodesic, -1)
    bot, top = bottom_flag(m), top_flag(m)
    assert fwd.point.same(bot.point, 1e-8) and fwd.line.same(bot.line, 1e-8)
    assert bwd.point.same(top.point, 1e-8) and bwd.line.same(top.line, 1e-8)


def test_same_flat_is_vertex_order_insensitive():
    a = ProjPoint((1.0, 0.0, 0.0))
    b = ProjPoint((0.0, 1.0, 0.0))
    c = ProjPoint((0.0, 0.0, 1.0))
    f1 = flat_from_triangle(a, b, c)
    f2 = flat_from_triangle(c, a, b)
    assert f1.same_flat(f2)
    shifted = flat_from_triangle(ProjPoint((1.0, 0.1, 0.0)), b, c)
    assert not f1.same_flat(shifted)
