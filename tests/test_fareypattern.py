"""Geodesic patterns over the Farey triangulation.

The load-bearing facts: every pattern geodesic runs inside the flat of
its box through the polarity fixed point, its two ends limit onto the
box flags, and two pattern geodesics approach each other at one end
exactly when their Farey edges share one vertex.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from pappus.fareycomb import default_base_edge, word_apply
from pappus.markedbox import box_polarity, op_i, orbit_enumerate, top_flag, bottom_flag
from pappus.symmspace import (
    FlagClass,
    NumericalFailure,
    boundary_ray_class,
    duality_action,
    geodesic_point,
    group_action,
    metric_d,
)
from pappus.fareypattern import (
    FixedPointOffFlat,
    PatternError,
    _pairwise_min,
    base_box,
    build_pattern,
    flat_of_box,
    geodesic_of_box,
    limit_set_flags,
    min_distance_flats,
    one_end_asymptotic,
    pattern_boxes,
)

X, Y = Fraction(3, 10), Fraction(2, 5)


def flags_same(fa, fb, tol=1e-8):
    return fa.point.same(fb.point, tol) and fa.line.same(fb.line, tol)


def test_base_box_carries_the_requested_invariant():
    from pappus.markedbox import OutOfRange, raw_invariant
    assert raw_invariant(base_box(X, Y)) == (X, Y)
    with pytest.raises(OutOfRange):
        base_box(Fraction(0), Fraction(1, 2))


def test_pattern_counts_and_words():
    for depth in range(4):
        pat = build_pattern(X, Y, depth)
        assert len(pat.geodesics) == 2 ** (depth + 1) - 1
    words = [w for w, _ in pattern_boxes(X, Y, 3)]
    assert len(words) == len(set(words)) == 15
    assert all(set(w) <= {"t", "b"} for w in words)


def test_geodesic_record_structure():
    m = base_box(X, Y)
    g = geodesic_of_box(m)
    assert g.flat.contains(g.fixed_point, 1e-10)
    assert flags_same(g.top, top_flag(m), 0.0)
    assert flags_same(g.bottom, bottom_flag(m), 0.0)


def test_boundary_classes_recover_the_box_flags():
    pat = build_pattern(X, Y, 2)
    for g in pat.geodesics:
        fwd = boundary_ray_class(g.geodesic, 1)
        bwd = boundary_ray_class(g.geodesic, -1)
        assert isinstance(fwd, FlagClass) and isinstance(bwd, FlagClass)
        assert flags_same(fwd.flag, g.bottom)
        assert flags_same(bwd.flag, g.top)


def test_involution_shares_the_flat_with_reversed_geodesic():
    m = base_box(X, Y)
    gm = geodesic_of_box(m)
    gi = geodesic_of_box(op_i(m))
    assert gm.flat.same_flat(gi.flat)
    assert metric_d(gm.fixed_point, gi.fixed_point) < 1e-12
    for t in (-1.0, 0.5):
        diff = geodesic_point(gm.geodesic, t).m - geodesic_point(gi.geodesic, -t).m
        assert np.max(np.abs(diff)) < 1e-12


def test_polarity_carries_the_geodesic_to_its_dual_reversal():
    # the box polarity reverses the medial geodesic in place, which is
    # precisely the parameterization of the involuted box's geodesic
    for x, y in ((X, Y), (Fraction(2, 7), Fraction(3, 5))):
        m = base_box(x, y)
        delta = box_polarity(m)
        gm = geodesic_of_box(m)
        gi = geodesic_of_box(op_i(m))
        for t in (-1.0, -0.3, 0.2, 0.8):
            img = duality_action(delta, geodesic_point(gm.geodesic, t))
            assert np.max(np.abs(img.m - geodesic_point(gi.geodesic, t).m)) < 1e-9


def test_order3_rotation_permutes_the_children_geodesics():
    from pappus.markedbox import order3_transform, op_t, op_b
    m = base_box(X, Y)
    g = order3_transform(m)
    gi = geodesic_of_box(op_i(m))
    gt = geodesic_of_box(op_t(m))
    gb = geodesic_of_box(op_b(m))
    for t in (-0.7, 0.4):
        moved = group_action(g, geodesic_point(gi.geodesic, t))
        assert np.max(np.abs(moved.m - geodesic_point(gt.geodesic, t).m)) < 1e-9
        moved = group_action(g, geodesic_point(gt.geodesic, t))
        assert np.max(np.abs(moved.m - geodesic_point(gb.geodesic, t).m)) < 1e-9


def test_asymptotic_relation_matches_edge_adjacency():
    pat = build_pattern(X, Y, 2)
    geos = pat.geodesics
    for ga, gb in itertools.combinations(geos, 2):
        ea, eb = pat.edge_of(ga.word), pat.edge_of(gb.word)
        shared = len({ea.tail, ea.head} & {eb.tail, eb.head})
        assert one_end_asymptotic(ga, gb) == (shared == 1)


def test_coincident_geodesics_rejected_by_the_dichotomy():
    g = geodesic_of_box(base_box(X, Y))
    with pytest.raises(PatternError):
        one_end_asymptotic(g, g)


def test_sampled_distances_separate_distinct_flats():
    pat = build_pattern(X, Y, 2)
    by_word = pat.by_word()
    fa = by_word[""].flat
    fb = by_word["tt"].flat
    d = min_distance_flats(fa, fb)
    assert d > 0
    assert min_distance_flats(fa, fa) < 1e-9


def test_pairwise_min_rejects_non_positive_generalized_eigenvalues():
    # the log of a negative eigenvalue would be NaN, which is not JSON
    with pytest.raises(NumericalFailure):
        _pairwise_min([np.eye(3)], [np.diag([1.0, 1.0, -1.0])])


def test_one_walk_serves_the_pattern_and_the_limit_fold():
    depth = 4
    rows = pattern_boxes(X, Y, depth)
    orbit = orbit_enumerate(base_box(X, Y), depth)
    assert rows == [(w, m) for w, m in orbit if not w.startswith("i")]
    flags = limit_set_flags(X, Y, depth)
    assert flags
    for lf in flags:
        assert lf.edge == word_apply(lf.word, default_base_edge())


def test_limit_flags_one_per_vertex_in_circular_order():
    for depth in (2, 4):
        flags = limit_set_flags(X, Y, depth)
        assert len(flags) == 2 ** depth + 1
        vertices = [lf.vertex for lf in flags]
        assert len(set(vertices)) == len(vertices)
        keys = [v.circular_key() for v in vertices]
        assert keys == sorted(keys)


def test_symmetric_parameters_flatten_the_limit_set():
    flags = limit_set_flags(Fraction(1, 2), Fraction(1, 2), 3)
    pts = [lf.flag.point.v for lf in flags]

    def det3(a, b, c):
        return (a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))

    for a, b, c in itertools.combinations(pts, 3):
        assert det3(a, b, c) == 0


def test_fixed_point_membership_is_tight_at_depth_three():
    pat = build_pattern(X, Y, 3)
    for g in pat.geodesics:
        c = g.flat.basis.T @ g.fixed_point.m @ g.flat.basis
        off = np.sqrt(2.0 * (c[0, 1] ** 2 + c[0, 2] ** 2 + c[1, 2] ** 2))
        assert off / np.sqrt((c * c).sum()) < 1e-10
