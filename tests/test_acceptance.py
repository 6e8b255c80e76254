"""Acceptance gate: the eleven criteria the package must meet.

Each test is one criterion; the conftest hook prints a PASS/FAIL line
per criterion after the run.  Tolerances are part of the contract and
are pinned here, not imported.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from pappus.projective import Flag, is_elliptic, mat_det, standard_polarity
from pappus.markedbox import (
    apply_word_box,
    base_box,
    box_polarity,
    box_triple_product,
    doppelganger,
    model_box,
    op_b,
    op_i,
    op_t,
    polarity_box_to_dual,
    polarity_dual_to_box,
    raw_invariant,
    triple_invariant,
)
from pappus.fareycomb import limit_set_flags
from pappus.symmspace import (
    XPoint,
    boundary_ray_class,
    duality_action,
    geodesic_between,
    geodesic_point,
    metric_d,
)
from pappus.fareypattern import build_pattern, min_distance_flats, one_end_asymptotic
from pappus.prisms import (
    bending_report,
    prism_inflection_data,
    prism_of_triangle,
    translation_T,
)
from pappus.cli import _fold_limit_flags, _limitset_svg, _orbit_rows

X, Y = Fraction(3, 10), Fraction(2, 5)

# regression pin: sampled minimum over all distinct depth-4 flat pairs,
# measured once from this implementation and frozen
MIN_FLAT_SEPARATION = 0.0445379246132254


def _random_param(rng):
    den = rng.randint(3, 40)
    return Fraction(rng.randint(1, den - 1), den)


def _flags_same(fa, fb, tol=1e-8):
    return fa.point.same(fb.point, tol) and fa.line.same(fb.line, tol)


def test_criterion_01_group_relations_exact():
    """All defining relations hold exactly for 100 random rational boxes."""
    rng = random.Random(11)
    start = time.perf_counter()
    for _ in range(100):
        m = base_box(_random_param(rng), _random_param(rng))
        assert apply_word_box("ii", m).same_box(m)
        assert apply_word_box("tit", m).same_box(op_b(m))
        assert apply_word_box("bib", m).same_box(op_t(m))
        assert apply_word_box("tibi", m).same_box(m)
        assert apply_word_box("biti", m).same_box(m)
        assert apply_word_box("ititit", m).same_box(m)
        assert apply_word_box("ibibib", m).same_box(m)
    assert time.perf_counter() - start < 5.0


def test_criterion_02_invariant_recursion_exact():
    """The coordinate pair transforms exactly under each generator."""
    rng = random.Random(12)
    for _ in range(25):
        x, y = _random_param(rng), _random_param(rng)
        m = base_box(x, y)
        assert raw_invariant(op_t(m)) == (1 - y, x)
        assert raw_invariant(op_b(m)) == (1 - y, x)
        assert raw_invariant(op_i(m)) == (y, 1 - x)


def test_criterion_03_duality_incidences_and_determinant():
    """Box polarity: incidences, involution, definiteness, determinant."""
    rng = random.Random(13)
    for _ in range(50):
        p = Fraction(rng.randint(-19, 19), 20)
        q = Fraction(rng.randint(-19, 19), 20)
        m = model_box(p, q)
        delta = box_polarity(m)

        # twelve point-line incidences, exactly
        d = doppelganger(m)
        for line, (e1, e2) in (
            (d.S, (m.c, m.t)), (d.T, (m.s, m.u)), (d.U, (m.a, m.t)),
            (d.A, (m.s, m.b)), (d.B, (m.a, m.c)), (d.C, (m.u, m.b)),
        ):
            for pt in (e1, e2):
                assert sum(a * b for a, b in zip(line.v, pt.v)) == 0

        # the polarity exchanges the box with the involuted dual pair
        assert polarity_box_to_dual(delta, m).same_dual(doppelganger(op_i(m)))
        assert polarity_dual_to_box(delta, doppelganger(m)).same_box(op_i(m))

        # applying twice is the identity up to scale
        for pt in (m.s, m.t, m.u, m.a, m.b, m.c):
            assert delta.line_to_point(delta.point_to_line(pt)).same(pt)

        assert is_elliptic(delta)
        assert mat_det(delta.q) == (p * p - 1) * (q * q - 1)


def test_criterion_04_triple_product_closed_form():
    """Flag-triple product equals the rational closed form; inversion under i."""
    rng = random.Random(14)
    for _ in range(25):
        x, y = _random_param(rng), _random_param(rng)
        m = base_box(x, y)
        chi = box_triple_product(m)
        assert chi == -x * (1 - x) / (y * (1 - y))
        assert box_triple_product(op_i(m)) == 1 / chi


def test_criterion_05_metric_invariance_and_unit_speed():
    """Distance is invariant under the group and the duality; geodesics run
    at unit speed."""
    rng = np.random.default_rng(15)

    def random_unimodular():
        # reject nearly singular draws: normalizing those amplifies float
        # noise in the sample itself, not in the geometry under test
        while True:
            g = rng.normal(size=(3, 3))
            d = np.linalg.det(g)
            if abs(d) > 0.1:
                return g / np.cbrt(d)

    delta = standard_polarity(exact=False)
    worst_g = worst_d = worst_s = 0.0
    for _ in range(100):
        g, h, k = random_unimodular(), random_unimodular(), random_unimodular()
        e1 = XPoint(g @ g.T)
        e2 = XPoint(h @ h.T)
        ref = metric_d(e1, e2)

        moved = metric_d(XPoint(k.T @ e1.m @ k), XPoint(k.T @ e2.m @ k))
        worst_g = max(worst_g, abs(moved - ref) / ref)

        dual = metric_d(duality_action(delta, e1), duality_action(delta, e2))
        worst_d = max(worst_d, abs(dual - ref) / ref)

        geo, dist = geodesic_between(e1, e2)
        assert abs(dist - ref) < 1e-9 * (1 + ref)
        for s in (0.25 * ref, 0.75 * ref):
            worst_s = max(worst_s, abs(metric_d(e1, geodesic_point(geo, s)) - s))
    assert worst_g < 1e-9
    assert worst_d < 1e-9
    assert worst_s < 1e-8


def test_criterion_06_pattern_membership_boundaries_adjacency():
    """Depth-4 pattern at (3/10, 2/5): geodesics live in their flats, their
    ends are the box flags, and asymptoticity matches edge adjacency."""
    start = time.perf_counter()
    pat = build_pattern(X, Y, 4)
    assert len(pat.geodesics) == 31
    for g in pat.geodesics:
        for t in (-1.5, 0.0, 2.0):
            e = geodesic_point(g.geodesic, t)
            c = g.flat.basis.T @ e.m @ g.flat.basis
            off = math.sqrt(2.0 * (c[0, 1] ** 2 + c[0, 2] ** 2 + c[1, 2] ** 2))
            assert off / math.sqrt(float((c * c).sum())) < 1e-10
        fwd = boundary_ray_class(g.geodesic, 1)
        bwd = boundary_ray_class(g.geodesic, -1)
        assert isinstance(fwd, Flag) and isinstance(bwd, Flag)
        assert _flags_same(fwd, g.bottom) and _flags_same(bwd, g.top)
    for ga, gb in itertools.combinations(pat.geodesics, 2):
        ea, eb = pat.edge_of(ga.word), pat.edge_of(gb.word)
        shared = len({ea.tail, ea.head} & {eb.tail, eb.head})
        assert one_end_asymptotic(ga, gb) == (shared == 1)
    assert time.perf_counter() - start < 30.0


def test_criterion_07_distinct_flats_stay_separated():
    """Sampled distances between distinct depth-4 flats are strictly
    positive; the global minimum is pinned as a regression value."""
    pat = build_pattern(X, Y, 4)
    flats = [(g.word, g.flat) for g in pat.geodesics]
    best = None
    for (wa, fa), (wb, fb) in itertools.combinations(flats, 2):
        if fa.same_flat(fb):
            continue
        d = min_distance_flats(fa, fb)
        assert d > 0.0
        if best is None or d < best:
            best = d
    assert best == pytest.approx(MIN_FLAT_SEPARATION, rel=1e-9)


def test_criterion_08_collinearity_and_translation_spectrum():
    """Inflection points line up with the medial points; the square-frame
    translation has the closed-form spectrum."""
    rng = random.Random(18)
    done = 0
    while done < 20:
        x, y = _random_param(rng), _random_param(rng)
        if abs(float(x - y)) < 0.05 or abs(float(x + y - 1)) < 0.05:
            continue
        done += 1
        prism = prism_of_triangle(base_box(x, y))
        for item in prism_inflection_data(prism):
            assert item.collinearity_residual < 1e-9
        a = np.array([[float(v) for v in r] for r in translation_T(x, y).m])
        lam = np.sort(np.linalg.eigvals(a).real)
        want = np.sort(np.array([1.0, -1.0, float((-1 + x + y) / (x - y))]))
        assert np.max(np.abs(lam - want)) < 1e-10


def test_criterion_09_axial_and_central_degenerations():
    """On the axis y = 1/2 the inflection point is the medial point; at the
    center the invariant vanishes and the limit flags are exactly collinear."""
    for x in (Fraction(3, 10), Fraction(1, 5), Fraction(2, 7)):
        prism = prism_of_triangle(base_box(x, Fraction(1, 2)))
        for item in prism_inflection_data(prism):
            assert metric_d(item.point, item.medial_point) < 1e-8
    assert triple_invariant(Fraction(1, 2), Fraction(1, 2)) == 0.0

    pts = [lf.flag.point.v for lf in limit_set_flags(Fraction(1, 2), Fraction(1, 2), 3)]

    def det3(a, b, c):
        return (a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))

    for a, b, c in itertools.combinations(pts, 3):
        assert det3(a, b, c) == 0


def test_criterion_10_character_determines_bending_data():
    """Parameter pairs with equal invariant produce equal inflection-distance
    multisets."""
    pairs = (((X, Y), (1 - Y, X)),
             ((Fraction(2, 7), Fraction(3, 5)), (Fraction(2, 5), Fraction(2, 7))))
    for (xa, ya), (xb, yb) in pairs:
        ta, tb = triple_invariant(xa, ya), triple_invariant(xb, yb)
        assert abs(ta - tb) <= 1e-9 * (1 + abs(ta))
        rep_a = bending_report(xa, ya, 2)
        rep_b = bending_report(xb, yb, 2)
        da = sorted(abs(d) for p in rep_a.prisms for d in p.distances)
        db = sorted(abs(d) for p in rep_b.prisms for d in p.distances)
        assert max(abs(u - v) for u, v in zip(da, db)) < 1e-8


def test_criterion_11_depth_ten_enumeration_within_budget():
    """Depth-10 orbit plus limit-set SVG: under 10 s single-threaded and
    under 3 s with 8 workers, byte-identical output."""
    m = base_box(X, Y)

    start = time.perf_counter()
    rows = _orbit_rows(m, 10, 1)
    svg_serial = _limitset_svg(_fold_limit_flags(rows), 4.0)
    serial_time = time.perf_counter() - start
    assert len(rows) == 4094
    assert serial_time < 10.0

    start = time.perf_counter()
    rows8 = _orbit_rows(m, 10, 8)
    svg_par = _limitset_svg(_fold_limit_flags(rows8), 4.0)
    parallel_time = time.perf_counter() - start
    assert parallel_time < 3.0
    assert svg_par == svg_serial
