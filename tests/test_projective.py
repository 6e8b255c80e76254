"""Incidence plane basics: exact canonical coordinates, join/meet, maps."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from pappus.projective import (
    CoincidentLines,
    CoincidentPoints,
    DegenerateQuadruple,
    Flag,
    HomVec,
    NotCollinear,
    Polarity,
    ProjLine,
    ProjMap,
    ProjPoint,
    ProjectiveError,
    SingularMap,
    cross_ratio,
    incident,
    is_elliptic,
    join,
    mat_det,
    mat_vec,
    meet,
    standard_polarity,
    triple_product,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def frac_point(a, b, c):
    return ProjPoint((Fraction(a), Fraction(b), Fraction(c)))


def test_exact_canonical_form_scales_first_nonzero_to_one():
    p = HomVec((Fraction(0), Fraction(3), Fraction(-6)))
    assert p.exact
    assert p.v == (0, 1, -2) and all(type(x) is int for x in p.v)
    q = HomVec((Fraction(-3, 4), Fraction(1, 6), 0))
    assert q.v == (9, -2, 0) and math.gcd(*q.v) == 1
    assert p.floats() == (0.0, 1.0, -2.0) and q.floats() == (1.0, -2 / 9, 0.0)
    assert not HomVec((0.0, 3.0, -6.0)).exact



@given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3))
@settings(deadline=None, max_examples=300)
def test_float_canonical_form_has_unit_norm_and_a_positive_first_entry(t):
    assume(any(x != 0 for x in t))
    v = HomVec(t)
    assert not v.exact
    assert abs(math.fsum(x * x for x in v.v) - 1) <= 1e-15
    assert next(x for x in v.v if abs(x) > 1e-14) > 0


# heights well past 53 bits, so floats() must round the integer ratio itself
tall_rationals = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(min_value=-10**30, max_value=10**30, max_denominator=10**25),
)


@given(st.tuples(tall_rationals, tall_rationals, tall_rationals),
       tall_rationals.filter(lambda s: s != 0))
@settings(deadline=None, max_examples=200)
def test_exact_vectors_are_scale_free_primitive_integer_triples(t, scale):
    assume(any(x != 0 for x in t))
    v = HomVec(t)
    assert HomVec(tuple(x * scale for x in t)).v == v.v
    assert v.exact and all(type(x) is int for x in v.v)
    assert math.gcd(*v.v) == 1 and next(x for x in v.v if x != 0) > 0
    first = next(Fraction(x) for x in t if x != 0)
    assert [x.hex() for x in v.floats()] == [float(Fraction(x) / first).hex() for x in t]


@pytest.mark.parametrize("v", [(1, 2), (1.0, 2.0), (1, 2, 3, 4), ()],
                         ids=["exact_pair", "float_pair", "four_entries", "empty"])
def test_a_vector_of_the_wrong_length_is_a_projective_error(v):
    with pytest.raises(ProjectiveError):
        ProjPoint(v)


def test_same_ignores_scale():
    assert frac_point(2, 4, 6).same(frac_point(1, 2, 3))
    assert not frac_point(1, 0, 0).same(frac_point(0, 1, 0))
    q = ProjPoint((0.5, 1.0, 1.5))
    assert q.same(ProjPoint((1.0, 2.0, 3.0)), 1e-12)


@given(st.tuples(rationals, rationals, rationals), st.tuples(rationals, rationals, rationals))
@settings(deadline=None, max_examples=60)
def test_join_is_incident_with_both_points(u, w):
    if all(c == 0 for c in u) or all(c == 0 for c in w):
        return
    p, q = ProjPoint(u), ProjPoint(w)
    if p.same(q):
        return
    l = join(p, q)
    assert incident(p, l) and incident(q, l)


def test_join_of_coincident_points_rejected():
    with pytest.raises(CoincidentPoints):
        join(frac_point(1, 2, 3), frac_point(2, 4, 6))
    with pytest.raises(CoincidentLines):
        meet(ProjLine((Fraction(1), Fraction(0), Fraction(1))),
             ProjLine((Fraction(2), Fraction(0), Fraction(2))))


def test_meet_join_duality():
    l1 = ProjLine((Fraction(1), Fraction(0), Fraction(0)))
    l2 = ProjLine((Fraction(0), Fraction(1), Fraction(0)))
    assert meet(l1, l2).same(frac_point(0, 0, 1))


def test_cross_ratio_pinned_on_affine_line():
    a, b, c = frac_point(0, 0, 1), frac_point(1, 0, 1), frac_point(2, 0, 1)
    d = frac_point(1, 0, 0)
    assert cross_ratio(a, b, c, d) == Fraction(1, 2)
    assert cross_ratio(a, c, b, d) == Fraction(2)


def test_cross_ratio_requires_collinear_points():
    with pytest.raises(NotCollinear):
        cross_ratio(frac_point(0, 0, 1), frac_point(1, 0, 1),
                    frac_point(0, 1, 1), frac_point(1, 1, 1))


def float_point(a, b, c):
    return ProjPoint((float(a), float(b), float(c)))


def test_float_cross_ratio_pinned_on_affine_line():
    a, b, c = float_point(0, 0, 1), float_point(1, 0, 1), float_point(2, 0, 1)
    d = float_point(1, 0, 0)
    assert abs(cross_ratio(a, b, c, d) - 0.5) <= 1e-15
    assert abs(cross_ratio(a, c, b, d) - 2.0) <= 1e-15


def test_float_cross_ratio_rejects_off_line_and_coincident_points():
    a, b, d = float_point(0, 0, 1), float_point(1, 0, 1), float_point(1, 0, 0)
    with pytest.raises(NotCollinear):
        cross_ratio(a, b, float_point(0, 1, 1), d)
    # a point is on the line to 10 * DEFAULT_TOL
    with pytest.raises(NotCollinear):
        cross_ratio(a, b, float_point(2, 1e-6, 1), d)
    assert abs(cross_ratio(a, b, float_point(2, 1e-12, 1), d) - 0.5) <= 1e-11
    p = float_point(1, 2, 3)
    with pytest.raises(DegenerateQuadruple):
        cross_ratio(p, p, p, p)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
@settings(deadline=None, max_examples=40)
def test_cross_ratio_is_a_projective_invariant(a, b, c, d, e, f, g, h, i):
    m = ((Fraction(a), Fraction(b), Fraction(c)),
         (Fraction(d), Fraction(e), Fraction(f)),
         (Fraction(g), Fraction(h), Fraction(i)))
    if mat_det(m) == 0:
        return
    pts = [frac_point(0, 0, 1), frac_point(1, 0, 1), frac_point(3, 0, 1), frac_point(1, 0, 0)]
    before = cross_ratio(*pts)
    imgs = [ProjPoint(mat_vec(m, p.v)) for p in pts]
    assert cross_ratio(*imgs) == before


def _sample_flags():
    p1 = frac_point(1, 0, 0)
    p2 = frac_point(0, 1, 0)
    p3 = frac_point(0, 0, 1)
    l1 = join(p1, frac_point(1, 1, 1))
    l2 = join(p2, frac_point(2, 1, 1))
    l3 = join(p3, frac_point(1, 2, 1))
    return Flag(p1, l1), Flag(p2, l2), Flag(p3, l3)


def test_triple_product_permutation_behavior():
    f1, f2, f3 = _sample_flags()
    val = triple_product((f1, f2, f3))
    assert triple_product((f2, f3, f1)) == val
    assert triple_product((f3, f1, f2)) == val
    assert triple_product((f2, f1, f3)) == 1 / val


def test_triple_product_projective_invariance():
    f1, f2, f3 = _sample_flags()
    val = triple_product((f1, f2, f3))
    g = ((2, 1, 0), (0, 1, 1), (1, 0, 3))
    # a flag's line moves as the join of two moved points on it
    moved = []
    for f, other in ((f1, frac_point(1, 1, 1)), (f2, frac_point(2, 1, 1)), (f3, frac_point(1, 2, 1))):
        p = ProjPoint(mat_vec(g, f.point.v))
        moved.append(Flag(p, join(p, ProjPoint(mat_vec(g, other.v)))))
    assert triple_product(moved) == val


def test_standard_polarity_is_an_involution():
    delta = standard_polarity()
    p = frac_point(2, -3, 5)
    assert delta.line_to_point(delta.point_to_line(p)).same(p)


def test_polarity_flag_image_is_a_flag():
    delta = standard_polarity()
    f = _sample_flags()[0]
    # the line goes to a point and the point to a line, still incident
    assert incident(delta.line_to_point(f.line), delta.point_to_line(f.point))


def test_ellipticity_detects_definiteness():
    assert is_elliptic(standard_polarity())
    indef = Polarity(((Fraction(1), Fraction(0), Fraction(0)),
                      (Fraction(0), Fraction(1), Fraction(0)),
                      (Fraction(0), Fraction(0), Fraction(-1))))
    assert not is_elliptic(indef)
    # a float form is definite at any scale: the test reads signs, not
    # eigenvalues against an absolute threshold
    eps = 1e-12
    diag = lambda a, b, c: Polarity(((a, 0.0, 0.0), (0.0, b, 0.0), (0.0, 0.0, c)))
    assert is_elliptic(diag(eps, eps, eps))
    assert is_elliptic(diag(-eps, -eps, -eps))
    assert not is_elliptic(diag(eps, eps, -eps))


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, min_size=6, max_size=6),
       st.integers(-9, 9).filter(bool), st.integers(-30, 30).filter(bool))
def test_every_spelling_of_an_exact_polarity_holds_one_matrix_and_scale(entries, k, num):
    a, b, c, e, f, i = entries
    q = ((a, b, c), (b, e, f), (c, f, i))
    assume(mat_det(q) != 0)
    lcm = math.lcm(*(x.denominator for x in entries))
    ints = tuple(tuple(int(x * lcm) for x in row) for row in q)
    held = [Polarity(q), Polarity(ints, 1, lcm),
            Polarity(tuple(tuple(k * x for x in row) for row in ints), num, k * num * lcm)]
    assert held[0].q == q
    for delta in held:
        assert delta.exact and all(type(x) is int for row in delta.m for x in row)
        assert (delta.m, delta.scale, delta.q) == (held[0].m, held[0].scale, held[0].q)


def test_a_polarity_refuses_a_scale_it_cannot_hold():
    q = ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0))
    for num, den in ((2, 1), (1, 3), (2, 3)):
        with pytest.raises(ProjectiveError, match="^a float polarity takes no scale$"):
            Polarity(q, num, den)
    assert not Polarity(q, 1, 1).exact
    for num, den in ((0, 5), (5, 0)):
        with pytest.raises(SingularMap):
            Polarity(((1, 0, 0), (0, 2, 0), (0, 0, 3)), num, den)


def test_mat_det_exact():
    m = ((Fraction(2), Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(3), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(5)))
    assert mat_det(m) == 30


def test_maps_and_polarities_fix_their_backend_at_construction():
    g = ((1, 2, 0), (0, 1, 1), (1, 0, 1))
    mixed = ((1, 2, 0), (0, 1.0, 1), (1, 0, 1))
    p, pf = frac_point(3, -1, 2), ProjPoint((3.0, -1.0, 2.0))
    line = join(p, frac_point(1, 1, 1))
    # an image is exact when both the matrix and the vector are
    assert HomVec(mat_vec(g, p.v)).exact
    assert not (HomVec(mat_vec(g, pf.v)).exact or HomVec(mat_vec(mixed, p.v)).exact)
    exact, floating = standard_polarity(), standard_polarity(exact=False)
    assert exact.exact and not floating.exact
    assert exact.line_to_point(line).exact and exact.point_to_line(p).exact
    assert not (floating.line_to_point(line).exact or exact.point_to_line(pf).exact)
    # the stored flag takes no part in equality
    assert exact == floating
    with pytest.raises(SingularMap):
        ProjMap(((1, 0, 0), (2, 0, 0), (0, 0, 1)))
