"""Marked boxes: generator relations, invariants, the convex-box polarity.

Boxes compare modulo the flip (reversed sextuple), so the square of the
involution is the identity as a box even though the raw sextuple comes
back reversed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pappus.projective import ProjMap, mat_det
from pappus.markedbox import (
    DegenerateBox,
    OutOfRange,
    apply_word_box,
    bottom_flag,
    box_polarity,
    box_triple_product,
    doppelganger,
    map_box,
    model_box,
    op_b,
    op_i,
    op_t,
    orbit_enumerate,
    order3_transform,
    polarity_box_to_dual,
    polarity_dual_to_box,
    raw_invariant,
    top_flag,
)
from pappus.fareypattern import base_box

unit_interval = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                             max_denominator=24)


@given(unit_interval, unit_interval)
@settings(deadline=None, max_examples=50)
def test_generator_relations_hold_exactly(x, y):
    m = base_box(x, y)
    assert apply_word_box("ii", m).same_box(m)
    assert apply_word_box("tit", m).same_box(op_b(m))
    assert apply_word_box("bib", m).same_box(op_t(m))
    assert apply_word_box("tibi", m).same_box(m)
    assert apply_word_box("biti", m).same_box(m)
    assert apply_word_box("ititit", m).same_box(m)
    assert apply_word_box("ibibib", m).same_box(m)


def test_involution_squared_is_the_flip_of_the_sextuple():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    twice = op_i(op_i(m))
    assert twice.sextuple() == m.flip().sextuple()
    assert twice.same_box(m)


def test_iteration_reuses_the_expected_box_sides():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    t = op_t(m)
    assert (t.s.same(m.s) and t.t.same(m.t) and t.u.same(m.u))
    b = op_b(m)
    assert (b.a.same(m.c) and b.b.same(m.b) and b.c.same(m.a))


@given(unit_interval, unit_interval)
@settings(deadline=None, max_examples=40)
def test_invariant_recursion(x, y):
    m = base_box(x, y)
    assert raw_invariant(m) == (x, y)
    assert raw_invariant(op_t(m)) == (1 - y, x)
    assert raw_invariant(op_b(m)) == (1 - y, x)
    assert raw_invariant(op_i(m)) == (y, 1 - x)


def test_model_box_parameters():
    p, q = Fraction(-2, 5), Fraction(1, 5)
    assert raw_invariant(model_box(p, q)) == ((1 + p) / 2, (1 - q) / 2)


@given(unit_interval, unit_interval)
@settings(deadline=None, max_examples=40)
def test_triple_product_closed_form(x, y):
    m = base_box(x, y)
    chi = box_triple_product(m)
    assert chi == -x * (1 - x) / (y * (1 - y))
    assert box_triple_product(op_i(m)) == 1 / chi


def test_triple_product_inverted_by_every_generator():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    chi = box_triple_product(m)
    assert chi == Fraction(-7, 8)
    for op in (op_t, op_b, op_i):
        assert box_triple_product(op(m)) == 1 / chi


def test_doppelganger_lines_contain_their_defining_points():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    d = doppelganger(m)
    pairs = [
        (d.S, (m.c, m.t)), (d.T, (m.s, m.u)), (d.U, (m.a, m.t)),
        (d.A, (m.s, m.b)), (d.B, (m.a, m.c)), (d.C, (m.u, m.b)),
    ]
    for line, (p1, p2) in pairs:
        assert sum(a * b for a, b in zip(line.v, p1.v)) == 0
        assert sum(a * b for a, b in zip(line.v, p2.v)) == 0


def test_box_flags_are_the_marked_edge_flags():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    tf, bf = top_flag(m), bottom_flag(m)
    assert tf.point.same(m.t) and tf.line.same(m.s.join(m.u))
    assert bf.point.same(m.b) and bf.line.same(m.a.join(m.c))


@given(st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=20),
       st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=20))
@settings(deadline=None, max_examples=40)
def test_box_polarity_determinant_and_pairing(p, q):
    m = model_box(p, q)
    delta = box_polarity(m)
    assert mat_det(delta.q) == (p * p - 1) * (q * q - 1)
    # the polarity trades the box for the dual of its involution image
    assert polarity_box_to_dual(delta, m).same_dual(doppelganger(op_i(m)))
    assert polarity_dual_to_box(delta, doppelganger(m)).same_box(op_i(m))


def test_box_polarity_is_an_involution_on_points():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    delta = box_polarity(m)
    for pt in m.sextuple():
        assert delta.line_to_point(delta.point_to_line(pt)).same(pt)


def _non_convex_box():
    # move the top marked point along its edge but outside the segment
    m = base_box(Fraction(1, 3), Fraction(1, 2))
    from pappus.markedbox import MarkedBox
    from pappus.projective import ProjPoint
    s, t, u, a, b, c = m.sextuple()
    outside = ProjPoint((Fraction(3), Fraction(1), Fraction(0)))
    return MarkedBox(s, outside, u, a, b, c)


def test_box_polarity_needs_a_convex_box():
    with pytest.raises(DegenerateBox):
        box_polarity(_non_convex_box())


def test_convexity_predicate():
    with pytest.raises(OutOfRange):
        model_box(Fraction(3, 2), Fraction(0))


def test_order3_transform_cycles_the_three_children():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    g = order3_transform(m)
    bi, bt, bb = op_i(m), op_t(m), op_b(m)
    assert map_box(g, bi).same_box(bt)
    assert map_box(g, bt).same_box(bb)
    assert map_box(g, bb).same_box(bi)
    ident = ProjMap(((Fraction(1), Fraction(0), Fraction(0)),
                     (Fraction(0), Fraction(1), Fraction(0)),
                     (Fraction(0), Fraction(0), Fraction(1))))
    assert g.compose(g).compose(g).same(ident)


def test_orbit_counts_and_word_layout():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    assert len(orbit_enumerate(m, 0)) == 2
    rows = orbit_enumerate(m, 3)
    assert len(rows) == 30
    words = [w for w, _ in rows]
    assert len(set(words)) == 30
    assert words[0] == "" and words[1] == "i"
    # within each level the plain-rooted words precede the i-rooted ones
    level3 = [w for w in words if (len(w), w.startswith("i")) in ((3, False), (4, True))]
    assert len(level3) == 16
    assert all(not w.startswith("i") for w in level3[:8])
    assert all(w.startswith("i") for w in level3[8:])


def test_orbit_members_share_the_invariant_class_up_to_rotation():
    x, y = Fraction(3, 10), Fraction(2, 5)
    rotations = {(x, y), (1 - y, x), (1 - x, 1 - y), (y, 1 - x)}
    for _, box in orbit_enumerate(base_box(x, y), 3):
        assert raw_invariant(box) in rotations
