"""Marked boxes: generator relations, invariants, the convex-box polarity.

Boxes compare modulo the flip (reversed sextuple), so the square of the
involution is the identity as a box even though the raw sextuple comes
back reversed.
"""

import math
import os
import pickle
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from pappus.projective import (
    ProjectiveError,
    ProjLine,
    ProjPoint,
    cross3,
    dot3,
    join,
    mat_adjugate,
    mat_det,
    mat_mul,
    mat_scale,
    mat_transpose,
    mat_vec,
    meet,
)
from pappus import markedbox
from pappus.fareycomb import OrientedEdge, Rational
from pappus.markedbox import (
    DegenerateBox,
    DualMarkedBox,
    MarkedBox,
    OutOfRange,
    _tb_children,
    apply_word_box,
    base_box,
    bottom_flag,
    box_polarity,
    box_triple_product,
    doppelganger,
    invariant_rotations,
    model_box,
    op_b,
    op_i,
    op_t,
    orbit_enumerate,
    pattern_boxes,
    polarity_box_to_dual,
    polarity_dual_to_box,
    raw_invariant,
    split_level,
    tb_tree,
    top_flag,
    word_rotation,
)
from pappus.prisms import order3_transform, prism_of_triangle
from sweep import sweep_pairs

unit_interval = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                             max_denominator=24)
itb_words = st.text(alphabet="itb", max_size=5)


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
    assert twice.sextuple() == (m.u, m.t, m.s, m.c, m.b, m.a)
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


def test_float_invariant_recursion():
    x, y = 0.3, 0.4
    m = base_box(x, y)
    rotations = invariant_rotations(x, y)
    for w, box in (("", m), ("t", op_t(m)), ("b", op_b(m)), ("i", op_i(m))):
        u, v = raw_invariant(box)
        ru, rv = rotations[word_rotation(w)]
        assert abs(u - ru) <= 1e-12 and abs(v - rv) <= 1e-12, w


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
    assert tf.point.same(m.t) and tf.line.same(join(m.s, m.u))
    assert bf.point.same(m.b) and bf.line.same(join(m.a, m.c))


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


def _normalization(src, dst):
    """Classical column scaling, written apart from the library's frame
    map: with A = [p1 p2 p3] and A w = p4, read first-nonzero-is-one, the
    map A diag(w) sends the standard frame onto a quadruple; the answer
    is the target's map after the inverse of the source's."""
    def inverse(a):
        return mat_scale(mat_adjugate(a), Fraction(1) / mat_det(a))

    def simplex_map(quad):
        a = mat_transpose(tuple(p.v for p in quad[:3]))
        v4 = quad[3].v
        first = v4[0] or v4[1] or v4[2]
        w = [x / first for x in mat_vec(inverse(a), v4)]
        return tuple(tuple(e * wk for e, wk in zip(row, w)) for row in a)
    return mat_mul(simplex_map(dst), inverse(simplex_map(src)))


def _reference_polarity(m):
    """N' m N: the model form pulled back along the map N taking the box's
    corners onto the model box with the same invariant."""
    x, y = raw_invariant(m)
    p, q = 2 * x - 1, 1 - 2 * y
    model = model_box(p, q)
    n = _normalization((m.s, m.u, m.a, m.c), (model.s, model.u, model.a, model.c))
    form = ((1, -p, -q), (-p, 1, p * q), (-q, p * q, 1))
    return mat_mul(mat_transpose(n), mat_mul(form, n))


@given(unit_interval, unit_interval, itb_words)
@settings(deadline=None, max_examples=60)
def test_box_polarity_is_the_model_form_pulled_back(x, y, word):
    m = apply_word_box(word, base_box(x, y))
    assert box_polarity(m).q == _reference_polarity(m)


def test_box_polarity_is_an_involution_on_points():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    delta = box_polarity(m)
    for pt in m.sextuple():
        assert delta.line_to_point(delta.point_to_line(pt)).same(pt)


def _non_convex_box():
    # move the top marked point along its edge but outside the segment
    m = base_box(Fraction(1, 3), Fraction(1, 2))
    s, t, u, a, b, c = m.sextuple()
    outside = ProjPoint((Fraction(3), Fraction(1), Fraction(0)))
    return MarkedBox(s, outside, u, a, b, c)


def _frame_formula_polarity(m):
    """rho' K(p, q) rho in Fractions, the closed form box_polarity evaluates on ints: rows
    rho_k = f r_k / d_k with r = (u x a, a x s, s x u), d_k = r_k.c and f the first nonzero
    entry of c, the model parameters p and q read off t and b in that frame, and K the model
    form in the model corners' frame."""
    s, u, a, c, t, b = (x.v for x in (m.s, m.u, m.a, m.c, m.t, m.b))
    f = Fraction(c[0] or c[1] or c[2])
    rho = tuple(tuple(f * e / dot3(r, c) for e in r) for r in (cross3(u, a), cross3(a, s), cross3(s, u)))
    x, y, x2, z = dot3(rho[0], t), dot3(rho[1], t), dot3(rho[0], b), dot3(rho[2], b)
    p, q = (x + y) / (y - x), (z - 2 * x2) / z
    k = ((2 * (1 + p), 0, -(1 - q) * (1 + p)),
         (0, 2 * (1 - p), -(1 - q) * (1 - p)),
         (-(1 - q) * (1 + p), -(1 - q) * (1 - p), 2 * (1 - q)))
    return mat_mul(mat_transpose(rho), mat_mul(k, rho))


def test_box_polarity_on_ints_is_the_rational_frame_formula():
    # the int matrix and its one rational scale give, entry for entry, the
    # rational matrix of the Fraction formula, on every box to depth 6
    pairs = [(Fraction(3, 10), Fraction(2, 5)), (Fraction(17, 41), Fraction(5, 37))] + sweep_pairs()
    for x, y in pairs:
        for _, m in pattern_boxes(x, y, 6):
            delta = box_polarity(m)
            assert delta.exact and all(type(e) is int for row in delta.m for e in row)
            assert math.gcd(*(e for row in delta.m for e in row)) == 1
            assert next(e for row in delta.m for e in row if e) > 0
            assert delta.q == _frame_formula_polarity(m)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_box_polarity_refuses_a_degenerate_box_with_its_text(exact):
    m = model_box(Fraction(1, 3), Fraction(1, 2))
    meet_point = ProjPoint((1, 0, 0))
    for box in (_non_convex_box(), MarkedBox(m.s, meet_point, m.u, m.a, m.b, m.c),
                MarkedBox(m.s, m.t, meet_point, m.a, m.b, m.c),
                MarkedBox(m.s, m.t, m.u, meet_point, m.b, m.c)):
        if not exact:
            box = MarkedBox(*(ProjPoint(p.floats()) for p in box.sextuple()))
            assert not box.s.exact
        with pytest.raises(DegenerateBox, match="^box polarity needs a convex box$"):
            box_polarity(box)


def test_convexity_predicate():
    with pytest.raises(OutOfRange):
        model_box(Fraction(3, 2), Fraction(0))


def _mapped(g, box):
    return MarkedBox(*(ProjPoint(mat_vec(g, p.v)) for p in box.sextuple()))


@given(unit_interval, unit_interval, itb_words)
@settings(deadline=None, max_examples=40)
def test_order3_transform_cycles_the_three_children(x, y, word):
    # x(1-x) = y(1-y) is the unity triple product locus, where no prism exists
    assume(x != y and x + y != 1)
    m = apply_word_box(word, base_box(x, y))
    g = order3_transform(prism_of_triangle(m))
    bi, bt, bb = op_i(m), op_t(m), op_b(m)
    assert _mapped(g.m, bi).same_box(bt)
    assert _mapped(g.m, bt).same_box(bb)
    assert _mapped(g.m, bb).same_box(bi)
    g3 = mat_mul(g.m, mat_mul(g.m, g.m))
    assert all(g3[i][j] == (g3[0][0] if i == j else 0) for i in range(3) for j in range(3))
    # the exact scale is the classical one, fixed by the corners c
    assert g.m == _normalization((bt.s, bt.u, bt.a, bt.c), (bb.s, bb.u, bb.a, bb.c))


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


def test_both_walks_reject_a_negative_depth():
    with pytest.raises(OutOfRange):
        orbit_enumerate(base_box(Fraction(3, 10), Fraction(2, 5)), -1)
    with pytest.raises(OutOfRange):
        pattern_boxes(Fraction(3, 10), Fraction(2, 5), -1)
    # the check lives in the walk both of them call
    with pytest.raises(OutOfRange):
        tb_tree([("", base_box(Fraction(3, 10), Fraction(2, 5)))], -1)


def test_pooled_walk_is_the_serial_walk():
    # three workers split a 32-row level into chunks of 11, 11 and 10 rows
    assert split_level(1, 7, 3) == 5 and split_level(2, 6, 3) == 4
    assert split_level(2, 4, 3) is None and split_level(1, 5, 3) is None
    walks = [
        lambda workers: pattern_boxes(0.3, 0.4, 7, workers),
        lambda workers: orbit_enumerate(base_box(0.3, 0.4), 6, workers),
    ]
    for walk in walks:
        serial, pooled = walk(1), walk(3)
        assert [w for w, _ in pooled] == [w for w, _ in serial]
        assert [[p.v for p in m.sextuple()] for _, m in pooled] == \
            [[p.v for p in m.sextuple()] for _, m in serial]


@pytest.fixture
def no_child_left():
    """Fails a test that hangs past 20 s or leaves a child process, running
    or not, behind."""
    def hang(signum, frame):
        raise TimeoutError("the walk hung")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_children_only(monkeypatch, name, act):
    """Replace markedbox's ``name`` by a function that runs ``act(*args)``
    in a forked child and the real function in this process."""
    real, parent = getattr(markedbox, name), os.getpid()

    def patched(*args):
        return real(*args) if os.getpid() == parent else act(*args)

    monkeypatch.setattr(markedbox, name, patched)


def test_a_split_walk_leaves_no_child(no_child_left):
    assert len(orbit_enumerate(base_box(Fraction(3, 10), Fraction(2, 5)), 6, 3)) == 254


def test_a_failing_first_chunk_kills_and_reaps_the_children(monkeypatch, no_child_left):
    # tbtbtbt, the first parent at (3/41, 6/41) whose children fail, is in
    # the first chunk, which this process expands; it waits for no child
    in_children_only(monkeypatch, "_hexagons_below", lambda depth, rows: time.sleep(60))
    start = time.monotonic()
    with pytest.raises(DegenerateBox, match="^top and bottom edges lie on one line$"):
        orbit_enumerate(base_box(3 / 41, 6 / 41), 8, 2)
    assert time.monotonic() - start < 10


def test_a_childs_error_is_raised_here_first_chunk_first(monkeypatch, no_child_left):
    def fail(depth, rows):
        # the first child's chunk fails last
        time.sleep(0.3 if rows[0][0] == "tbtbb" else 0)
        raise DegenerateBox(f"failed below {rows[0][0]}")

    in_children_only(monkeypatch, "_hexagons_below", fail)
    # three workers cut the 32-row level 5 into chunks from ttttt, tbtbb and btbbt
    with pytest.raises(DegenerateBox, match="^failed below tbtbb$"):
        pattern_boxes(0.3, 0.4, 7, 3)


def test_a_killed_child_is_an_error_not_a_hang(monkeypatch, no_child_left):
    in_children_only(monkeypatch, "_hexagons_below", lambda depth, rows: os.kill(os.getpid(), signal.SIGKILL))
    # a process killed by a signal has that signal's number as its wait status
    with pytest.raises(ChildProcessError) as dead:
        pattern_boxes(0.3, 0.4, 7, 2)
    assert str(dead.value).endswith(f"for chunk 1 ended without a result (wait status {signal.SIGKILL})")


def test_a_failed_fork_closes_its_pipe_and_reaps_the_children(monkeypatch, no_child_left):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd to list open descriptors")
    real, calls = os.fork, []

    def second_fails():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError("no process id free")
        return real()

    before = sorted(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", second_fails)
    # three workers fork two children; the first is killed and reaped
    with pytest.raises(BlockingIOError, match="^no process id free$"):
        orbit_enumerate(base_box(Fraction(3, 10), Fraction(2, 5)), 6, 3)
    assert len(calls) == 2
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_an_interrupted_split_walk_kills_and_reaps_the_children(monkeypatch, no_child_left):
    real, calls, parent = markedbox._levels, [], os.getpid()

    def interrupted(depth, rows):
        # the first call walks down to the split, the second expands the first chunk
        if os.getpid() == parent:
            calls.append(depth)
            if len(calls) == 2:
                raise KeyboardInterrupt
        return real(depth, rows)

    monkeypatch.setattr(markedbox, "_levels", interrupted)
    in_children_only(monkeypatch, "_hexagons_below", lambda depth, rows: time.sleep(60))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        pattern_boxes(0.3, 0.4, 7, 2)
    assert calls == [4, 3] and time.monotonic() - start < 10


def test_per_row_values_are_slotted_and_survive_the_pool():
    # the walk builds these by the thousand, and the pool pickles its rows
    exact, floating = (orbit_enumerate(base_box(x, y), 2)[-1] for x, y in (
        (Fraction(3, 10), Fraction(2, 5)), (0.3, 0.4)))
    box = exact[1]
    for value in (box.s, join(box.s, box.u), box, Rational(1, 2), OrientedEdge((1, 0), (0, 1))):
        assert not hasattr(value, "__dict__"), type(value).__name__
    for word, m in (exact, floating):
        word2, m2 = pickle.loads(pickle.dumps((word, m)))
        assert word2 == word and m2.same_box(m)
        assert [(p.v, p.exact) for p in m2.sextuple()] == [(p.v, p.exact) for p in m.sextuple()]


def test_float_boxes_track_the_exact_ones_level_by_level():
    # 3/8 and 9/16 are floats exactly, so both walks start from one box; the
    # float walk used to stop at depth 12 on an absolute collinearity test
    depth = 12
    exact = orbit_enumerate(base_box(Fraction(3, 8), Fraction(9, 16)), depth)
    floating = orbit_enumerate(base_box(0.375, 0.5625), depth)
    assert len(exact) == len(floating) == 2 ** (depth + 2) - 2
    worst = [0.0] * (depth + 1)
    for (w, me), (v, mf) in zip(exact, floating):
        assert w == v
        level = len(w) - w.startswith("i")
        for pe, pf in zip(me.sextuple(), mf.sextuple()):
            e = pe.floats()
            sine = max(abs(x) for x in cross3(e, pf.v)) / math.sqrt(dot3(e, e))
            worst[level] = max(worst[level], sine)
    # the float error grows with the conditioning, under 3x per level
    assert all(worst[k] <= 1e-15 * 3 ** k for k in range(depth + 1)), worst


def test_orbit_members_share_the_invariant_class_up_to_rotation():
    # the rotation is the word's: t and b turn the pair by R(x, y) = (1 - y, x)
    # and i by R^-1, with no flip term, on every row and both roots
    assert [word_rotation(w) for w in ("", "t", "b", "i", "it", "ibtb", "ttt")] == [0, 1, 1, 3, 0, 2, 3]
    for x, y in sweep_pairs():
        rotations = invariant_rotations(x, y)
        rows = orbit_enumerate(base_box(x, y), 8)
        assert len(rows) == 2 ** 10 - 2
        assert all(raw_invariant(m) == rotations[word_rotation(w)] for w, m in rows), (x, y)


def _points(m):
    return [(p.v, p.exact) for p in m.sextuple()]


def _reference_children(m):
    """t(M) and b(M) from the hexagon points built by ``join`` and ``meet``,
    through ``MarkedBox``, which runs every check on each child."""
    a2 = meet(join(m.t, m.a), join(m.u, m.b))
    b2 = meet(join(m.s, m.a), join(m.u, m.c))
    c2 = meet(join(m.t, m.c), join(m.s, m.b))
    return MarkedBox(m.s, m.t, m.u, a2, b2, c2), MarkedBox(a2, b2, c2, m.c, m.b, m.a)


def test_walk_kernel_builds_what_op_t_and_op_b_build():
    # op_t, op_b and the walk's _tb_children run only the checks a child
    # adds to its parent's; the reference runs them all
    for x, y in sweep_pairs():
        for root in (base_box(x, y), base_box(float(x), float(y))):
            for _, m in orbit_enumerate(root, 5):
                expected = [_points(c) for c in _reference_children(m)]
                assert [_points(c) for c in _tb_children(m)] == expected
                assert [_points(op_t(m)), _points(op_b(m))] == expected


def test_boxes_joins_and_meets_take_one_backend():
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    t = ProjPoint(m.t.floats())
    with pytest.raises(DegenerateBox, match="one backend"):
        MarkedBox(m.s, t, m.u, m.a, m.b, m.c)
    d = doppelganger(m)
    with pytest.raises(DegenerateBox, match="one backend"):
        DualMarkedBox(d.S, d.T, d.U, d.A, ProjLine(d.B.floats()), d.C)
    for p, q in ((m.s, t), (t, m.s)):
        with pytest.raises(ProjectiveError, match="one backend"):
            join(p, q)
    for l, k in ((d.S, ProjLine(d.T.floats())), (ProjLine(d.T.floats()), d.S)):
        with pytest.raises(ProjectiveError, match="one backend"):
            meet(l, k)


def _vectors(cls, rows, exact):
    return [cls(row if exact else tuple(float(x) for x in row)) for row in rows]


# the unit-square box (top edge at height one, bottom edge at height zero)
# and its six line entries through (0, 0, 1) and (1, 1, 1), each with one
# entry replaced to break one condition
SQUARE_BOX = ((-1, 1, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1), (0, 0, 1), (-1, 0, 1))
BAD_BOXES = {
    "top_off_its_line": ({1: (0, 0, 1)}, "top triple (s, t, u) must be collinear"),
    "bottom_off_its_line": ({4: (0, 1, 0)}, "bottom triple (a, b, c) must be collinear"),
    "repeated_point": ({1: (-1, 1, 0)}, "marked edge points must be distinct"),
    "one_line": ({3: (2, 1, 0), 4: (3, 1, 0), 5: (4, 1, 0)}, "top and bottom edges lie on one line"),
}
PENCIL_LINES = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, -1), (0, 1, -1), (1, 1, -2))
BAD_DUAL_BOXES = {
    "top_not_concurrent": ({1: (0, 0, 1)}, "top line triple must be concurrent"),
    "bottom_not_concurrent": ({4: (0, 0, 1)}, "bottom line triple must be concurrent"),
}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("change, message", list(BAD_BOXES.values()), ids=list(BAD_BOXES))
def test_a_degenerate_box_is_refused_with_its_reason(change, message, exact):
    rows = [change.get(k, row) for k, row in enumerate(SQUARE_BOX)]
    MarkedBox(*_vectors(ProjPoint, SQUARE_BOX, exact))
    with pytest.raises(DegenerateBox) as refused:
        MarkedBox(*_vectors(ProjPoint, rows, exact))
    assert str(refused.value) == message


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("change, message", list(BAD_DUAL_BOXES.values()), ids=list(BAD_DUAL_BOXES))
def test_a_degenerate_dual_box_is_refused_with_its_reason(change, message, exact):
    rows = [change.get(k, row) for k, row in enumerate(PENCIL_LINES)]
    DualMarkedBox(*_vectors(ProjLine, PENCIL_LINES, exact))
    with pytest.raises(DegenerateBox) as refused:
        DualMarkedBox(*_vectors(ProjLine, rows, exact))
    assert str(refused.value) == message
