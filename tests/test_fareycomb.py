"""Farey triangulation bookkeeping.

The oracle below re-derives the one-sided triangulation by plain
Stern-Brocot recursion, independent of the edge maps under test.
"""

import random

import pytest

from pappus.fareycomb import (
    INF,
    FareyError,
    NotAdjacent,
    OrientedEdge,
    Rational,
    default_base_edge,
    edge_b,
    edge_i,
    edge_t,
    word_apply,
)

BASE = default_base_edge()


def mediant_triangles(depth):
    """Plain Stern-Brocot recursion on the base edge, no word machinery."""
    tris = []

    def rec(a, b, d):
        mid = Rational(a.n + b.n, a.d + b.d)
        tris.append(frozenset((a, mid, b)))
        if d > 0:
            rec(a, mid, d - 1)
            rec(mid, b, d - 1)

    rec(BASE.tail, BASE.head, depth)
    return tris


def tb_words(depth):
    """All words over {t, b} of length at most ``depth``."""
    return [
        "".join("tb"[(bits >> j) & 1] for j in range(k))
        for k in range(depth + 1)
        for bits in range(2 ** k)
    ]


def test_base_edge_and_generator_edges():
    assert (BASE.tail, BASE.head) == (INF, Rational(0, 1))
    assert (edge_i(BASE).tail, edge_i(BASE).head) == (Rational(0, 1), INF)
    assert (edge_t(BASE).tail, edge_t(BASE).head) == (INF, Rational(1, 1))
    assert (edge_b(BASE).tail, edge_b(BASE).head) == (Rational(1, 1), Rational(0, 1))


def test_rationals_are_reduced_and_hashable():
    assert Rational(2, 4) == Rational(1, 2)
    assert len({Rational(2, 4), Rational(1, 2), Rational(3, 6)}) == 1
    with pytest.raises(FareyError):
        Rational(0, 0)


def test_edges_exist_only_between_farey_neighbors():
    OrientedEdge.from_rationals(Rational(1, 3), Rational(1, 2))
    with pytest.raises(NotAdjacent):
        OrientedEdge.from_rationals(Rational(1, 3), Rational(2, 3))


@pytest.mark.parametrize("depth", range(6))
def test_triangle_enumeration_matches_mediant_recursion(depth):
    got = set()
    for w in tb_words(depth):
        e = word_apply(w, BASE)
        third = Rational(e.p[0] + e.q[0], e.p[1] + e.q[1])
        got.add(frozenset((e.tail, e.head, third)))
    oracle = mediant_triangles(depth)
    assert len(got) == 2 ** (depth + 1) - 1
    assert got == set(oracle)
    got_vertices = {v for t in got for v in t}
    assert len(got_vertices) == 2 ** (depth + 1) + 1


def test_words_enumerate_distinct_edges():
    seen = {word_apply(w, BASE) for w in tb_words(4)}
    assert len(seen) == 2 ** 5 - 1


# each relation of <i, t, b> as (word, equivalent word)
RELATIONS = [("ii", ""), ("tit", "b"), ("bib", "t"), ("tibi", ""), ("biti", ""),
             ("ititit", ""), ("ibibib", "")]


@pytest.mark.parametrize("word,equal", RELATIONS, ids=[w for w, _ in RELATIONS])
def test_edge_action_satisfies_the_group_relations(word, equal):
    rng = random.Random(11)
    for _ in range(50):
        e = word_apply("".join(rng.choice("itb") for _ in range(rng.randint(0, 12))), BASE)
        assert word_apply(word, e) == word_apply(equal, e)


def test_word_matrix_realizes_the_edge_action():
    # right multiplication by the letter matrices of the module docstring
    letters = {"i": (0, -1, 1, 0), "t": (1, 1, 0, 1), "b": (1, 0, 1, 1)}

    def product(w):
        a, b, c, d = 1, 0, 0, 1
        for ch in w:
            p, q, r, s = letters[ch]
            a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
        return a, b, c, d

    def act(mat, r):
        a, b, c, d = mat
        return Rational(a * r.n + b * r.d, c * r.n + d * r.d)

    rng = random.Random(5)
    for _ in range(100):
        w = "".join(rng.choice("itb") for _ in range(rng.randint(0, 8)))
        mw = product(w)
        e = word_apply(w, BASE)
        assert act(mw, BASE.tail) == e.tail
        assert act(mw, BASE.head) == e.head
