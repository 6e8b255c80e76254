"""Farey patterns of medial geodesics.

Every convex marked box M owns a flat (its top point, bottom point,
and the meet of the top and bottom lines), an elliptic polarity whose
unit ellipsoid sits on that flat, and the medial geodesic through that
point running from the top flag to the bottom flag.  Pushing this
construction over the tree of t/b words produces one geodesic per
oriented Farey edge on one side of the base edge; reversing the box
with i reverses the geodesic, so each geodesic is stored once, oriented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .projective import Flag, PappusError
from .markedbox import (
    MarkedBox,
    OutOfRange,
    bottom_flag,
    box_polarity,
    model_box,
    tb_tree,
    top_flag,
)
from .fareycomb import OrientedEdge, Rational, default_base_edge, word_apply
from .symmspace import (
    Flat,
    NumericalFailure,
    XGeodesic,
    XPoint,
    flat_from_triangle,
    flat_geodesic,
    metric_d,
    polarity_fixed_point,
)
from .projective import join, meet


class PatternError(PappusError):
    pass


class FixedPointOffFlat(PatternError):
    """Internal consistency failure: the polarity point left its flat."""


def flat_of_box(m: MarkedBox) -> Flat:
    """Flat of a box: vertices (top point, bottom point, top line ^ bottom line)."""
    t_line = join(m.s, m.u)
    b_line = join(m.a, m.c)
    return flat_from_triangle(m.t, m.b, meet(t_line, b_line))


# log-diagonal velocity of the medial geodesic in (top, bottom, meet) order;
# the bottom coordinate shrinks, so the bottom axis grows and the forward
# end degenerates onto the bottom flag
_MEDIAL_VELOCITY = (1.0, -1.0, 0.0)


@dataclass(frozen=True, eq=False)
class PatternGeodesic:
    box: MarkedBox
    word: str
    flat: Flat
    fixed_point: XPoint
    geodesic: XGeodesic
    top: Flag
    bottom: Flag


def geodesic_of_box(m: MarkedBox, word: str = "") -> PatternGeodesic:
    flat = flat_of_box(m)
    p = polarity_fixed_point(box_polarity(m))
    if not flat.contains(p, 1e-10):
        raise FixedPointOffFlat("polarity point misses the box flat")
    gamma = flat_geodesic(flat, p, _MEDIAL_VELOCITY)
    return PatternGeodesic(
        box=m,
        word=word,
        flat=flat,
        fixed_point=p,
        geodesic=gamma,
        top=top_flag(m),
        bottom=bottom_flag(m),
    )


def _check_params(x, y):
    for v in (x, y):
        if not (0 < v < 1):
            raise OutOfRange("parameters must lie in (0,1)")


def base_box(x, y) -> MarkedBox:
    """Model box whose invariant pair is (x, y)."""
    _check_params(x, y)
    return model_box(2 * x - 1, 1 - 2 * y)


def pattern_boxes(x, y, depth: int, pool=None, workers: int = 1) -> List[Tuple[str, MarkedBox]]:
    """Breadth-first t/b words with their boxes, one per pattern geodesic."""
    if depth < 0:
        raise PatternError("depth must be nonnegative")
    return tb_tree([("", base_box(x, y))], depth, pool, workers)


@dataclass(frozen=True, eq=False)
class FareyPattern:
    x: object
    y: object
    depth: int
    geodesics: Tuple[PatternGeodesic, ...]
    base_edge: OrientedEdge
    base_box: MarkedBox

    def by_word(self) -> Dict[str, PatternGeodesic]:
        return {g.word: g for g in self.geodesics}

    def edge_of(self, word: str) -> OrientedEdge:
        return word_apply(word, self.base_edge)


def build_pattern(x, y, depth: int) -> FareyPattern:
    pairs = pattern_boxes(x, y, depth)
    geods = tuple(geodesic_of_box(m, w) for w, m in pairs)
    return FareyPattern(
        x=x,
        y=y,
        depth=depth,
        geodesics=geods,
        base_edge=default_base_edge(),
        base_box=pairs[0][1],
    )


def one_end_asymptotic(g1: PatternGeodesic, g2: PatternGeodesic, tol: float = 1e-7) -> bool:
    """Do the two geodesics limit on a single common flag?"""
    shared = 0
    for f1 in (g1.top, g1.bottom):
        for f2 in (g2.top, g2.bottom):
            if f1.point.same(f2.point, tol) and f1.line.same(f2.line, tol):
                shared += 1
    if shared >= 2:
        raise PatternError("geodesics coincide; asymptoticity is undefined")
    return shared == 1


# --- separation evidence ------------------------------------------------------

def _pairwise_min(mats_a: Sequence[np.ndarray], mats_b: Sequence[np.ndarray]):
    a = np.stack(mats_a)
    b = np.stack(mats_b)
    ell = np.linalg.cholesky(a)
    rhs = np.broadcast_to(b[None], (a.shape[0], b.shape[0], 3, 3))
    x = np.linalg.solve(ell[:, None], rhs)
    w = np.linalg.solve(ell[:, None], np.transpose(x, (0, 1, 3, 2)))
    w = (w + np.transpose(w, (0, 1, 3, 2))) / 2.0
    mu = np.linalg.eigvalsh(w)
    if not mu[..., 0].min() > 0:
        raise NumericalFailure("generalized eigenvalues not positive")
    d = 0.5 * np.sqrt((np.log(mu) ** 2).sum(axis=-1))
    i, j = np.unravel_index(int(np.argmin(d)), d.shape)
    return (int(i), int(j)), float(d[i, j])


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, tol: float = 1e-6):
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def _descend(f, start: List[float], step: float, rounds: int = 3, tol: float = 1e-6):
    pos = list(start)
    best = f(pos)
    for _ in range(rounds):
        for axis in range(len(pos)):
            def slice_f(v, axis=axis):
                trial = list(pos)
                trial[axis] = v
                return f(trial)

            v, fv = _golden_min(slice_f, pos[axis] - step, pos[axis] + step, tol)
            if fv < best:
                pos[axis], best = v, fv
        step *= 0.5
    return best


def min_distance_flats(f1: Flat, f2: Flat, window: float = 2.0, samples: int = 7) -> float:
    """Sampled minimum distance between two flats (4-parameter grid)."""
    if samples < 2 or window <= 0:
        raise PatternError("need window > 0 and at least 2 samples")
    grid = np.linspace(-window, window, samples)
    pa = [f1.point_at(float(a), float(b)).m for a in grid for b in grid]
    pb = [f2.point_at(float(a), float(b)).m for a in grid for b in grid]
    (i, j), best = _pairwise_min(pa, pb)
    if best < 1e-15:
        return 0.0
    step = float(grid[1] - grid[0])
    start = [
        float(grid[i // samples]), float(grid[i % samples]),
        float(grid[j // samples]), float(grid[j % samples]),
    ]

    def f(v):
        return metric_d(f1.point_at(v[0], v[1]), f2.point_at(v[2], v[3]))

    return min(best, _descend(f, start, step, rounds=2))


# --- limit set ----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LimitFlag:
    vertex: Rational
    flag: Flag
    word: str
    edge: OrientedEdge


def fold_limit_flags(rows: Sequence[Tuple[str, MarkedBox]]) -> List[LimitFlag]:
    """First-witness flag per Farey vertex over breadth-first (word, box) rows.

    A row's edge is one letter applied to its parent word's edge, so the
    parent row must come first.  The tail of the edge carries the box's
    top flag and the head its bottom flag.  The flags come back in
    circular order of their vertices.
    """
    edges: Dict[str, OrientedEdge] = {}
    seen: Dict[Rational, LimitFlag] = {}
    for word, box in rows:
        e = edges[word] = word_apply(word[-1], edges[word[:-1]]) if word else default_base_edge()
        for vertex, flag in ((e.tail, top_flag(box)), (e.head, bottom_flag(box))):
            if vertex not in seen:
                seen[vertex] = LimitFlag(vertex=vertex, flag=flag, word=word, edge=e)
    return sorted(seen.values(), key=lambda lf: lf.vertex.circular_key())


def limit_set_flags(x, y, depth: int, pool=None, workers: int = 1) -> List[LimitFlag]:
    """Flags of the one-sided orbit, one per Farey vertex, in circular order."""
    return fold_limit_flags(pattern_boxes(x, y, depth, pool, workers))
