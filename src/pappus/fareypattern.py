"""Farey patterns of medial geodesics.

Every convex marked box M owns a flat, the flat of its top and bottom
flags (the two flags' points and the meet of their lines), an elliptic
polarity whose unit ellipsoid sits on that flat, and the medial geodesic
through that point running from the top flag to the bottom flag.
Pushing this construction over the tree of t/b words produces one
geodesic per oriented Farey edge on one side of the base edge;
reversing the box with i reverses the geodesic, so each geodesic is
stored once, oriented.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List

import numpy as np

from .projective import Flag, PappusError, meet
from .markedbox import MarkedBox, bottom_flag, box_polarity, pattern_boxes, top_flag
from .fareycomb import OrientedEdge, default_base_edge, word_apply
from .symmspace import (
    Flat,
    flat_distances,
    flat_from_triangle,
    flat_geodesic,
    plane_log,
    polarity_fixed_point,
    relative_frames,
)


class PatternError(PappusError):
    pass


def flat_of_flags(top: Flag, bottom: Flag) -> Flat:
    """Flat of two flags: vertices (top point, bottom point, top line ^ bottom line)."""
    return flat_from_triangle(top.point, bottom.point, meet(top.line, bottom.line))


# log-diagonal velocity of the medial geodesic in (top, bottom, meet) order;
# the bottom coordinate shrinks, so the bottom axis grows and the forward
# end degenerates onto the bottom flag
_MEDIAL_VELOCITY = (1.0, -1.0, 0.0)


class PatternGeodesic(namedtuple("PatternGeodesic", "word flat fixed_log geodesic top bottom")):
    """The medial geodesic of the box of a word, with the flat and the flags it runs between.

    fixed_log is the geodesic's base in the flat, so the geodesic is
    fixed_log + plane_log(tau, 0).
    """

    __slots__ = ()


def geodesic_of_box(m: MarkedBox, word: str = "") -> PatternGeodesic:
    top, bottom = top_flag(m), bottom_flag(m)
    flat = flat_of_flags(top, bottom)
    p = polarity_fixed_point(box_polarity(m))
    u0 = flat.log_coords(p)
    return PatternGeodesic(
        word=word,
        flat=flat,
        fixed_log=u0,
        geodesic=flat_geodesic(flat, p, u0, _MEDIAL_VELOCITY),
        top=top,
        bottom=bottom,
    )


class FareyPattern(namedtuple("FareyPattern", "geodesics")):
    __slots__ = ()

    def edge_of(self, word: str) -> OrientedEdge:
        return word_apply(word, default_base_edge())


def build_pattern(x, y, depth: int) -> FareyPattern:
    return FareyPattern(tuple(geodesic_of_box(m, w) for w, m in pattern_boxes(x, y, depth)))


def one_end_asymptotic(g1: PatternGeodesic, g2: PatternGeodesic) -> bool:
    """Do the two geodesics limit on a single common flag?"""
    shared = 0
    for f1 in (g1.top, g1.bottom):
        for f2 in (g2.top, g2.bottom):
            if f1.point.same(f2.point, 1e-7) and f1.line.same(f2.line, 1e-7):
                shared += 1
    if shared >= 2:
        raise PatternError("geodesics coincide; asymptoticity is undefined")
    return shared == 1


# --- separation evidence ------------------------------------------------------

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float):
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-6:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def _descend(f, start: List[float], step: float):
    pos = list(start)
    best = f(pos)
    for _ in range(2):
        for axis in range(len(pos)):
            def slice_f(v, axis=axis):
                trial = list(pos)
                trial[axis] = v
                return f(trial)

            v, fv = _golden_min(slice_f, pos[axis] - step, pos[axis] + step)
            if fv < best:
                pos[axis], best = v, fv
        step *= 0.5
    return best


def min_distance_flats(f1: Flat, f2: Flat) -> float:
    """Sampled minimum distance between two flats: their 7 x 7 plane grids over [-2, 2]^2
    in one ``flat_distances`` call, then a descent from the closest pair, one call a step;
    the flats' relative frame is formed once."""
    grid = np.linspace(-2.0, 2.0, 7)
    a, b = np.repeat(grid, 7), np.tile(grid, 7)
    plane = plane_log(a, b)
    c = relative_frames(f1, [f2])[0]
    d = flat_distances(c, plane, plane)
    i, j = np.unravel_index(int(np.argmin(d)), d.shape)
    if d[i, j] < 1e-15:
        return 0.0

    def f(v):
        return float(flat_distances(c, plane_log(v[0], v[1])[None], plane_log(v[2], v[3])[None])[0, 0])

    return min(float(d[i, j]), _descend(f, [a[i], b[i], a[j], b[j]], grid[1] - grid[0]))
