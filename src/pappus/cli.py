"""Command line front end: exports and the verification suite.

Subcommands:
  orbit     enumerate boxes of the two-sided orbit (csv or json)
  limitset  flag cloud of the limit set (svg or csv)
  pattern   geodesic pattern records (json), optional distance summary
  charvar   grid of the orbit invariant over the parameter square (csv)
  prism     bending report (json) or a sampled cone mesh (obj)
  verify    run the identity suites and report residuals (json)

The spelling of --x and --y picks the backend: two rationals like 3/10
run exact end to end, and any decimal runs the float backend (with a
warning when both are decimals).  Exit codes: 2 for an invalid
configuration, 3 for degenerate geometry, 1 for a failed verification,
0 otherwise.  ``orbit`` and ``limitset`` with ``--workers N`` above 1
split the walk between this process and N - 1 forked children
(``markedbox.tb_tree``), so they need ``os.fork``.

The CLI runs BLAS on one thread unless the caller set OPENBLAS_NUM_THREADS:
every matrix is 3x3 or a stack of them, and OpenBLAS's helper pool only
spun, at 0.13-0.17 s of CPU per process.  Importing the library leaves the
environment alone.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

# the exact layers only: numpy, symmspace, fareypattern and prisms are imported
# inside the geometry commands and verify suites that read them, so orbit,
# limitset and charvar start on the standard library
from .projective import (
    Flag,
    HomVec,
    PappusError,
    is_elliptic,
)
from .markedbox import (
    MarkedBox,
    apply_word_box,
    base_box,
    box_polarity,
    box_triple_product,
    doppelganger,
    invariant_rotations,
    model_box,
    op_b,
    op_i,
    op_t,
    orbit_enumerate,
    polarity_box_to_dual,
    polarity_dual_to_box,
    raw_invariant,
    triple_invariant,
    word_rotation,
)
# criterion 11 and the benchmark tests import the enumerator and the fold by these names
from .markedbox import _expand_chunk, orbit_enumerate as _orbit_rows
from .fareycomb import fold_limit_flags as _fold_limit_flags, limit_set_flags

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3

DEFAULT_MAX_DEPTH = 16


class ConfigError(Exception):
    pass


# --- configuration -------------------------------------------------------------

def _parse_scalar(text: str):
    """Returns (value, is_exact).  p/q stays a Fraction, decimals go float."""
    text = text.strip()
    if "/" in text:
        try:
            return Fraction(text), True
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational {text!r}: {exc}") from None
    try:
        return float(text), False
    except ValueError:
        raise ConfigError(f"bad number {text!r}") from None


def _params(args):
    """(x, y, backend) from --x and --y, checked in that order."""
    if args.x is None or args.y is None:
        raise ConfigError("--x and --y are required")
    x, x_exact = _parse_scalar(args.x)
    y, y_exact = _parse_scalar(args.y)
    backend = "exact" if x_exact and y_exact else "float"
    if backend == "float":
        if not (x_exact or y_exact):
            print("warning: decimal input uses the float backend", file=sys.stderr)
        x, y = float(x), float(y)
    if not (0 < x < 1 and 0 < y < 1):
        raise ConfigError("x and y must lie strictly between 0 and 1")
    return x, y, backend


def _depth(depth: int) -> int:
    """--depth checked against the PAPPUS_MAX_DEPTH cap, which only a
    command that reads a depth reads."""
    raw = os.environ.get("PAPPUS_MAX_DEPTH", str(DEFAULT_MAX_DEPTH))
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"PAPPUS_MAX_DEPTH is not an integer: {raw!r}") from None
    if cap < 0:
        raise ConfigError("PAPPUS_MAX_DEPTH must be nonnegative")
    if depth < 0 or depth > cap:
        raise ConfigError(f"depth must be in [0, {cap}]")
    return depth


def _check_out(out: Optional[str]) -> None:
    """Refuse, before any work, an --out path that is a directory or whose directory is
    missing, as opening it would; the file itself is opened only once the output is made."""
    if not out:
        return
    if os.path.isdir(out):
        reason = errno.EISDIR
    elif not os.path.exists(os.path.dirname(out) or "."):
        reason = errno.ENOENT
    else:
        return
    raise ConfigError(f"cannot write --out {out}: {os.strerror(reason)}")


def _stdout_lost(exc: OSError) -> ConfigError:
    """Point stdout at the null device, so no later flush writes to the closed reader again,
    and say why the output stopped."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, sys.stdout.fileno())
    os.close(null)
    return ConfigError(f"cannot write stdout: {exc.strerror}")


def _emit(out: Optional[str], text: Union[str, Iterable[str]]) -> None:
    """Write ``text``, one string or an iterable of them in order, to the
    --out file or to stdout."""
    chunks = [text] if isinstance(text, str) else text
    if out:
        try:
            fh = open(out, "w", newline="\n")
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out}: {exc.strerror}") from None
        with fh:
            fh.writelines(chunks)
    else:
        try:
            sys.stdout.writelines(chunks)
        except BrokenPipeError as exc:
            raise _stdout_lost(exc) from None


def _fmt_scalar(v) -> str:
    if type(v) is float:
        return repr(v)
    return str(v) if isinstance(v, (str, int, Fraction)) else repr(float(v))


def _fmt_rational(r) -> str:
    return f"{r.n}/{r.d}"


def _jsonable_scalar(v):
    return str(v) if isinstance(v, (str, Fraction)) else float(v)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- orbit ----------------------------------------------------------------------

_COORD_NAMES = [f"{pt}{k}" for pt in "stuabc" for k in range(3)]


def _coords(h: HomVec) -> list:
    """Printed coordinates: a float vector's stored floats, an exact one's
    entries n/first reduced by one gcd, the text of ``Fraction(n, first)``."""
    if not h.exact:
        return list(h.v)
    first = h.v[0] or h.v[1] or h.v[2]
    return [str(n // g) if (g := math.gcd(n, first)) == first else f"{n // g}/{first // g}"
            for n in h.v]


def _box_coords(m: MarkedBox):
    return [c for p in (m.s, m.t, m.u, m.a, m.b, m.c) for c in _coords(p)]


_CSV_CHUNK_ROWS = 1024


def _orbit_csv(boxes, pairs: Sequence[str]) -> Iterator[str]:
    """The orbit csv in chunks of rows.  Each distinct point is formatted
    once, keyed by its stored triple: its text depends on nothing else in
    a run of one backend, and a t/b child shares four of its six points
    with its parent or sibling.  The key treats a float 0.0 and -0.0
    alike, which print differently; two points of one walk whose triples
    differ only there would have to be one point computed twice, bit for
    bit but for that sign."""
    yield "word," + ",".join(_COORD_NAMES) + ",x,y\n"
    texts: Dict[tuple, str] = {}
    for start in range(0, len(boxes), _CSV_CHUNK_ROWS):
        lines = []
        for word, m in boxes[start:start + _CSV_CHUNK_ROWS]:
            cells = [word or "-"]
            for p in (m.s, m.t, m.u, m.a, m.b, m.c):
                text = texts.get(p.v)
                if text is None:
                    text = texts[p.v] = ",".join(map(_fmt_scalar, _coords(p)))
                cells.append(text)
            cells.append(pairs[word_rotation(word)])
            lines.append(",".join(cells))
        yield "\n".join(lines) + "\n"


def _check_positive(**options) -> None:
    for name, value in options.items():
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(f"--{name} must be positive and finite, got {value}")


def _check_workers(workers: int) -> None:
    """A positive --workers; above 1 the walk forks children, which needs os.fork."""
    _check_positive(workers=workers)
    if workers > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"--workers {workers} needs os.fork, which this platform lacks")


def cmd_orbit(args) -> int:
    x, y, backend = _params(args)
    depth = _depth(args.depth)
    _check_workers(args.workers)
    boxes = orbit_enumerate(base_box(x, y), depth, args.workers)
    # each row's invariant pair is one of four, read off its word
    rotations = invariant_rotations(x, y)
    if args.format == "csv":
        pairs = [f"{_fmt_scalar(u)},{_fmt_scalar(v)}" for u, v in rotations]
        _emit(args.out, _orbit_csv(boxes, pairs))
    else:
        pairs = [[_jsonable_scalar(u), _jsonable_scalar(v)] for u, v in rotations]
        payload = {
            "command": "orbit",
            "x": _jsonable_scalar(x),
            "y": _jsonable_scalar(y),
            "depth": depth,
            "backend": backend,
            "boxes": [
                {
                    "word": word,
                    "coords": [_jsonable_scalar(c) for c in _box_coords(m)],
                    "invariant": pairs[word_rotation(word)],
                }
                for word, m in boxes
            ],
        }
        _emit(args.out, _dump_json(payload))
    return EXIT_OK


# --- limit set -------------------------------------------------------------------

def _affine_point(flag: Flag):
    x, y, z = flag.point.floats()
    scale = max(abs(x), abs(y), abs(z))
    if abs(z) <= 1e-12 * scale:
        return None
    return x / z, y / z


def _clip_line(l0: float, l1: float, l2: float, w: float):
    """Segment of the line l0 X + l1 Y + l2 = 0 inside [-w, w]^2."""
    pts = []
    if abs(l1) > 1e-15:
        for x in (-w, w):
            y = -(l0 * x + l2) / l1
            if -w - 1e-9 <= y <= w + 1e-9:
                pts.append((x, y))
    if abs(l0) > 1e-15:
        for y in (-w, w):
            x = -(l1 * y + l2) / l0
            if -w - 1e-9 <= x <= w + 1e-9:
                pts.append((x, y))
    dedup = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-9 for q in dedup):
            dedup.append(p)
    if len(dedup) < 2:
        return None
    best = max(
        ((a, b) for i, a in enumerate(dedup) for b in dedup[i + 1:]),
        key=lambda ab: math.dist(*ab),
    )
    return best


def _limitset_svg(flags, window: float) -> str:
    w = window
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        f'viewBox="{-w:g} {-w:g} {2 * w:g} {2 * w:g}">',
        f'<rect x="{-w:g}" y="{-w:g}" width="{2 * w:g}" height="{2 * w:g}" fill="white"/>',
        '<g transform="scale(1,-1)">',
    ]
    r = w / 160.0
    sw = w / 500.0
    for lf in flags:
        coeffs = lf.flag.line.floats()
        seg = _clip_line(coeffs[0], coeffs[1], coeffs[2], w)
        if seg:
            (x1, y1), (x2, y2) = seg
            out.append(
                f'<line x1="{x1:.6g}" y1="{y1:.6g}" x2="{x2:.6g}" y2="{y2:.6g}" '
                f'stroke="#9a9a9a" stroke-width="{sw:.6g}" stroke-opacity="0.6"/>'
            )
    for lf in flags:
        pt = _affine_point(lf.flag)
        if pt and abs(pt[0]) <= w and abs(pt[1]) <= w:
            out.append(f'<circle cx="{pt[0]:.6g}" cy="{pt[1]:.6g}" r="{r:.6g}" fill="#111111"/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_limitset(args) -> int:
    x, y, _ = _params(args)
    depth = _depth(args.depth)
    _check_positive(window=args.window)
    _check_workers(args.workers)
    if not math.isfinite(2 * args.window):
        raise ConfigError(f"--window must be at most half the largest float, got {args.window}")
    flags = limit_set_flags(x, y, depth, args.workers)
    if args.format == "csv":
        lines = ["word,px,py,pz,lx,ly,lz,farey_tail,farey_head"]
        for lf in flags:
            cells = [lf.word or "-"]
            cells += [_fmt_scalar(c) for c in _coords(lf.flag.point)]
            cells += [_fmt_scalar(c) for c in _coords(lf.flag.line)]
            cells += [_fmt_rational(lf.edge.tail), _fmt_rational(lf.edge.head)]
            lines.append(",".join(cells))
        _emit(args.out, "\n".join(lines) + "\n")
    else:
        _emit(args.out, _limitset_svg(flags, args.window))
    return EXIT_OK


# --- pattern ---------------------------------------------------------------------

def _flag_json(flag: Flag):
    return {
        "point": [_jsonable_scalar(c) for c in _coords(flag.point)],
        "line": [_jsonable_scalar(c) for c in _coords(flag.line)],
    }


def _matrix_json(m):
    return [[float(v) for v in row] for row in m]


# grid entries per kernel call of the distance summary: it bounds the k x n x n bound array
# line_minima keeps, and the matrices it forms are a part of that grid
_SUMMARY_MATRICES = 2 ** 16


def _distance_summary(pat, window: float, samples: int) -> Dict:
    """Sampled minimum distance between every two pattern geodesics, each sampled on
    its flat's line fixed_log + plane_log(tau, 0), consecutive samples 2 window / (samples - 1)
    apart in X.  One ``line_minima`` call measures a geodesic against a run of later ones: it
    checks the whole grid finite, and takes the singular values first at each pair's entry of
    least norm bound and then only where that bound leaves room for a smaller distance, with a
    margin that dominates the float error (derived at ``line_minima``); each minimum is the same
    float as over the whole grid."""
    import numpy as np
    from .symmspace import line_minima, plane_log, relative_frames

    line = plane_log(np.linspace(-window, window, samples), 0.0)
    run = max(1, _SUMMARY_MATRICES // samples ** 2)
    gs = pat.geodesics
    pairs = []
    for a, ga in enumerate(gs):
        for lo in range(a + 1, len(gs), run):
            later = gs[lo:lo + run]
            minima = line_minima(relative_frames(ga.flat, [g.flat for g in later]), ga.fixed_log + line,
                                 np.stack([g.fixed_log + line for g in later]))
            pairs += [{"words": [ga.word or "-", gb.word or "-"], "min": float(d)}
                      for gb, d in zip(later, minima)]
    return {
        "window": window,
        "samples": samples,
        "pairs": pairs,
        "all_positive": all(p["min"] > 0 for p in pairs),
        # the first pair at the smallest minimum, or None for a single geodesic
        "min": min(pairs, key=lambda p: p["min"], default=None),
    }


def cmd_pattern(args) -> int:
    x, y, backend = _params(args)
    depth = _depth(args.depth)
    _check_positive(window=args.window, samples=args.samples)
    if args.samples < 2:
        raise ConfigError("--samples must be at least 2: the samples span [-window, window]")
    from .fareypattern import build_pattern

    pat = build_pattern(x, y, depth)
    records = []
    for g in pat.geodesics:
        e = pat.edge_of(g.word)
        records.append(
            {
                "word": g.word or "-",
                "farey": [_fmt_rational(e.tail), _fmt_rational(e.head)],
                "flat_basis": _matrix_json(g.flat.basis),
                "fixed_point": _matrix_json(g.geodesic.base.m),
                "direction": _matrix_json(g.geodesic.direction),
                "top_flag": _flag_json(g.top),
                "bottom_flag": _flag_json(g.bottom),
            }
        )
    payload = {
        "command": "pattern",
        "x": _jsonable_scalar(x),
        "y": _jsonable_scalar(y),
        "depth": depth,
        "backend": backend,
        "geodesics": records,
    }
    if args.distances:
        payload["distances"] = _distance_summary(pat, args.window, args.samples)
    _emit(args.out, _dump_json(payload))
    return EXIT_OK


# --- character variety -------------------------------------------------------------

def cmd_charvar(args) -> int:
    grid = args.grid
    _check_positive(grid=grid)
    lines = ["x,y,triple_invariant"]
    for i in range(1, grid + 1):
        for j in range(1, grid + 1):
            x = i / (grid + 1)
            y = j / (grid + 1)
            lines.append(f"{x!r},{y!r},{triple_invariant(x, y)!r}")
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# --- prism reports -----------------------------------------------------------------

# the mesh options and their defaults; the json report reads none of them
_MESH_OPTIONS = {"cone": 0.0, "window": 2.0, "samples": 9}


def cmd_prism(args) -> int:
    x, y, _ = _params(args)
    given = vars(args)
    # the obj mesh reads no depth, so it does not read the cap either
    depth = _depth(given.get("depth", 0)) if args.format == "json" else None
    # an option the chosen format does not read is refused, not ignored
    for name in ("depth",) if args.format == "obj" else _MESH_OPTIONS:
        if name in given:
            raise ConfigError(f"--{name} does not apply to --format {args.format}")
    if args.format == "obj":
        cone, window, samples = (given.get(name, default) for name, default in _MESH_OPTIONS.items())
        _check_positive(window=window, samples=samples)
        if not math.isfinite(cone):
            raise ConfigError(f"--cone must be finite, got {cone}")
        if samples < 2:
            raise ConfigError("--samples must be at least 2 for the obj mesh")
        from .prisms import cone_fill_sample, mesh_to_obj, prism_of_triangle

        mesh = cone_fill_sample(prism_of_triangle(base_box(x, y)), cone, samples, window)
        _emit(args.out, mesh_to_obj(mesh))
        return EXIT_OK
    from .prisms import bending_report

    report = bending_report(x, y, depth)
    # json writes a named tuple as a list, so the nested records are converted too
    payload = {"command": "prism", **report._asdict(), "prisms": [p._asdict() for p in report.prisms],
               "adjacent_pairs": [a._asdict() for a in report.adjacent_pairs]}
    _emit(args.out, _dump_json(payload))
    return EXIT_OK


# --- verification suites -------------------------------------------------------------

def _check(name: str, passed: bool, residual: Optional[float] = None) -> Dict:
    rec = {"name": name, "passed": bool(passed)}
    if residual is not None:
        rec["residual"] = float(residual)
    return rec


def _random_param(rng: random.Random) -> Fraction:
    den = rng.randint(3, 40)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def _suite_relations(rng: random.Random) -> List[Dict]:
    checks = []
    worst = True
    for _ in range(100):
        m = base_box(_random_param(rng), _random_param(rng))
        ok = (
            apply_word_box("ii", m).same_box(m)
            and apply_word_box("tit", m).same_box(op_b(m))
            and apply_word_box("bib", m).same_box(op_t(m))
            and apply_word_box("tibi", m).same_box(m)
            and apply_word_box("biti", m).same_box(m)
            and apply_word_box("ititit", m).same_box(m)
            and apply_word_box("ibibib", m).same_box(m)
        )
        worst = worst and ok
    checks.append(_check("relations.exact_100_random_boxes", worst))
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    checks.append(
        _check("relations.orbit_count_depth3", len(orbit_enumerate(m, 3)) == 30)
    )
    # the rule orbit reads every row's invariant pair by: t and b turn it by R, i by R^-1
    rotations = invariant_rotations(*raw_invariant(m))
    rec = all(raw_invariant(apply_word_box(w, m)) == rotations[word_rotation(w)] for w in "tbi")
    checks.append(_check("relations.invariant_recursion", rec))
    return checks


def _suite_duality(rng: random.Random) -> List[Dict]:
    checks = []
    incid = True
    dets = True
    definite = True
    for _ in range(50):
        p = Fraction(rng.randint(-19, 19), 20)
        q = Fraction(rng.randint(-19, 19), 20)
        m = model_box(p, q)
        delta = box_polarity(m)
        # the polarity carries M to the doppelganger of i(M) and back
        incid = incid and polarity_box_to_dual(delta, m).same_dual(doppelganger(op_i(m)))
        incid = incid and polarity_dual_to_box(delta, doppelganger(m)).same_box(op_i(m))
        dets = dets and delta.det() == (p * p - 1) * (q * q - 1)
        definite = definite and is_elliptic(delta)
    checks.append(_check("duality.twelve_incidences_exact", incid))
    checks.append(_check("duality.det_closed_form", dets))
    checks.append(_check("duality.definite_on_convex_range", definite))
    return checks


def _random_sl3(rng):
    import numpy as np

    while True:
        g = rng.normal(size=(3, 3))
        d = np.linalg.det(g)
        if abs(d) > 0.1:
            return g / np.cbrt(d)


def _random_spd(rng):
    from .symmspace import XPoint

    g = _random_sl3(rng)
    return XPoint(g @ g.T)


def _suite_metric(rng: random.Random) -> List[Dict]:
    import numpy as np
    from .projective import ProjMap, standard_polarity
    from .symmspace import XGeodesic, duality_action, geodesic_point, group_action, metric_d

    nrng = np.random.default_rng(rng.randint(0, 2**32 - 1))
    checks = []
    worst_sym = 0.0
    worst_inv = 0.0
    worst_dual = 0.0
    worst_tri = 0.0
    for _ in range(100):
        e1, e2, e3 = (_random_spd(nrng) for _ in range(3))
        d12 = metric_d(e1, e2)
        worst_sym = max(worst_sym, abs(d12 - metric_d(e2, e1)) / (1 + d12))
        g = _random_sl3(nrng)
        gm = ProjMap(tuple(tuple(float(v) for v in row) for row in g))
        worst_inv = max(
            worst_inv,
            abs(metric_d(group_action(gm, e1), group_action(gm, e2)) - d12) / (1 + d12),
        )
        delta = standard_polarity(exact=False)
        worst_dual = max(
            worst_dual,
            abs(metric_d(duality_action(delta, e1), duality_action(delta, e2)) - d12)
            / (1 + d12),
        )
        worst_tri = max(
            worst_tri, d12 - metric_d(e1, e3) - metric_d(e3, e2)
        )
    checks.append(_check("metric.symmetry", worst_sym < 1e-9, worst_sym))
    checks.append(_check("metric.sl3_invariance", worst_inv < 1e-9, worst_inv))
    checks.append(_check("metric.duality_isometry", worst_dual < 1e-9, worst_dual))
    checks.append(_check("metric.triangle_inequality", worst_tri < 1e-9, worst_tri))
    worst_speed = 0.0
    for _ in range(20):
        gamma = XGeodesic(_random_spd(nrng), nrng.normal(size=(3, 3)))
        t1, t2 = sorted(nrng.uniform(-2, 2, size=2))
        d = metric_d(geodesic_point(gamma, t1), geodesic_point(gamma, t2))
        worst_speed = max(worst_speed, abs(d - (t2 - t1)) / (1 + t2 - t1))
    checks.append(_check("metric.unit_speed", worst_speed < 1e-8, worst_speed))
    return checks


def _suite_pattern(rng: random.Random) -> List[Dict]:
    import numpy as np
    from .fareypattern import build_pattern, geodesic_of_box, one_end_asymptotic
    from .symmspace import boundary_ray_class, duality_action, geodesic_point

    checks = []
    pat = build_pattern(Fraction(3, 10), Fraction(2, 5), 2)
    worst_member = 0.0
    flags_ok = True
    for g in pat.geodesics:
        _, off, norm = g.flat.frame(g.geodesic.base.m)
        worst_member = max(worst_member, off / norm)
        fwd = boundary_ray_class(g.geodesic, 1)
        bwd = boundary_ray_class(g.geodesic, -1)
        flags_ok = flags_ok and isinstance(fwd, Flag) and isinstance(bwd, Flag)
        if flags_ok:
            flags_ok = (
                fwd.point.same(g.bottom.point, 1e-6)
                and fwd.line.same(g.bottom.line, 1e-6)
                and bwd.point.same(g.top.point, 1e-6)
                and bwd.line.same(g.top.line, 1e-6)
            )
    checks.append(_check("pattern.fixed_point_on_flat", worst_member < 1e-10, worst_member))
    checks.append(_check("pattern.boundary_classes_are_the_flags", flags_ok))
    agree = True
    geos = pat.geodesics
    for i in range(len(geos)):
        for j in range(i + 1, len(geos)):
            ei, ej = pat.edge_of(geos[i].word), pat.edge_of(geos[j].word)
            shared = len({ei.tail, ei.head} & {ej.tail, ej.head})
            agree = agree and (one_end_asymptotic(geos[i], geos[j]) == (shared == 1))
    checks.append(_check("pattern.asymptotic_iff_farey_adjacent", agree))
    # the dual geodesic is the reversal: delta_M(gamma_M(t)) = gamma_{i(M)}(t)
    m = base_box(Fraction(3, 10), Fraction(2, 5))
    gm = geodesic_of_box(m)
    gi = geodesic_of_box(op_i(m))
    delta = box_polarity(m)
    worst_rev = 0.0
    for t in (-1.0, -0.3, 0.2, 0.8):
        img = duality_action(delta, geodesic_point(gm.geodesic, t))
        worst_rev = max(worst_rev, float(np.max(np.abs(img.m - geodesic_point(gi.geodesic, t).m))))
    checks.append(_check("pattern.polarity_reverses_onto_dual_geodesic", worst_rev < 1e-9, worst_rev))
    return checks


def _suite_prism(rng: random.Random) -> List[Dict]:
    import numpy as np
    from .prisms import _plane_coords, _slot_logs, prism_of_triangle, translation_T

    checks = []
    worst_col = 0.0
    worst_eig = 0.0
    worst_chi = 0.0
    count_ok = True
    for _ in range(20):
        while True:
            x = rng.uniform(0.08, 0.92)
            y = rng.uniform(0.08, 0.92)
            if abs(x - y) > 0.05 and abs(x + y - 1) > 0.05:
                break
        m = base_box(x, y)
        prism = prism_of_triangle(m)
        count_ok = count_ok and len(prism.polarities) == 3
        for j in range(3):
            u_psi, u_q = _slot_logs(prism, j)
            worst_col = max(worst_col, abs(_plane_coords(u_psi - u_q)[0]))
        t = translation_T(x, y)
        tm = np.array([[float(v) for v in row] for row in t.m])
        eig = np.sort(np.linalg.eigvals(tm).real)
        want = np.sort(np.array([1.0, -1.0, (-1 + x + y) / (x - y)]))
        worst_eig = max(worst_eig, float(np.max(np.abs(eig - want))))
        chi = box_triple_product(m)
        closed = -x * (1 - x) / (y * (1 - y))
        worst_chi = max(worst_chi, abs(float(chi) - closed) / (1 + abs(closed)))
    checks.append(_check("prism.three_polarities", count_ok))
    checks.append(_check("prism.collinearity_residual", worst_col < 1e-9, worst_col))
    checks.append(_check("prism.translation_eigenvalues", worst_eig < 1e-10, worst_eig))
    checks.append(_check("prism.triple_product_closed_form", worst_chi < 1e-12, worst_chi))
    return checks


_SUITES = {
    "relations": _suite_relations,
    "duality": _suite_duality,
    "metric": _suite_metric,
    "pattern": _suite_pattern,
    "prism": _suite_prism,
}


def cmd_verify(args) -> int:
    suite = args.suite
    if suite != "all" and suite not in _SUITES:
        raise ConfigError(f"unknown suite {suite!r} (use all|{'|'.join(_SUITES)})")
    rng = random.Random(20260816)
    names = list(_SUITES) if suite == "all" else [suite]
    checks = []
    for name in names:
        checks.extend(_SUITES[name](rng))
    passed = all(c["passed"] for c in checks)
    _emit(args.out, _dump_json({"command": "verify", "suite": suite, "passed": passed, "checks": checks}))
    return EXIT_OK if passed else EXIT_VERIFY


# --- argument parsing -----------------------------------------------------------------

def _add_common(sp, depth_default=0):
    sp.add_argument("--x", help="first parameter, rational p/q or decimal")
    sp.add_argument("--y", help="second parameter, rational p/q or decimal")
    sp.add_argument("--depth", type=int, default=depth_default, help="orbit depth")
    sp.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pappus",
        description="Marked-box orbits, Farey patterns of geodesics, and their exports.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("orbit", help="enumerate the two-sided box orbit")
    _add_common(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--workers", type=int, default=1, help="parallel expansion processes")
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("limitset", help="limit-set flags as svg or csv")
    _add_common(sp)
    sp.add_argument("--format", choices=("svg", "csv"), default="svg")
    sp.add_argument("--window", type=float, default=4.0, help="half width of the svg viewport")
    sp.add_argument("--workers", type=int, default=1, help="parallel expansion processes")
    sp.set_defaults(func=cmd_limitset)

    sp = sub.add_parser("pattern", help="geodesic pattern records as json")
    _add_common(sp)
    sp.add_argument("--distances", action="store_true", help="add pairwise minimum distances")
    sp.add_argument("--window", type=float, default=3.0, help="parameter window for sampling")
    sp.add_argument("--samples", type=int, default=15, help="samples per geodesic")
    sp.set_defaults(func=cmd_pattern)

    sp = sub.add_parser("charvar", help="grid of the orbit invariant")
    sp.add_argument("--grid", type=int, default=41, help="samples per axis")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=cmd_charvar)

    sp = sub.add_parser("prism", help="bending report (json, reads --depth) or cone mesh (obj)")
    # unset options stay out of the namespace, so cmd_prism can refuse
    # the ones the chosen format does not read
    _add_common(sp, depth_default=argparse.SUPPRESS)
    sp.add_argument("--format", choices=("json", "obj"), default="json")
    sp.add_argument("--cone", type=float, default=argparse.SUPPRESS,
                    help="obj only: apex offset along the symmetry axis (default 0)")
    sp.add_argument("--window", type=float, default=argparse.SUPPRESS,
                    help="obj only: parameter window for mesh sides (default 2)")
    sp.add_argument("--samples", type=int, default=argparse.SUPPRESS,
                    help="obj only: samples per mesh direction (default 9)")
    sp.set_defaults(func=cmd_prism)

    sp = sub.add_parser("verify", help="run identity suites")
    sp.add_argument("--suite", default="all", help="all|relations|duality|metric|pattern|prism")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=cmd_verify)
    return ap


def _end_process(code: int) -> None:
    """Flush stdout and stderr and leave at once: the interpreter's teardown (about 15 ms once
    numpy is loaded) frees nothing that the exit does not.  Output lost to a closed stdout
    exits 2, as an unwritable --out does."""
    try:
        sys.stdout.flush()
    except BrokenPipeError as exc:
        print(f"error: {_stdout_lost(exc)}", file=sys.stderr)
        code = EXIT_CONFIG
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.  As the process entry point (argv None: the
    console script, ``python -m pappus.cli``) it ends the process itself, --help and usage
    errors included, once its output is flushed."""
    # before numpy loads: OpenBLAS reads this once, and a pool for 3x3 work only spins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's --help and usage errors, with an int code
        if argv is not None:
            raise
        _end_process(exc.code or 0)
    try:
        _check_out(args.out)
        code = args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except PappusError as exc:
        print(f"geometry error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_GEOMETRY
    if argv is None:
        _end_process(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
