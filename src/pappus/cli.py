"""Command line front end: exports and the verification suite.

Subcommands:
  orbit     enumerate boxes of the two-sided orbit (csv or json)
  limitset  flag cloud of the limit set (svg or csv)
  pattern   geodesic pattern records (json), optional distance summary
  charvar   grid of the orbit invariant over the parameter square (csv)
  prism     bending report (json) or a sampled cone mesh (obj)
  verify    run the identity suites and report residuals (json)

Rational arguments like 3/10 keep the exact backend exact end to end;
decimal arguments route to floats with a warning.  Exit codes: 2 for an
invalid configuration, 3 for degenerate geometry, 1 for a failed
verification, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import random
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from .projective import (
    Flag,
    PappusError,
    ProjMap,
    is_elliptic,
    mat_det,
    standard_polarity,
)
from .markedbox import (
    MarkedBox,
    apply_word_box,
    box_polarity,
    box_triple_product,
    doppelganger,
    model_box,
    op_b,
    op_i,
    op_t,
    orbit_enumerate,
    polarity_box_to_dual,
    polarity_dual_to_box,
    raw_invariant,
)
# criterion 11 and the benchmark tests import the enumerator and the fold by these names
from .markedbox import _expand_chunk, orbit_enumerate as _orbit_rows
from .fareypattern import fold_limit_flags as _fold_limit_flags
from .symmspace import (
    FlagClass,
    XGeodesic,
    XPoint,
    boundary_ray_class,
    duality_action,
    geodesic_point,
    group_action,
    metric_d,
)
from .fareypattern import (
    build_pattern,
    base_box,
    geodesic_of_box,
    limit_set_flags,
    one_end_asymptotic,
    _pairwise_min,
)
from .prisms import (
    bending_report,
    cone_fill_sample,
    mesh_to_obj,
    prism_inflection_data,
    prism_of_triangle,
    translation_T,
    triple_invariant,
)

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


def _depth_cap() -> int:
    raw = os.environ.get("PAPPUS_MAX_DEPTH")
    if raw is None:
        return DEFAULT_MAX_DEPTH
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"PAPPUS_MAX_DEPTH is not an integer: {raw!r}") from None
    if cap < 0:
        raise ConfigError("PAPPUS_MAX_DEPTH must be nonnegative")
    return cap


@dataclass
class RunConfig:
    x: object = None
    y: object = None
    depth: int = 0
    backend: str = "exact"
    out: Optional[str] = None
    fmt: str = "json"


def _build_config(args, formats: Sequence[str], need_params: bool = True) -> RunConfig:
    cfg = RunConfig()
    if need_params:
        if args.x is None or args.y is None:
            raise ConfigError("--x and --y are required")
        x, x_exact = _parse_scalar(args.x)
        y, y_exact = _parse_scalar(args.y)
        backend = args.backend or ("exact" if x_exact and y_exact else "float")
        if backend not in ("exact", "float"):
            raise ConfigError(f"unknown backend {backend!r}")
        if backend == "exact":
            # Fraction(str) reads decimal strings exactly, so 0.3 -> 3/10
            x = x if x_exact else Fraction(args.x)
            y = y if y_exact else Fraction(args.y)
            if not (x_exact and y_exact):
                print("note: decimal input coerced to exact rational", file=sys.stderr)
        else:
            if not (x_exact or y_exact):
                print("warning: decimal input uses the float backend", file=sys.stderr)
            x, y = float(x), float(y)
        if not (0 < x < 1 and 0 < y < 1):
            raise ConfigError("x and y must lie strictly between 0 and 1")
        cfg.x, cfg.y, cfg.backend = x, y, backend
    depth = getattr(args, "depth", 0)
    cap = _depth_cap()
    if depth < 0 or depth > cap:
        raise ConfigError(f"depth must be in [0, {cap}]")
    cfg.depth = depth
    fmt = args.format
    if fmt not in formats:
        raise ConfigError(f"format {fmt!r} not supported here (use one of {', '.join(formats)})")
    cfg.fmt = fmt
    cfg.out = args.out
    return cfg


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_scalar(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _fmt_rational(r) -> str:
    return f"{r.n}/{r.d}"


def _jsonable_scalar(v):
    return str(v) if isinstance(v, Fraction) else float(v)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- orbit ----------------------------------------------------------------------

_COORD_NAMES = [f"{pt}{k}" for pt in "stuabc" for k in range(3)]


def _box_coords(m: MarkedBox):
    return [c for p in (m.s, m.t, m.u, m.a, m.b, m.c) for c in p.v]


def _check_positive(**options) -> None:
    for name, value in options.items():
        if not value > 0:
            raise ConfigError(f"--{name} must be positive, got {value}")


def cmd_orbit(args) -> int:
    cfg = _build_config(args, formats=("csv", "json"))
    workers = args.workers
    _check_positive(workers=workers)
    with (multiprocessing.Pool(workers) if workers > 1 else nullcontext()) as pool:
        boxes = orbit_enumerate(base_box(cfg.x, cfg.y), cfg.depth, pool, workers)
    if cfg.fmt == "csv":
        lines = ["word," + ",".join(_COORD_NAMES) + ",x,y"]
        for word, m in boxes:
            inv = raw_invariant(m)
            cells = [word or "-"] + [_fmt_scalar(c) for c in _box_coords(m)]
            cells += [_fmt_scalar(inv[0]), _fmt_scalar(inv[1])]
            lines.append(",".join(cells))
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        payload = {
            "command": "orbit",
            "x": _jsonable_scalar(cfg.x),
            "y": _jsonable_scalar(cfg.y),
            "depth": cfg.depth,
            "backend": cfg.backend,
            "boxes": [
                {
                    "word": word,
                    "coords": [_jsonable_scalar(c) for c in _box_coords(m)],
                    "invariant": [_jsonable_scalar(v) for v in raw_invariant(m)],
                }
                for word, m in boxes
            ],
        }
        _emit(cfg, _dump_json(payload))
    return EXIT_OK


# --- limit set -------------------------------------------------------------------

def _affine_point(flag: Flag, eps: float = 1e-12):
    x, y, z = (float(c) for c in flag.point.v)
    scale = max(abs(x), abs(y), abs(z))
    if abs(z) <= eps * scale:
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
        key=lambda ab: (ab[0][0] - ab[1][0]) ** 2 + (ab[0][1] - ab[1][1]) ** 2,
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
        coeffs = tuple(float(c) for c in lf.flag.line.v)
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
    cfg = _build_config(args, formats=("svg", "csv"))
    workers = args.workers
    _check_positive(window=args.window, workers=workers)
    with (multiprocessing.Pool(workers) if workers > 1 else nullcontext()) as pool:
        flags = limit_set_flags(cfg.x, cfg.y, cfg.depth, pool, workers)
    if cfg.fmt == "csv":
        lines = ["word,px,py,pz,lx,ly,lz,farey_tail,farey_head"]
        for lf in flags:
            cells = [lf.word or "-"]
            cells += [_fmt_scalar(c) for c in lf.flag.point.v]
            cells += [_fmt_scalar(c) for c in lf.flag.line.v]
            cells += [_fmt_rational(lf.edge.tail), _fmt_rational(lf.edge.head)]
            lines.append(",".join(cells))
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, _limitset_svg(flags, args.window))
    return EXIT_OK


# --- pattern ---------------------------------------------------------------------

def _flag_json(flag: Flag):
    return {
        "point": [_jsonable_scalar(c) for c in flag.point.v],
        "line": [_jsonable_scalar(c) for c in flag.line.v],
    }


def _matrix_json(m: np.ndarray):
    return [[float(v) for v in row] for row in np.asarray(m, dtype=float)]


def _distance_summary(pat, window: float, samples: int) -> Dict:
    geos = pat.geodesics
    taus = np.linspace(-window, window, samples)
    clouds = [
        [geodesic_point(g.geodesic, float(t)).m for t in taus] for g in geos
    ]
    pairs = []
    global_min = None
    for i in range(len(geos)):
        for j in range(i + 1, len(geos)):
            _, d = _pairwise_min(clouds[i], clouds[j])
            entry = {"words": [geos[i].word or "-", geos[j].word or "-"], "min": d}
            pairs.append(entry)
            if global_min is None or d < global_min["min"]:
                global_min = entry
    return {
        "window": window,
        "samples": samples,
        "pairs": pairs,
        "all_positive": all(p["min"] > 0 for p in pairs),
        "min": global_min,
    }


def cmd_pattern(args) -> int:
    cfg = _build_config(args, formats=("json",))
    _check_positive(window=args.window, samples=args.samples)
    pat = build_pattern(cfg.x, cfg.y, cfg.depth)
    records = []
    for g in pat.geodesics:
        e = pat.edge_of(g.word)
        records.append(
            {
                "word": g.word or "-",
                "farey": [_fmt_rational(e.tail), _fmt_rational(e.head)],
                "flat_basis": _matrix_json(g.flat.basis),
                "fixed_point": _matrix_json(g.fixed_point.m),
                "direction": _matrix_json(g.geodesic.direction),
                "top_flag": _flag_json(g.top),
                "bottom_flag": _flag_json(g.bottom),
            }
        )
    payload = {
        "command": "pattern",
        "x": _jsonable_scalar(cfg.x),
        "y": _jsonable_scalar(cfg.y),
        "depth": cfg.depth,
        "backend": cfg.backend,
        "geodesics": records,
    }
    if args.distances:
        payload["distances"] = _distance_summary(pat, args.window, args.samples)
    _emit(cfg, _dump_json(payload))
    return EXIT_OK


# --- character variety -------------------------------------------------------------

def cmd_charvar(args) -> int:
    cfg = _build_config(args, formats=("csv",), need_params=False)
    grid = args.grid
    _check_positive(grid=grid)
    lines = ["x,y,triple_invariant"]
    for i in range(1, grid + 1):
        for j in range(1, grid + 1):
            x = i / (grid + 1)
            y = j / (grid + 1)
            lines.append(f"{x!r},{y!r},{triple_invariant(x, y)!r}")
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


# --- prism reports -----------------------------------------------------------------

def cmd_prism(args) -> int:
    cfg = _build_config(args, formats=("json", "obj"))
    _check_positive(window=args.window, samples=args.samples)
    if cfg.fmt == "obj":
        if args.samples < 2:
            raise ConfigError("--samples must be at least 2 for the obj mesh")
        m = base_box(cfg.x, cfg.y)
        prism = prism_of_triangle(m)
        triangle = [geodesic_of_box(b).geodesic for b in prism.boxes]
        mesh = cone_fill_sample(prism, triangle, args.cone, args.samples, window=args.window)
        _emit(cfg, mesh_to_obj(mesh))
        return EXIT_OK
    report = bending_report(cfg.x, cfg.y, cfg.depth)
    payload = {"command": "prism", **report.as_dict()}
    _emit(cfg, _dump_json(payload))
    return EXIT_OK


# --- verification suites -------------------------------------------------------------

def _check(name: str, passed: bool, residual: Optional[float] = None, detail: str = "") -> Dict:
    rec = {"name": name, "passed": bool(passed)}
    if residual is not None:
        rec["residual"] = float(residual)
    if detail:
        rec["detail"] = detail
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
    inv = raw_invariant(m)
    expect = (1 - inv[1], inv[0])
    orbit_of = lambda p: {p, (1 - p[1], p[0]), (1 - p[0], 1 - p[1]), (p[1], 1 - p[0])}
    rec = all(raw_invariant(op(m)) == expect for op in (op_t, op_b))
    rec = rec and raw_invariant(op_i(m)) in orbit_of(expect)
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
        det = mat_det(delta.q)
        dets = dets and det == (p * p - 1) * (q * q - 1)
        definite = definite and is_elliptic(delta)
    checks.append(_check("duality.twelve_incidences_exact", incid))
    checks.append(_check("duality.det_closed_form", dets))
    checks.append(_check("duality.definite_on_convex_range", definite))
    return checks


def _random_sl3(rng: np.random.Generator) -> np.ndarray:
    while True:
        g = rng.normal(size=(3, 3))
        d = np.linalg.det(g)
        if abs(d) > 0.1:
            return g / np.cbrt(d)


def _random_spd(rng: np.random.Generator) -> XPoint:
    g = _random_sl3(rng)
    return XPoint(g @ g.T)


def _suite_metric(rng: random.Random) -> List[Dict]:
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
    checks = []
    pat = build_pattern(Fraction(3, 10), Fraction(2, 5), 2)
    worst_member = 0.0
    flags_ok = True
    for g in pat.geodesics:
        c = g.flat.basis.T @ g.fixed_point.m @ g.flat.basis
        off = math.sqrt(2.0 * (c[0, 1] ** 2 + c[0, 2] ** 2 + c[1, 2] ** 2))
        worst_member = max(worst_member, off / float(np.sqrt((c * c).sum())))
        fwd = boundary_ray_class(g.geodesic, 1)
        bwd = boundary_ray_class(g.geodesic, -1)
        flags_ok = flags_ok and isinstance(fwd, FlagClass) and isinstance(bwd, FlagClass)
        if flags_ok:
            flags_ok = (
                fwd.flag.point.same(g.bottom.point, 1e-6)
                and fwd.flag.line.same(g.bottom.line, 1e-6)
                and bwd.flag.point.same(g.top.point, 1e-6)
                and bwd.flag.line.same(g.top.line, 1e-6)
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
        for item in prism_inflection_data(prism):
            worst_col = max(worst_col, item.collinearity_residual)
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
    cfg = RunConfig(out=args.out)
    _emit(cfg, _dump_json({"command": "verify", "suite": suite, "passed": passed, "checks": checks}))
    return EXIT_OK if passed else EXIT_VERIFY


# --- argument parsing -----------------------------------------------------------------

def _add_common(sp, fmt_choices, default_fmt):
    sp.add_argument("--x", help="first parameter, rational p/q or decimal")
    sp.add_argument("--y", help="second parameter, rational p/q or decimal")
    sp.add_argument("--depth", type=int, default=0, help="orbit depth")
    sp.add_argument("--backend", choices=("exact", "float"), help="arithmetic backend")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.add_argument("--format", choices=fmt_choices, default=default_fmt)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pappus",
        description="Marked-box orbits, Farey patterns of geodesics, and their exports.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("orbit", help="enumerate the two-sided box orbit")
    _add_common(sp, ("csv", "json"), "csv")
    sp.add_argument("--workers", type=int, default=1, help="parallel expansion processes")
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("limitset", help="limit-set flags as svg or csv")
    _add_common(sp, ("svg", "csv"), "svg")
    sp.add_argument("--window", type=float, default=4.0, help="half width of the svg viewport")
    sp.add_argument("--workers", type=int, default=1, help="parallel expansion processes")
    sp.set_defaults(func=cmd_limitset)

    sp = sub.add_parser("pattern", help="geodesic pattern records as json")
    _add_common(sp, ("json",), "json")
    sp.add_argument("--distances", action="store_true", help="add pairwise minimum distances")
    sp.add_argument("--window", type=float, default=3.0, help="parameter window for sampling")
    sp.add_argument("--samples", type=int, default=15, help="samples per geodesic")
    sp.set_defaults(func=cmd_pattern)

    sp = sub.add_parser("charvar", help="grid of the orbit invariant")
    sp.add_argument("--grid", type=int, default=41, help="samples per axis")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv",), default="csv")
    sp.set_defaults(func=cmd_charvar)

    sp = sub.add_parser("prism", help="bending report (json) or cone mesh (obj)")
    _add_common(sp, ("json", "obj"), "json")
    sp.add_argument("--cone", type=float, default=0.0, help="apex offset along the symmetry axis")
    sp.add_argument("--window", type=float, default=2.0, help="parameter window for mesh sides")
    sp.add_argument("--samples", type=int, default=9, help="samples per mesh direction")
    sp.set_defaults(func=cmd_prism)

    sp = sub.add_parser("verify", help="run identity suites")
    sp.add_argument("--suite", default="all", help="all|relations|duality|metric|pattern|prism")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PappusError as exc:
        print(f"geometry error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY


if __name__ == "__main__":
    sys.exit(main())
