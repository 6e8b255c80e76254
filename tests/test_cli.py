"""Command line behavior: exit codes, formats, determinism, schema."""

import errno
import hashlib
import itertools
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pappus.cli import _coords, _distance_summary, _fmt_scalar, main
from pappus.markedbox import base_box, orbit_enumerate
from pappus.fareypattern import build_pattern
from pappus.symmspace import flat_distances, plane_log, relative_frames
from pappus.projective import HomVec
from sweep import sweep_pairs

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs" / "schema.json").read_text())


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("PAPPUS_MAX_DEPTH", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_orbit_json_shape_and_schema(capsys):
    code, out, _ = run(capsys, "orbit", "--x", "3/10", "--y", "2/5", "--depth", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["command"] == "orbit"
    assert doc["x"] == "3/10" and doc["backend"] == "exact"
    assert len(doc["boxes"]) == 14
    words = [b["word"] for b in doc["boxes"]]
    assert words[0] == "" and words[1] == "i"
    assert all(len(b["coords"]) == 18 for b in doc["boxes"])


def test_orbit_csv_header_and_rows(capsys):
    code, out, _ = run(capsys, "orbit", "--x", "3/10", "--y", "2/5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("word,s0,s1,s2,t0") and lines[0].endswith(",x,y")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "-"
    assert lines[2].split(",")[0] == "i"


def test_output_is_deterministic(capsys):
    _, a, _ = run(capsys, "orbit", "--x", "3/10", "--y", "2/5", "--depth", "3")
    _, b, _ = run(capsys, "orbit", "--x", "3/10", "--y", "2/5", "--depth", "3")
    assert a == b


def test_workers_do_not_change_the_bytes(capsys):
    base = ("--x", "3/10", "--y", "2/5", "--depth", "4")
    _, serial, _ = run(capsys, "orbit", *base, "--workers", "1")
    _, par, _ = run(capsys, "orbit", *base, "--workers", "2")
    assert serial == par
    _, svg1, _ = run(capsys, "limitset", *base, "--workers", "1")
    _, svg2, _ = run(capsys, "limitset", *base, "--workers", "2")
    assert svg1 == svg2
    # depth 5 has a 16-row level, so two workers reach pool.map on the one-root walk
    deep = ("--x", "3/10", "--y", "2/5", "--depth", "5")
    for fmt in ("svg", "csv"):
        _, out1, _ = run(capsys, "limitset", *deep, "--format", fmt, "--workers", "1")
        _, out2, _ = run(capsys, "limitset", *deep, "--format", fmt, "--workers", "2")
        assert out1 == out2


@pytest.mark.parametrize("xy", [("--x", "0.3", "--y", "0.4"), ("--x", "3/10", "--y", "0.4")])
def test_workers_do_not_change_the_float_bytes(capsys, xy):
    # depth 6 splits the walk for two and for three workers, in uneven chunks for three
    orbit = ("orbit", *xy, "--depth", "6")
    for argv in (orbit, ("limitset", *xy, "--depth", "6", "--format", "csv")):
        outs = [run(capsys, *argv, "--workers", w)[1] for w in ("1", "2", "3")]
        assert outs[0] and outs[1] == outs[0] and outs[2] == outs[0]


def test_the_walk_forks_only_where_it_splits(capsys, monkeypatch):
    real_fork, children = os.fork, []

    def counting_fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    xy = ("--x", "3/10", "--y", "2/5")
    # (argv, workers, children forked): the orbit walks from two roots and the
    # limit set from one, and w workers split a level of 8 w rows with
    # children, forking one process per chunk after the first
    cases = [
        (("orbit", *xy, "--depth", "2"), "4", 0),
        (("orbit", *xy, "--depth", "3"), "2", 0),
        (("orbit", *xy, "--depth", "4"), "2", 1),
        (("limitset", *xy, "--depth", "4"), "2", 0),
        (("limitset", *xy, "--depth", "5", "--format", "csv"), "2", 1),
    ]
    for argv, workers, forked in cases:
        _, serial, _ = run(capsys, *argv)
        children.clear()
        _, out, _ = run(capsys, *argv, "--workers", workers)
        assert len(children) == forked, argv
        assert out == serial


@pytest.mark.parametrize("workers", ["2", "3"])
def test_a_float_stop_in_a_split_walk_prints_the_serial_error(capsys, workers):
    # tbtbtbt, the first parent at (3/41, 6/41) whose children fail, falls in
    # the first chunk, which the forking process expands itself
    argv = ("orbit", "--x", repr(3 / 41), "--y", repr(6 / 41), "--depth", "8")
    serial = run(capsys, *argv)
    assert serial[0] == 3 and "DegenerateBox" in serial[2]
    assert run(capsys, *argv, "--workers", workers) == serial


def test_workers_above_one_need_fork(capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    argv = ("orbit", "--x", "3/10", "--y", "2/5", "--depth", "4")
    code, out, err = run(capsys, *argv, "--workers", "2")
    assert (code, out) == (2, "")
    assert err == "error: --workers 2 needs os.fork, which this platform lacks\n"
    assert run(capsys, "limitset", *argv[1:], "--workers", "2")[0] == 2
    assert run(capsys, *argv, "--workers", "1")[0] == 0


# SHA-256 of stdout, pinned before exact coordinates became integer triples;
# the exact arithmetic may change, the bytes it prints may not
PINNED_OUTPUTS = {
    ("orbit", "--x", "3/10", "--y", "2/5", "--depth", "5"):
        "6fe53cd70201b8dc3c61bd802a121c066d4bde4c9de9e7c4d395a36b0745725b",
    ("orbit", "--x", "3/10", "--y", "2/5", "--depth", "5", "--format", "json"):
        "21f074d3fca43d268c3be5787b1aef7501ec174de1ab85c1bf40c42ab8b3134e",
    ("limitset", "--x", "17/41", "--y", "5/37", "--depth", "5", "--format", "csv"):
        "72c3705e4e5accbc51f9d8c8ca3b88019fcfcd4add35dafb8355990a0bde5bef",
    ("pattern", "--x", "3/10", "--y", "2/5", "--depth", "3"):
        "683c60963384ffe151b58c61e9f8d499b1bf3d1d37abbe99c734e154c9cb8a9e",
    # this and the tall pair's prism report below re-pinned when the report
    # came to read each flat's inflection and medial points off the exact
    # diagonal of the polarities in the flat's vertex frame: their numbers
    # moved by at most 1.7e-14 here and 1.0e-11 there, toward the exact values
    ("prism", "--x", "3/10", "--y", "2/5", "--depth", "2"):
        "c3a78309a1050757062fb1691a095bb44834226ac75a8eb51b764feffb7c7770",
    # float-backend, obj, distances and verify outputs, pinned before the
    # per-call thresholds became module constants; verify re-pinned when the
    # float swap polarities became a closed formula, which moved its one
    # float-prism residual, prism.collinearity_residual, from 1.2e-14 to 3.9e-15,
    # again when the box polarity did, which moved it to 3.4e-15, and again
    # when the report read the flats' diagonals, which moved it to 4.8e-15
    ("verify", "--suite", "all"):
        "93e181837e3f9ef35bb021f61d0e9d0dff3b0c474de6ba4f77fdd8d24d894e8a",
    # re-pinned when the order-3 axis came in closed form and its direction
    # came to be read in the center's own frame: the cone apex at --cone 0.3
    # moved onto the axis, and vertices by at most 0.095
    ("prism", "--x", "3/10", "--y", "2/5", "--format", "obj", "--cone", "0.3", "--samples", "24"):
        "e03ec7a6c91cdfd2aa1b045ff61ed630540c480cc711bd7de8918a7a4d219f3a",
    ("pattern", "--x", "3/10", "--y", "2/5", "--depth", "2", "--distances"):
        "f367099f249d5682d6b24bf5a379777cc0769fc207c86c69bb04dbbff2dda297",
    # this and the mixed-input json orbit below re-pinned when each row's
    # invariant pair came to be read off its word: a float row now prints the
    # exact rotation of its inputs rounded once, not a pair measured on the
    # drifted float box; the pairs moved by at most 5.1e-14 here, 9.1e-15 there
    ("orbit", "--depth", "5", "--x", "0.3", "--y", "0.4"):
        "ffb026e7ab8ff7eee299161dd17cc45333440462cffef887e3a41fc81aaa89b9",
    ("limitset", "--x", "3/10", "--y", "2/5", "--depth", "5"):
        "e8dfe1b19435bae34595e6b09eec628082dac55f752a9052c96cb6ae140e7a41",
    ("charvar", "--grid", "5"):
        "b315ff3cdc0a167c34161dab670298f1ce665a96e9d9499a3740169126556dd7",
    # a p/q next to a decimal runs on the float backend, as two decimals do
    ("orbit", "--x", "3/10", "--y", "0.4", "--format", "json", "--depth", "3"):
        "b32e65bb4fde36bdc7f5afb6465eb62e0ce94aae7984f39e456e009c3f81be38",
    # re-pinned when the box polarity became a closed formula on the corner
    # triples: its float numbers moved by at most 3.5e-14
    ("pattern", "--x", "0.3", "--y", "0.4", "--depth", "2"):
        "1554e2f5d98f33c0b96f0316603de247a0f4edf8a1525c24b937ea66923d22e9",
    # exact prism and pattern at the tall pair, pinned before the swap
    # polarities became a closed formula and the printer read the int triple;
    # the prism report re-pinned with the one at (3/10, 2/5) above
    ("prism", "--x", "17/41", "--y", "5/37", "--depth", "3"):
        "067940faf0865b31e90706642fd655f7e83c4097dc8924759f2739e3981128ee",
    ("pattern", "--x", "17/41", "--y", "5/37", "--depth", "4"):
        "c050f40250e296543f5d5bec381ee19409eeedd04db05a33aa08bacc0ef60708",
    # the float joins and meets through depth 10, pinned before they were
    # written out entry by entry
    ("limitset", "--format", "csv", "--x", "0.3", "--y", "0.4", "--depth", "10"):
        "7589891c892a5f9cf37c3e152d0e41ed6cb08acf5f02354ea17e63f7f42b10b4",
    # deeper exact orbits, csv at the tall pair and json at the canonical one,
    # pinned while every row's invariant pair was still measured by two cross
    # ratios on its box
    ("orbit", "--x", "17/41", "--y", "5/37", "--depth", "8"):
        "eca03491d608b65c5e54ffeebe96ac017269c3769f8c7dcc3f9648f2cb51bc06",
    ("orbit", "--x", "3/10", "--y", "2/5", "--format", "json", "--depth", "6"):
        "2f488da77aa945da814414a9c2fd6bd1f97a0ae749f5a950898dca48b140e94e",
    # a float prism report, a deeper exact one and a float cone mesh, pinned
    # before each prism's flats were built from its flags; the float report
    # re-pinned when a float child prism came to read its shared flat through
    # its parent's box polarity, as an exact one does: 59 of its 279 numbers
    # moved, by at most 1.4e-13
    ("prism", "--x", "0.3", "--y", "0.4", "--depth", "4"):
        "0ab0958fecb46398a36233ae9dc2140189a260f2aed6bfc5f3d8c7ab7eb0bc7e",
    ("prism", "--x", "3/10", "--y", "2/5", "--depth", "5"):
        "0588a459e440f95b5b6b92590b2182462bc32da24510fe29894deea5a4cc5d70",
    # the mesh re-pinned when the order-3 map came to be the product of two
    # swap polarities: 2 of 438 lines moved, by at most 1.0e-11, and the axis
    # moved toward its 60-digit reference
    ("prism", "--x", "0.3", "--y", "0.4", "--format", "obj", "--cone", "-0.2", "--samples", "9"):
        "fc7059d70d41ff680674752d3c8f9b2f86e83a4c5caf467895f87a8a5f5f231b",
    # the benchmark's float-geometry sizes, pinned before the distance summary
    # pruned by a norm bound and the cone mesh and Jacobi dropped their
    # per-call overhead; the prism's options are reordered for a free test id
    ("pattern", "--x", "3/10", "--y", "2/5", "--depth", "5", "--distances"):
        "3494a44e036dcea530abf4b3db4256ee4cc7ec93a68cd139e1b2165a79b591b6",
    ("pattern", "--x", "3/10", "--y", "2/5", "--depth", "6"):
        "7de5263cf5a0e80f48987abdec32d2172a50619c6a61e7e8e1f75faa778c76cd",
    ("prism", "--depth", "4", "--x", "3/10", "--y", "2/5"):
        "e82f3c7f0f58c73015c89d6d335948b3768c3766a874b7024a44d87d5ef70708",
    ("pattern", "--x", "17/41", "--y", "5/37", "--depth", "4", "--distances"):
        "9a9f13e9bf39cfb9132ad9e2bacdb105d3bb56a72425d4563ad6d8ccd5450055",
}

# a test id is the command and its last option; other changes refer to the
# tests by id, so an entry whose id is taken must order its options differently
PIN_IDS = ["-".join(argv[:1] + argv[-2:]) for argv in PINNED_OUTPUTS]
assert len(set(PIN_IDS)) == len(PIN_IDS), "two pinned commands share a test id"


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS), ids=PIN_IDS)
def test_output_bytes_match_pinned_hashes(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[argv]


BLAS_BYTES = """
import contextlib, hashlib, io, json, sys
from pappus.cli import main
hashes = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    hashes.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
print(json.dumps(hashes))
"""


def env_with_src():
    """This environment with the package's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                                                    env.get("PYTHONPATH")) if p)
    return env


def test_blas_threads_do_not_change_the_bytes():
    argvs = [["pattern", "--x", "3/10", "--y", "2/5", "--depth", "4", "--distances"],
             ["prism", "--x", "3/10", "--y", "2/5", "--depth", "4"]]
    env = env_with_src()
    hashes = {}
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", BLAS_BYTES, json.dumps(argvs)],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        hashes[threads] = json.loads(run.stdout)
    assert hashes["1"] == hashes["2"]


def test_a_cone_mesh_sample_out_of_range_is_a_numerical_failure():
    # a window of 1000 takes exp(-2 tau w) past the float range; numpy warns on the
    # way, which this suite makes an error, so the command runs in its own process
    argv = ["prism", "--x", "3/10", "--y", "2/5", "--format", "obj", "--window", "1000"]
    run = subprocess.run([sys.executable, "-m", "pappus.cli", *argv],
                         capture_output=True, text=True, env=env_with_src(), timeout=60)
    assert run.returncode == 3 and run.stdout == ""
    assert run.stderr.endswith("geometry error: NumericalFailure: matrix is not finite at unit determinant\n")


def test_float_orbit_rows_print_the_exact_rotation_rounded_once(capsys):
    # the pair is read off the word, so no row carries the float walk's drift
    xy = ("--x", "0.3", "--y", "0.4", "--depth", "10")
    x, y = Fraction(0.3), Fraction(0.4)
    expect = [(float(u), float(v)) for u, v in ((x, y), (1 - y, x), (1 - x, 1 - y), (y, 1 - x))]
    _, out, _ = run(capsys, "orbit", *xy)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    _, doc, _ = run(capsys, "orbit", *xy, "--format", "json")
    boxes = json.loads(doc)["boxes"]
    assert len(rows) == len(boxes) == 2 ** 12 - 2
    for cells, box in zip(rows, boxes):
        word = box["word"]
        assert cells[0] == (word or "-")
        pair = expect[(len(word) - 2 * word.count("i")) % 4]
        assert (float(cells[-2]), float(cells[-1])) == tuple(box["invariant"]) == pair


@given(st.tuples(*[st.integers(-10**30, 10**30)] * 3))
@settings(deadline=None, max_examples=200)
def test_exact_coordinates_print_as_their_fractions(t):
    assume(any(t))
    h = HomVec(t)
    first = next(n for n in h.v if n)
    assert _coords(h) == [str(Fraction(n, first)) for n in h.v]


def test_limitset_svg_is_wellformed_xml(capsys):
    code, out, _ = run(capsys, "limitset", "--x", "3/10", "--y", "2/5", "--depth", "3")
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")
    circles = root.iter("{http://www.w3.org/2000/svg}circle")
    # 9 flags at depth 3, but one flag point lies on the chart's infinity line
    assert len(list(circles)) == 2 ** 3


def test_limitset_csv_columns(capsys):
    code, out, _ = run(capsys, "limitset", "--x", "3/10", "--y", "2/5",
                       "--depth", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "word,px,py,pz,lx,ly,lz,farey_tail,farey_head"
    assert len(lines) == 1 + (2 ** 2 + 1)


def test_pattern_json_roundtrip_and_schema(capsys):
    code, out, _ = run(capsys, "pattern", "--x", "3/10", "--y", "2/5",
                       "--depth", "1", "--distances")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert len(doc["geodesics"]) == 3
    assert doc["distances"]["all_positive"] is True


CANONICAL = (Fraction(3, 10), Fraction(2, 5))


@pytest.mark.parametrize("xy, samples, window", [
    (CANONICAL, 15, 3.0),
    ((Fraction(17, 41), Fraction(5, 37)), 15, 3.0),
    ((0.3, 0.4), 15, 3.0),
    (CANONICAL, 2, 3.0),
    (CANONICAL, 3, 3.0),
    (CANONICAL, 40, 3.0),
    (CANONICAL, 15, 0.5),
    (CANONICAL, 15, 7.0),
], ids=["canonical", "tall", "float", "samples2", "samples3", "samples40", "window0.5", "window7"])
def test_distance_summary_minima_are_the_full_grid_minima(xy, samples, window):
    # the summary skips the samples the triangle inequality rules out; every
    # minimum must still be the same float as over the whole grid
    pat = build_pattern(*xy, 4)
    line = plane_log(np.linspace(-window, window, samples), 0.0)
    full = [([ga.word or "-", gb.word or "-"],
             float(flat_distances(relative_frames(ga.flat, [gb.flat])[0],
                                  ga.fixed_log + line, gb.fixed_log + line).min()))
            for ga, gb in itertools.combinations(pat.geodesics, 2)]
    summary = _distance_summary(pat, window, samples)
    assert [(p["words"], p["min"]) for p in summary["pairs"]] == full


def test_distances_beyond_float_range_exit_three(capsys):
    code, out, err = run(capsys, "pattern", "--x", "3/10", "--y", "2/5", "--depth", "4",
                         "--distances", "--window", "1000")
    assert code == 3 and out == ""
    assert ("NumericalFailure: singular values of the flats' relative frame "
            "not finite and positive") in err


def test_prism_json_schema(capsys):
    code, out, _ = run(capsys, "prism", "--x", "3/10", "--y", "2/5", "--depth", "1")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert len(doc["prisms"]) == 3
    assert len(doc["adjacent_pairs"]) == 2


def _numbers(doc):
    if isinstance(doc, dict):
        return [n for k in sorted(doc) for n in _numbers(doc[k])]
    if isinstance(doc, list):
        return [n for item in doc for n in _numbers(item)]
    return [doc] if isinstance(doc, float) else []


def test_float_prism_report_matches_the_exact_one(capsys):
    # 3/8 and 9/16 are floats exactly, so the two backends answer the same question
    _, exact, _ = run(capsys, "prism", "--x", "3/8", "--y", "9/16", "--depth", "4")
    _, floating, _ = run(capsys, "prism", "--x", "0.375", "--y", "0.5625", "--depth", "4")
    a, b = _numbers(json.loads(exact)), _numbers(json.loads(floating))
    assert len(a) == len(b) > 200
    assert max(abs(u - v) for u, v in zip(a, b)) < 1e-12


def test_float_pattern_matches_the_exact_one(capsys):
    # the geodesics' numbers in X; flags print as fractions on one backend
    # and as unit vectors on the other, so they are left out
    _, exact, _ = run(capsys, "pattern", "--x", "3/8", "--y", "9/16", "--depth", "4")
    _, floating, _ = run(capsys, "pattern", "--x", "0.375", "--y", "0.5625", "--depth", "4")
    a, b = ([_numbers({k: g[k] for k in ("direction", "fixed_point", "flat_basis")})
             for g in json.loads(out)["geodesics"]] for out in (exact, floating))
    assert len(a) == len(b) == 2 ** 5 - 1
    u, v = sum(a, []), sum(b, [])
    assert len(u) == len(v) > 800
    assert max(abs(s - t) for s, t in zip(u, v)) < 1e-11


def test_prism_obj_mesh(capsys):
    code, out, _ = run(capsys, "prism", "--x", "3/10", "--y", "2/5",
                       "--cone", "0.3", "--samples", "4", "--format", "obj")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("#")
    assert sum(1 for l in lines if l.startswith("f ")) == 3 * 9


@pytest.mark.parametrize("x, y", sweep_pairs(), ids=lambda v: str(v).replace("/", "_"))
def test_prism_obj_mesh_on_the_whole_square_sweep(capsys, x, y):
    assert run(capsys, "prism", "--x", str(x), "--y", str(y), "--format", "obj", "--samples", "3")[0] == 0


def test_verify_suite_passes_and_validates(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "relations")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_charvar_grid(capsys):
    code, out, _ = run(capsys, "charvar", "--grid", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,triple_invariant"
    assert len(lines) == 1 + 25
    table = {}
    for line in lines[1:]:
        xs, ys, vs = line.split(",")
        i, j = round(float(xs) * 6), round(float(ys) * 6)
        table[(i, j)] = float(vs)
    assert table[(3, 3)] == 0.0
    for (i, j), v in table.items():
        # quarter rotation (x, y) -> (1 - y, x) permutes the grid
        assert table[(6 - j, i)] == pytest.approx(v, abs=1e-12)


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "orbit.csv"
    code, out, _ = run(capsys, "orbit", "--x", "3/10", "--y", "2/5",
                       "--out", str(target))
    assert code == 0 and out == ""
    _, stdout, _ = run(capsys, "orbit", "--x", "3/10", "--y", "2/5")
    assert target.read_text() == stdout


@pytest.mark.parametrize("argv, path, errno_", [
    (("orbit", "--x", "3/10", "--y", "2/5", "--depth", "2"), "missing/x.csv", errno.ENOENT),
    (("verify", "--suite", "duality"), ".", errno.EISDIR),
], ids=["missing-directory", "a-directory"])
def test_an_out_path_that_cannot_be_written_exits_two(tmp_path, capsys, argv, path, errno_):
    target = tmp_path / path
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {target}: {os.strerror(errno_)}\n"


@pytest.mark.parametrize("path, errno_", [("missing/x.json", errno.ENOENT), (".", errno.EISDIR)],
                         ids=["missing-directory", "a-directory"])
def test_an_out_path_that_cannot_be_written_is_refused_before_the_work(tmp_path, capsys, monkeypatch,
                                                                      path, errno_):
    def not_called(*args):
        raise AssertionError("the report ran before --out was checked")

    monkeypatch.setattr("pappus.prisms.bending_report", not_called)
    target = tmp_path / path
    code, out, err = run(capsys, "prism", "--x", "3/10", "--y", "2/5", "--depth", "10", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {target}: {os.strerror(errno_)}\n"


def test_a_failed_command_leaves_an_existing_out_file_as_it_was(tmp_path, capsys):
    # the file is opened only once the output is made
    target = tmp_path / "report.json"
    target.write_bytes(b"earlier bytes\n")
    code, _, err = run(capsys, "prism", "--x", "1/2", "--y", "1/2", "--out", str(target))
    assert code == 3 and err.startswith("geometry error: ")
    assert target.read_bytes() == b"earlier bytes\n"


CONSOLE = "import sys\nfrom pappus.cli import main\nsys.exit(main())\n"


def test_a_closed_stdout_exits_two_without_a_traceback():
    # the reader is gone before the first write: the command says so and exits 2,
    # as an unwritable --out does, and the final flush does not raise again
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-c", CONSOLE, "orbit", "--x", "3/10", "--y", "2/5", "--depth", "8"],
                              stdout=write, stderr=subprocess.PIPE, text=True, env=env_with_src(), timeout=60)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr == "error: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize("argv", [
    ("orbit", "--x", "3/10", "--y", "2/5", "--depth", "3"),
    ("pattern", "--x", "3/10", "--y", "2/5", "--depth", "2", "--distances"),
    ("prism", "--x", "1/2", "--y", "1/2"),
    ("--help",),
    ("limitset", "--x", "3/10", "--y", "2/5", "--depth", "3", "--out", "OUT"),
], ids=["orbit", "pattern-distances", "prism-exit-3", "help", "out-file"])
def test_the_console_entry_point_ends_the_process_with_the_same_output(tmp_path, capsys, monkeypatch, argv):
    # as the entry point main() flushes and leaves through os._exit; called with argv it
    # returns, and the bytes, the messages and the exit code are the same either way
    monkeypatch.setenv("COLUMNS", "80")  # the width --help wraps at, in both processes
    out_file = tmp_path / "console.out"
    argv = [str(out_file) if a == "OUT" else a for a in argv]
    done = subprocess.run([sys.executable, "-c", CONSOLE, *argv], capture_output=True, env=env_with_src(),
                          timeout=60)
    console = (done.returncode, done.stdout, done.stderr.decode(), out_file.read_bytes() if "--out" in argv else None)
    out_file.unlink(missing_ok=True)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse ends --help with SystemExit, as it always has
        code = exc.code
    cap = capsys.readouterr()
    inproc = (code, cap.out.encode(), cap.err, out_file.read_bytes() if "--out" in argv else None)
    assert console == inproc


def test_main_with_argv_returns_to_its_caller():
    script = "import sys\nfrom pappus.cli import main\nprint('returned', main(sys.argv[1:]))\n"
    done = subprocess.run([sys.executable, "-c", script, "orbit", "--x", "3/10", "--y", "2/5", "--depth", "1"],
                          capture_output=True, text=True, env=env_with_src(), timeout=60)
    assert done.returncode == 0
    assert done.stdout.endswith("returned 0\n")


@pytest.mark.parametrize("xy, depth", [(("--x", "3/10", "--y", "2/5"), "9"),
                                       (("--x", "0.3", "--y", "0.4"), "10")], ids=["exact", "float"])
def test_chunked_orbit_csv_is_the_same_on_file_and_stdout(tmp_path, capsys, xy, depth):
    # 2046 and 4094 rows: several chunks of the csv writer
    target = tmp_path / "orbit.csv"
    code, out, _ = run(capsys, "orbit", *xy, "--depth", depth, "--out", str(target))
    assert code == 0 and out == ""
    _, stdout, _ = run(capsys, "orbit", *xy, "--depth", depth)
    assert target.read_bytes() == stdout.encode()
    # each row prints every point from its own coordinates
    rows = [line.split(",") for line in stdout.splitlines()[1:]]
    assert len(rows) == 2 ** (int(depth) + 2) - 2
    x, y = (Fraction(v) if "/" in v else float(v) for v in xy[1::2])
    for cells, (word, m) in zip(rows, orbit_enumerate(base_box(x, y), int(depth))):
        assert cells[0] == (word or "-")
        assert cells[1:19] == [_fmt_scalar(c) for p in m.sextuple() for c in _coords(p)]


def test_a_float_orbit_that_stops_prints_nothing(tmp_path, capsys):
    # (3/41, 6/41) in decimals stops on DegenerateBox below depth 10
    target = tmp_path / "orbit.csv"
    xy = ("--x", "0.07317073170731707", "--y", "0.14634146341463414")
    code, out, err = run(capsys, "orbit", *xy, "--depth", "10")
    assert code == 3 and out == "" and "top and bottom edges lie on one line" in err
    assert run(capsys, "orbit", *xy, "--depth", "10", "--out", str(target))[0] == 3
    assert not target.exists()


def test_decimal_input_defaults_to_float_with_warning(capsys):
    code, out, err = run(capsys, "orbit", "--x", "0.3", "--y", "0.4",
                         "--format", "json")
    assert code == 0
    assert "float backend" in err
    doc = json.loads(out)
    assert doc["backend"] == "float"
    assert isinstance(doc["x"], float)


def test_config_errors_exit_two(capsys):
    assert run(capsys, "orbit", "--y", "2/5")[0] == 2
    assert run(capsys, "orbit", "--x", "0", "--y", "2/5")[0] == 2
    assert run(capsys, "orbit", "--x", "3/10", "--y", "2/5", "--depth", "17")[0] == 2
    assert run(capsys, "orbit", "--x", "3/10", "--y", "2/5", "--workers", "0")[0] == 2
    assert run(capsys, "verify", "--suite", "nonsense")[0] == 2
    xy = ("--x", "3/10", "--y", "2/5")
    for argv in (
        ("charvar", "--grid", "0"),
        ("limitset", *xy, "--window", "0"),
        ("limitset", *xy, "--window", "-1"),
        ("pattern", *xy, "--distances", "--samples", "0"),
        ("pattern", *xy, "--distances", "--samples", "1"),
        ("pattern", *xy, "--distances", "--samples", "-3"),
        ("pattern", *xy, "--distances", "--window", "0"),
        ("prism", *xy, "--format", "obj", "--samples", "1"),
        ("prism", *xy, "--format", "obj", "--window", "0"),
        # each prism format refuses the options only the other one reads
        ("prism", *xy, "--cone", "0.3"),
        ("prism", *xy, "--samples", "5"),
        ("prism", *xy, "--depth", "1", "--window", "1"),
        ("prism", *xy, "--format", "obj", "--depth", "1"),
        ("prism", *xy, "--format", "obj", "--depth", "0", "--cone", "0.3"),
    ):
        assert run(capsys, *argv)[0] == 2, argv
    # the spelling of --x/--y picks the backend, so there is no --backend;
    # pattern prints json and charvar csv, so neither takes --format
    for argv in (
        ("orbit", *xy, "--tol", "1e-9"),
        ("orbit", *xy, "--backend", "exact"),
        ("pattern", *xy, "--format", "json"),
        ("charvar", "--format", "csv"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv, option", [
    (("limitset", "--depth", "2", "--window", "inf"), "--window"),
    (("pattern", "--distances", "--window", "inf"), "--window"),
    (("prism", "--format", "obj", "--cone", "nan"), "--cone"),
    (("prism", "--format", "obj", "--window", "inf"), "--window"),
], ids=["limitset-window", "pattern-window", "prism-cone", "prism-window"])
def test_non_finite_options_exit_two(capsys, argv, option):
    code, out, err = run(capsys, *argv, "--x", "3/10", "--y", "2/5")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {option} must be"), err


def test_limitset_window_up_to_half_the_largest_float(capsys):
    # the svg spans 2 window; a segment's length is compared without squaring
    xy = ("--x", "3/10", "--y", "2/5", "--depth", "2")
    code, out, _ = run(capsys, "limitset", *xy, "--window", "1e200")
    assert code == 0 and "inf" not in out and "nan" not in out
    assert out.count("<line") == 4
    ET.fromstring(out)
    code, out, err = run(capsys, "limitset", *xy, "--window", "1e308")
    assert (code, out) == (2, "")
    assert err.startswith("error: --window must be"), err


def test_geometry_errors_exit_three(capsys):
    code, _, err = run(capsys, "prism", "--x", "1/2", "--y", "1/2")
    assert code == 3
    assert "geometry error" in err


def test_depth_cap_env_override(monkeypatch, capsys):
    monkeypatch.setenv("PAPPUS_MAX_DEPTH", "3")
    ok = run(capsys, "orbit", "--x", "3/10", "--y", "2/5", "--depth", "3")
    assert ok[0] == 0
    over = run(capsys, "orbit", "--x", "3/10", "--y", "2/5", "--depth", "4")
    assert over[0] == 2
    monkeypatch.setenv("PAPPUS_MAX_DEPTH", "soup")
    assert run(capsys, "orbit", "--x", "3/10", "--y", "2/5")[0] == 2
    # charvar and the obj mesh read no depth, so they do not read the cap either
    assert run(capsys, "charvar", "--grid", "2")[0] == 0
    monkeypatch.setenv("PAPPUS_MAX_DEPTH", "-1")
    xy = ("--x", "3/10", "--y", "2/5")
    assert run(capsys, "prism", *xy, "--format", "obj", "--samples", "2")[0] == 0
    assert run(capsys, "prism", *xy)[0] == 2
    assert run(capsys, "prism", *xy, "--depth", "0")[0] == 2
