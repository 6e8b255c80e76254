"""Command line behavior: exit codes, formats, determinism, schema."""

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import pytest

from pappus.cli import main

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


def test_prism_json_schema(capsys):
    code, out, _ = run(capsys, "prism", "--x", "3/10", "--y", "2/5", "--depth", "1")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert len(doc["prisms"]) == 3
    assert len(doc["adjacent_pairs"]) == 2


def test_prism_obj_mesh(capsys):
    code, out, _ = run(capsys, "prism", "--x", "3/10", "--y", "2/5",
                       "--cone", "0.3", "--samples", "4", "--format", "obj")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("#")
    assert sum(1 for l in lines if l.startswith("f ")) == 3 * 9


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


def test_decimal_input_coerces_to_exact_with_note(capsys):
    code, out, err = run(capsys, "orbit", "--x", "0.3", "--y", "0.4",
                         "--backend", "exact", "--format", "json")
    assert code == 0
    assert "coerced to exact" in err
    doc = json.loads(out)
    assert doc["x"] == "3/10" and doc["y"] == "2/5"


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
        ("pattern", *xy, "--distances", "--samples", "-3"),
        ("pattern", *xy, "--distances", "--window", "0"),
        ("prism", *xy, "--format", "obj", "--samples", "1"),
        ("prism", *xy, "--format", "obj", "--window", "0"),
    ):
        assert run(capsys, *argv)[0] == 2, argv
    with pytest.raises(SystemExit) as exc:
        run(capsys, "orbit", "--x", "3/10", "--y", "2/5", "--tol", "1e-9")
    assert exc.value.code == 2


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
