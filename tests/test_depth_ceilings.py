"""Depth ceilings: runs that stop, or used to stop, short of the depth cap.

Each case is a command at the first depth where a float check stops or
used to stop it, run through ``cli.main`` in-process.  The float
``orbit`` and ``limitset`` runs stopped on an absolute collinearity
threshold and pass now.  The rest are strict xfails, so the exact
certificates that replace their float tests have to flip them: the
``prism`` runs stop on the fixed-point residual in ``inflection_point``
(which holds the flat's off-diagonal form to about 1e-10), the
``pattern`` runs on the float on-flat test in ``geodesic_of_box``.
"""

import json

import pytest

from pappus.cli import main

# 17/41 and 5/37 in their shortest decimal spelling, i.e. the float backend
TALL_FLOAT = ("--x", repr(17 / 41), "--y", repr(5 / 37))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("PAPPUS_MAX_DEPTH", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_float_orbit_reaches_depth_eleven(capsys):
    out = run(capsys, "orbit", "--x", "0.3", "--y", "0.4", "--depth", "11")
    lines = out.splitlines()
    assert lines[0].startswith("word,")
    assert len(lines) - 1 == 2 ** 13 - 2


def test_tall_float_limitset_reaches_depth_ten(capsys):
    floating = run(capsys, "limitset", *TALL_FLOAT, "--depth", "10")
    exact = run(capsys, "limitset", "--x", "17/41", "--y", "5/37", "--depth", "10")
    # one circle per flag off the chart's infinity line, on either backend
    assert floating.count("<circle") == exact.count("<circle") > 2 ** 9


@pytest.mark.xfail(strict=True, reason="NoFixedPointInFlat: the fixed-point residual in inflection_point")
@pytest.mark.parametrize("xy, depth", [
    (("--x", "3/10", "--y", "2/5"), 5),
    (("--x", "3/10", "--y", "5/14"), 4),
], ids=["prism_d5", "prism_d4_corner"])
def test_prism_report_reaches_depth(capsys, xy, depth):
    doc = json.loads(run(capsys, "prism", *xy, "--depth", str(depth)))
    assert len(doc["prisms"]) == 2 ** (depth + 1) - 1
    assert len(doc["adjacent_pairs"]) == 2 ** (depth + 1) - 2


@pytest.mark.xfail(strict=True, reason="FixedPointOffFlat: the float on-flat test in geodesic_of_box")
@pytest.mark.parametrize("xy, depth", [
    (("--x", "3/10", "--y", "2/5"), 7),
    (("--x", "17/41", "--y", "5/37"), 7),
    (("--x", "17/41", "--y", "5/37"), 6),
], ids=["pattern_d7", "pattern_d7_tall", "pattern_d6_tall"])
def test_pattern_reaches_depth(capsys, xy, depth):
    doc = json.loads(run(capsys, "pattern", *xy, "--depth", str(depth)))
    assert len(doc["geodesics"]) == 2 ** (depth + 1) - 1
