"""The exact layers stay free of floats: ``projective``, ``markedbox`` and
``fareycomb`` import neither numpy nor ``symmspace``, so floats enter the
package only for metric geometry in X.  The commands that read only the
exact layers start without numpy, the geometry modules, ``multiprocessing`` or
``dataclasses`` (and the ``inspect`` it loads), the geometry commands start
without ``dataclasses`` too, and a command that loads numpy runs its BLAS on
one thread unless told otherwise."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pappus

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pappus"

EXACT_LAYERS = ("projective.py", "markedbox.py", "fareycomb.py")
FORBIDDEN = {"numpy", "symmspace"}


def imported_modules(source: str):
    """Every module an import statement names, by its first dotted part:
    ``from .x import y`` names ``x``, and ``from . import y`` names ``y``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            out |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
    return out


def test_the_scan_finds_a_forbidden_import():
    assert imported_modules("import numpy.linalg\nfrom . import symmspace\n") == FORBIDDEN
    assert imported_modules("from numpy import eye\nfrom .symmspace import XPoint\n") == FORBIDDEN


@pytest.mark.parametrize("name", EXACT_LAYERS)
def test_exact_layer_imports_no_float_geometry(name):
    found = imported_modules((PACKAGE / name).read_text()) & FORBIDDEN
    assert not found, f"{name} imports {', '.join(sorted(found))}"


def test_no_module_imports_multiprocessing():
    # a walk split between processes forks its own children
    for path in PACKAGE.glob("*.py"):
        assert "multiprocessing" not in imported_modules(path.read_text()), path.name


# the geometry in X, multiprocessing (a split walk forks its own children), and the dataclass
# machinery (with the inspect module it loads) only the geometry records use
UNREAD = ("numpy", "pappus.symmspace", "pappus.fareypattern", "pappus.prisms", "multiprocessing",
          "dataclasses", "inspect")

COLD_START = """
import contextlib, io, json, sys
from pappus.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc == 0, (argv, rc)
print(json.dumps(sorted(set(json.loads(sys.argv[2])) & set(sys.modules))))
"""

EXACT_COMMANDS = [
    ["--help"],
    ["orbit", "--x", "3/10", "--y", "2/5", "--depth", "3"],
    # no level of this walk is wide enough to hand four workers rows
    ["orbit", "--x", "3/10", "--y", "2/5", "--depth", "2", "--workers", "4"],
    # this one splits its depth-3 level between two processes
    ["orbit", "--x", "3/10", "--y", "2/5", "--depth", "4", "--workers", "2"],
    ["orbit", "--x", "0.3", "--y", "0.4", "--depth", "3", "--format", "json"],
    ["limitset", "--x", "3/10", "--y", "2/5", "--depth", "3"],
    ["limitset", "--x", "17/41", "--y", "5/37", "--depth", "3", "--format", "csv"],
    ["charvar", "--grid", "3"],
]


def fresh_env():
    """This environment with the package on the path and no BLAS thread count set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


def test_exact_commands_start_without_numpy():
    run = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(EXACT_COMMANDS), json.dumps(UNREAD)],
        capture_output=True, text=True, env=fresh_env(), timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []


GEOMETRY_COMMANDS = [
    ["pattern", "--x", "3/10", "--y", "2/5", "--depth", "2", "--distances"],
    ["prism", "--x", "3/10", "--y", "2/5", "--depth", "2"],
    ["prism", "--x", "0.3", "--y", "0.4", "--format", "obj", "--samples", "3"],
    ["verify", "--suite", "all"],
]


def test_geometry_commands_start_without_dataclasses():
    # the geometry records are plain classes too; numpy loads inspect, not dataclasses
    run = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(GEOMETRY_COMMANDS),
         json.dumps(["dataclasses", "multiprocessing"])],
        capture_output=True, text=True, env=fresh_env(), timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []


BLAS_START = """
import contextlib, io, json, os, sys
from pappus.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["pattern", "--x", "3/10", "--y", "2/5", "--depth", "2"])
with open("/proc/self/status") as status:
    threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
print(json.dumps([rc, "numpy" in sys.modules, threads, os.environ["OPENBLAS_NUM_THREADS"]]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "preset"])
def test_geometry_commands_run_blas_on_one_thread_unless_told_otherwise(preset):
    env = fresh_env()
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    run = subprocess.run([sys.executable, "-c", BLAS_START], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    rc, numpy_loaded, threads, value = json.loads(run.stdout)
    assert rc == 0 and numpy_loaded
    if preset is None:
        # OpenBLAS started no helper pool beside the main thread
        assert (threads, value) == ("1", "1")
    else:
        assert value == preset


def test_importing_the_package_leaves_the_blas_threads_alone():
    probe = "import os, pappus; pappus.XPoint; import pappus.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=fresh_env(), timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "None"


# the names the package root exports, eagerly or on first access
ROOT_NAMES = """
    CoincidentLines CoincidentPoints DegenerateFlags DegenerateQuadruple Flag HomVec
    NonElliptic NotCollinear Polarity ProjLine ProjMap ProjPoint PappusError
    ProjectiveError SingularMap cross_ratio incident is_elliptic join meet
    standard_polarity triple_product DegenerateBox DualMarkedBox MarkedBox OutOfRange
    apply_word_box bottom_flag box_polarity box_triple_product doppelganger model_box
    op_b op_i op_t orbit_enumerate polarity_box_to_dual polarity_dual_to_box
    raw_invariant tb_tree
    top_flag INF FareyError NotAdjacent OrientedEdge Rational default_base_edge edge_b
    edge_i edge_t word_apply CollinearVertices ConvergenceFailure Flat
    NotPositiveDefinite NumericalFailure PointOffFlat
    SymmSpaceError XGeodesic XPoint ZeroDirection boundary_ray_class duality_action
    flat_from_triangle flat_geodesic geodesic_between geodesic_point group_action
    jacobi_eigh metric_d polarity_fixed_point FareyPattern LimitFlag PatternError
    PatternGeodesic base_box build_pattern flat_of_flags fold_limit_flags geodesic_of_box
    limit_set_flags min_distance_flats one_end_asymptotic pattern_boxes AdjacencyReport
    BendingReport ConeMesh ConsistencyFailure DegenerateTriple DiagonalLocus
    InflectionData Prism PrismError PrismReport UnityTripleProduct bending_report
    cone_fill_sample mesh_to_obj order3_axis order3_transform prism_inflection_data
    prism_of_triangle stabilizing_polarities translation_T triple_invariant
""".split()


def test_the_package_root_still_resolves_every_name():
    for name in ROOT_NAMES:
        value = getattr(pappus, name)
        # the object the defining module holds, not a copy
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_an_unknown_root_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pappus.no_such_name
