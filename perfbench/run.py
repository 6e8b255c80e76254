"""Layered benchmark for pappus.

    python3 perfbench/run.py --workload exact-enum --seed 0 --seconds 35 --trace 0

With ``--trace 0`` each operation of the workload runs through the real
``pappus`` command, one process per operation, and the end-to-end
metrics are printed.  With ``--trace 1`` the same operations run
in-process through ``pappus.cli.main``, once untraced and once traced
per round, followed by the known-defect probes; the per-layer metrics
are printed.  Every output is checked.  The last line of stdout is one
JSON object; a full report (per-operation results with SHA-256, spans,
probes, provenance) is written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("exact-enum", "float-enum", "float-geometry", "separation")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0


# --- the program under test -------------------------------------------------------

def build_launcher() -> Path:
    """The ``pappus`` console script, as installing the package would write it."""
    OUT.mkdir(parents=True, exist_ok=True)
    exe = OUT / "pappus"
    text = f"#!{sys.executable}\nimport sys\nfrom pappus.cli import main\nsys.exit(main())\n"
    if not exe.is_file() or exe.read_text() != text:
        exe.write_text(text)
        exe.chmod(0o755)
    return exe


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class ChildRun:
    rc: int
    out: bytes
    err: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv: Sequence[str]) -> ChildRun:
    """Run one process; CPU and peak RSS come from its wait4 rusage, pool workers included."""
    with tempfile.TemporaryFile(dir=OUT) as fo, tempfile.TemporaryFile(dir=OUT) as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=fo, stderr=fe, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return ChildRun(proc.returncode, fo.read(), fe.read().decode("utf-8", "replace"),
                        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_inprocess(argv: Sequence[str]) -> Tuple[int, bytes, str, float]:
    """Call pappus.cli.main in this process (looked up per call, so a traced main is used)."""
    import pappus.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = pappus.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue().encode("utf-8"), err.getvalue(), time.perf_counter() - start


def stderr_tail(err: str) -> str:
    lines = err.strip().splitlines()
    return lines[-1][:300] if lines else ""


# --- statistics and provenance ------------------------------------------------------

def highest_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(percentile, value) of the highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(samples)[k]


def git_commit() -> Optional[str]:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> Dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "platform": platform.platform(),
        "seed": seed,
    }


# --- set-up ----------------------------------------------------------------------------

def measure_setup(workload: str, launcher: Path, repeats: int, warm_up: bool) -> Tuple[List[float], Optional[str]]:
    """Set-up time samples, after one untimed warm-up run when asked.

    CLI workloads time ``pappus --help`` (interpreter, imports, parser);
    separation times the package import inside a fresh interpreter.
    """
    samples: List[float] = []
    for k in range(repeats + warm_up):
        if workload == "separation":
            run = run_child([sys.executable, str(HERE / "separation.py"), "--import-only"])
            ok = run.rc == 0
            value = json.loads(run.out)["import_s"] if ok else 0.0
        else:
            run = run_child([str(launcher), "--help"])
            ok = run.rc == 0 and b"usage: pappus" in run.out
            value = run.wall_s
        if not ok:
            return samples, f"set-up failed (exit {run.rc}): {stderr_tail(run.err)}"
        if k >= warm_up:
            samples.append(value)
    return samples, None


# --- end-to-end run (tracing off) ---------------------------------------------------------

def timed_cli_rounds(workload: str, seed: int, seconds: float, launcher: Path) -> Dict:
    rounds, ops_log = [], []
    stream = wl.pair_stream(seed)
    start = time.perf_counter()
    while True:
        pair, tall = next(stream)
        wall = cpu = 0.0
        shas: Dict[str, str] = {}
        for op in wl.cli_ops(workload, pair, tall):
            run = run_child([str(launcher), *op.argv])
            wall += run.wall_s
            cpu += run.cpu_s
            error = wl.check_output(op, run.rc, run.out, ROOT, shas.get(op.same_as))
            shas[op.label] = wl.sha256(run.out)
            ops_log.append({
                "round": len(rounds), "label": op.label, "argv": list(op.argv), "rc": run.rc,
                "wall_s": run.wall_s, "cpu_s": run.cpu_s, "rss_mb": run.rss_mb,
                "bytes": len(run.out), "sha256": shas[op.label], "error": error,
                "stderr": stderr_tail(run.err),
            })
        rounds.append({"pair": [str(v) for v in pair], "tall": [str(v) for v in tall],
                       "wall_s": wall, "cpu_s": cpu})
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    return {"rounds": rounds, "ops": ops_log}


def timed_separation_rounds(seed: int, seconds: float) -> Dict:
    """Each min_distance_flats call is one timed operation."""
    run = run_child([sys.executable, str(HERE / "separation.py"), "--seed", str(seed),
                     "--seconds", repr(seconds)])
    if run.rc != 0:
        return {"rounds": [], "ops": [], "error": f"separation worker exit {run.rc}: {stderr_tail(run.err)}"}
    doc = json.loads(run.out)
    ops = [{"round": k, "label": "min_distance_flats", "pair": r["pair"], "call": j, "wall_s": wall,
            "cpu_s": cpu, "rss_mb": doc["maxrss_mb"], "error": r["error"] if j == 0 else None}
           for k, r in enumerate(doc["rounds"])
           for j, (wall, cpu) in enumerate(zip(r.pop("call_wall_s"), r.pop("call_cpu_s")))]
    return {"rounds": doc["rounds"], "ops": ops}


def speedup_w2(ops_log: List[Dict]) -> Optional[float]:
    """Serial orbit wall time over --workers 2 orbit wall time, summed over rounds."""
    serial = sum(o["wall_s"] for o in ops_log if o["label"] == "orbit")
    pooled = sum(o["wall_s"] for o in ops_log if o["label"] == "orbit_w2")
    return serial / pooled if serial and pooled else None


def end_to_end(workload: str, seed: int, seconds: float, launcher: Path) -> Tuple[Dict, Dict]:
    # set-up is sampled before and after the timed rounds, so its median
    # does not hang on the machine's state in one moment
    setup, setup_error = measure_setup(workload, launcher, SETUP_REPEATS, warm_up=True)
    if workload == "separation":
        body = timed_separation_rounds(seed, seconds)
    else:
        body = timed_cli_rounds(workload, seed, seconds, launcher)
    if not setup_error:
        more, setup_error = measure_setup(workload, launcher, SETUP_REPEATS, warm_up=False)
        setup += more
    # CLI workloads: a sample is one round (the sum of its operations);
    # separation: a sample is one min_distance_flats call
    samples = body["ops"] if workload == "separation" else body["rounds"]
    walls = [r["wall_s"] for r in samples]
    failed = sum(1 for o in body["ops"] if o["error"])
    errors = [e for e in (setup_error, body.get("error")) if e]
    errors += [f"{o['label']} (round {o['round']}): {o['error']}" for o in body["ops"] if o["error"]]
    correct = not errors and bool(walls)
    metrics = {}
    if walls and setup:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in samples), "s"),
            "peak_rss_mb": (max(o["rss_mb"] for o in body["ops"]), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    report = {
        "rounds": body["rounds"], "ops": body["ops"], "setup_samples_s": setup, "errors": errors,
        "wall_s_samples": walls, "wall_s_highest_percentile": highest_percentile(walls),
        "speedup_w2": speedup_w2(body["ops"]),
    }
    result = {"correct": correct, "attempted": max(len(body["ops"]), 1),
              "failed": failed if body["ops"] else 1}
    return result, dict(report, metrics=metrics)


# --- per-layer run (traced, in-process) ------------------------------------------------------

def _sum(tracer, attr: str, names: Sequence[str]) -> float:
    return sum(getattr(tracer, attr)(n) for n in names)


def layer_metrics(tracer, rounds: int, extra: Dict) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, per round, from the traced spans."""
    from tracer import LAYERS

    m: Dict[str, Tuple[float, str]] = {}

    def add(metric: str, *spans: str, calls: bool = True, self_s: bool = True):
        if calls:
            m[f"{metric}.calls"] = (_sum(tracer, "calls", spans) / rounds, "count")
        if self_s:
            m[f"{metric}.self_s"] = (_sum(tracer, "self_s", spans) / rounds, "s")

    add("projective.join_meet", "projective.join", "projective.meet")
    add("projective.cross_ratio", "projective.cross_ratio")
    add("projective.homvec", "projective.homvec")
    m["projective.coord_bits.max"] = (extra["coord_bits"], "bit")
    add("markedbox.op_tb", "markedbox.op_t", "markedbox.op_b")
    add("markedbox.raw_invariant", "markedbox.raw_invariant")
    add("markedbox.box_polarity", "markedbox.box_polarity")
    boxes = tracer.calls("markedbox.markedbox")
    m["markedbox.boxes_built"] = (boxes / rounds, "count")
    m["markedbox.boxes_built_per_row"] = (boxes / extra["records"] if extra["records"] else 0.0, "1")
    add("fareycomb.word_apply", "fareycomb.word_apply")
    for name in ("xpoint", "jacobi_eigh", "metric_d", "geodesic_point"):
        add(f"symmspace.{name}", f"symmspace.{name}")
    metric_d = tracer.calls("symmspace.metric_d")
    m["symmspace.xpoint_per_metric_d"] = (tracer.calls("symmspace.xpoint") / metric_d if metric_d else 0.0, "1")
    add("fareypattern.build_pattern", "fareypattern.build_pattern", calls=False)
    for name in ("geodesic_of_box", "pairwise_min", "min_distance_flats"):
        add(f"fareypattern.{name}", f"fareypattern.{name}")
    add("fareypattern.limit_set_flags", "fareypattern.limit_set_flags", calls=False)
    add("prisms.stabilizing_polarities", "prisms.stabilizing_polarities")
    for name in ("prism_inflection_data", "order3_axis", "cone_fill_sample", "bending_report"):
        add(f"prisms.{name}", f"prisms.{name}", calls=False)
    for command in ("orbit", "limitset", "pattern", "prism", "verify"):
        add(f"cli.{command}", f"cli.{command}", calls=False)
    m["cli.pool.start_s"] = (tracer.total_s("cli.pool.start") / rounds, "s")
    m["cli.pool.map_s"] = (tracer.total_s("cli.pool.map") / rounds, "s")
    m["cli.out_bytes"] = (extra["out_bytes"] / rounds, "B")
    for layer in LAYERS:
        own = sum(st[1] for name, st in tracer.stats.items() if name.startswith(layer + "."))
        m[f"{layer}.self_s"] = (own / rounds, "s")
    m["trace.unattributed_s"] = ((extra["traced_s"] - tracer.self_sum()) / rounds, "s")
    m["trace.overhead_frac"] = ((extra["traced_s"] - extra["untraced_s"]) / extra["untraced_s"], "1")
    m["speedup_w2"] = (extra["speedup_w2"] or 0.0, "1")
    m["failed_frac"] = (extra["failed_frac"], "1")
    return m


def run_probes(workload: str, launcher: Path) -> List[Dict]:
    probes = []
    for op in wl.PROBES[workload]:
        run = run_child([str(launcher), *op.argv])
        probes.append({"label": op.label, "argv": list(op.argv), "rc": run.rc,
                       "sha256": wl.sha256(run.out),
                       "error": wl.check_output(op, run.rc, run.out, ROOT),
                       "stderr": stderr_tail(run.err)})
    return probes


def per_layer(workload: str, seed: int, seconds: float, launcher: Path) -> Tuple[Dict, Dict]:
    sys.path.insert(0, str(ROOT / "src"))
    from pappus import fareypattern
    from tracer import Tracer, instrument

    tracer = Tracer()
    extra = {"records": 0, "out_bytes": 0, "coord_bits": 0, "traced_s": 0.0, "untraced_s": 0.0}
    ops_log: List[Dict] = []
    rounds = 0
    stream = wl.pair_stream(seed)
    start = time.perf_counter()
    while True:
        pair, tall = next(stream)
        if workload == "separation":
            todo, bounds, pattern_pairs = wl.separation_round(pair, rounds)
            expect = 105 if seed == 0 else None
            for traced in (False, True):
                with instrument(tracer) if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    values = [fareypattern.min_distance_flats(fa, fb) for fa, fb in todo]
                    wall = time.perf_counter() - t0
                if not traced:
                    untraced_values = values
                error = wl.check_separation(values, bounds, pattern_pairs, expect)
                if traced and values != untraced_values:
                    error = error or "traced distances differ from untraced ones"
                extra["traced_s" if traced else "untraced_s"] += wall
                ops_log.append({"round": rounds, "label": "min_distance_flats_sweep", "traced": traced,
                                "wall_s": wall, "error": error})
        else:
            ops = wl.cli_ops(workload, pair, tall)
            untraced: Dict[str, bytes] = {}
            for traced in (False, True):
                shas: Dict[str, str] = {}
                with instrument(tracer) if traced else contextlib.nullcontext():
                    for op in ops:
                        rc, out, err, wall = run_inprocess(op.argv)
                        error = wl.check_output(op, rc, out, ROOT, shas.get(op.same_as))
                        shas[op.label] = wl.sha256(out)
                        if traced:
                            if out != untraced[op.label]:
                                error = error or "traced output differs from untraced output"
                            # boxes built in pool workers are not traced, so their rows are not counted
                            if not error and op.same_as is None:
                                extra["records"] += wl.record_count(op, out)
                            extra["out_bytes"] += len(out)
                            extra["coord_bits"] = max(extra["coord_bits"], wl.coord_bits(out))
                        else:
                            untraced[op.label] = out
                        extra["traced_s" if traced else "untraced_s"] += wall
                        ops_log.append({"round": rounds, "label": op.label, "traced": traced,
                                        "argv": list(op.argv), "rc": rc, "wall_s": wall,
                                        "sha256": shas[op.label], "error": error,
                                        "stderr": stderr_tail(err)})
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    probes = run_probes(workload, launcher)
    failed = sum(1 for o in ops_log if o["error"])
    probe_failed = sum(1 for p in probes if p["error"])
    extra["failed_frac"] = (failed + probe_failed) / (len(ops_log) + len(probes))
    extra["speedup_w2"] = speedup_w2([o for o in ops_log if not o["traced"]])
    metrics = layer_metrics(tracer, rounds, extra)
    errors = [f"{o['label']} (round {o['round']}): {o['error']}" for o in ops_log if o["error"]]
    report = {
        "rounds": rounds, "ops": ops_log, "probes": probes, "errors": errors,
        "spans": {name: {"calls": st[0], "self_s": st[1], "total_s": st[2]}
                  for name, st in sorted(tracer.stats.items())},
        "edges": [{"caller": a, "callee": b, "calls": n} for (a, b), n in sorted(tracer.edges.items())],
        "metrics": metrics,
    }
    result = {"correct": not errors, "attempted": len(ops_log), "failed": failed}
    return result, report


# --- entry point -------------------------------------------------------------------------------

class Terminated(BaseException):
    """SIGTERM arrived; not an Exception, so no handler on the way up swallows it."""


def _terminate(signum, frame):
    raise Terminated()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Layered benchmark for pappus.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pappus" / "cli.py").is_file() or not (ROOT / "docs" / "schema.json").is_file():
        print(f"error: no pappus sources under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # a terminated run still kills and reaps the child it is waiting for;
    # forked pool workers keep the default action, which Pool.terminate relies on
    signal.signal(signal.SIGTERM, _terminate)
    os.register_at_fork(after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    info = provenance(args.seed)
    launcher = build_launcher()
    run = per_layer if args.trace else end_to_end
    try:
        result, report = run(args.workload, args.seed, args.seconds, launcher)
    except Terminated:
        print("error: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    info["tracing_overhead_frac"] = report["metrics"].get("trace.overhead_frac", (None,))[0]
    report.update(workload=args.workload, trace=args.trace, seconds=args.seconds, provenance=info, result=result)

    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    for error in report["errors"]:
        print(f"check failed: {error}")
    for probe in report.get("probes", []):
        status = "ok" if not probe["error"] else f"FAILED ({probe['error']}; {probe['stderr']})"
        print(f"probe {probe['label']}: {status}")
    if not args.trace and result["correct"]:
        walls = report["wall_s_samples"]
        top = report["wall_s_highest_percentile"]
        top_text = f"p{top[0]:.0f} {top[1]:.4f} s" if top else "none (needs at least 11 samples)"
        unit = "calls" if args.workload == "separation" else "rounds"
        print(f"wall_s: median {statistics.median(walls):.4f} s over n={len(walls)} {unit}; "
              f"highest supported percentile: {top_text}")
        if report["speedup_w2"] is not None:
            print(f"speedup_w2 (serial / --workers 2 orbit wall): {report['speedup_w2']:.4f}")
    for name, (value, unit) in report["metrics"].items():
        print(f"{name} = {value!r} {unit}")
    print(f"report: {path.relative_to(ROOT)}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()}
    print(json.dumps(dict(result, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
