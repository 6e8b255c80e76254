"""Separation workload: timed rounds of fareypattern.min_distance_flats.

Run by run.py in a fresh interpreter, so its import time, CPU time and
peak RSS belong to the workload alone.  Each round takes the next pair
of the seed's stream, builds the depth-3 pattern outside the timed
region, and times each min_distance_flats call over one slice of its
distinct flat pairs (see workloads.separation_round).  Prints one JSON
object.

    python3 perfbench/separation.py --seed 0 --seconds 20
    python3 perfbench/separation.py --import-only
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--import-only", action="store_true", help="print the import time and exit")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    from pappus import fareypattern

    import_s = time.perf_counter() - start
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    from workloads import check_separation, pair_stream, separation_round

    rounds = []
    stream = pair_stream(args.seed)
    start = time.perf_counter()
    while True:
        pair, _ = next(stream)
        todo, bounds, pattern_pairs = separation_round(pair, len(rounds))
        values, walls, cpus = [], [], []
        for fa, fb in todo:
            c0, t0 = time.process_time(), time.perf_counter()
            values.append(fareypattern.min_distance_flats(fa, fb))
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
        rounds.append({
            "pair": [str(v) for v in pair],
            "wall_s": sum(walls),
            "cpu_s": sum(cpus),
            "call_wall_s": walls,
            "call_cpu_s": cpus,
            "min": min(values),
            "error": check_separation(values, bounds, pattern_pairs, 105 if args.seed == 0 else None),
        })
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"import_s": import_s, "maxrss_mb": maxrss_mb, "rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
