"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload bulk-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; dbmlab is imported from its
``src``.  The workload repeats whole rounds until ``--seconds`` of timed
work have passed (at least one round) and every round's outputs are
checked.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` the per-layer metrics of one traced round, whose spans are
also written to ``.bench_out/<workload>/trace.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("bulk-sweep", "soft-center", "gap-montecarlo")

# fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 5

# Run in a fresh interpreter: import dbmlab, build the workload's inputs,
# and print the monotonic clock (shared by all processes) once ready.
_SETUP_CODE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]].inputs()
print(time.monotonic())
"""


def fresh_setup_s(workload):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH), workload],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - started


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dbmlab" / "__init__.py").is_file():
        print(f"error: no dbmlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One BLAS thread, set before numpy loads here and in the set-up children.
    # On a 2-CPU machine, two threads gave bulk-sweep the same median time
    # and an 11% spread between runs, against 2.4% with one.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    if not args.trace:
        setup_s = statistics.median(fresh_setup_s(args.workload) for _ in range(SETUP_REPEATS))

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        workloads.instrument(tracer)
    inputs = wl.inputs()

    # a traced run times one round, so its counts are per round
    walls, outcomes = [], []
    while not walls or (not tracer and sum(walls) < args.seconds):
        started = time.perf_counter()
        result = wl.run(inputs, args.seed, out)
        walls.append(time.perf_counter() - started)
        if tracer:
            tracer.restore()
        for name, ok, detail in wl.check(inputs, result, out):
            outcomes.append((f"{args.workload}/{name}", ok))
            print(f"{'ok  ' if ok else 'FAIL'} {args.workload}/{name}: {detail}", file=sys.stderr)
        del result

    failed = [name for name, ok in outcomes if not ok]
    report = {
        "correct": set(failed) <= workloads.KNOWN_FAULTS,
        "attempted": len(outcomes),
        "failed": len(failed),
    }
    if tracer:
        tracer.dump(out / "trace.json")
        layers = tracing.layer_metrics(tracer)
        layers["trace.wall_s"] = (statistics.median(walls), "s")
        metrics = layers
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
