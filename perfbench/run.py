#!/usr/bin/env python3
"""Benchmark of cran-maxmin, end to end and layer by layer.

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  It sets up the workload (set-up is repeated
and its median reported), times whole passes over the workload's operations
until --seconds have gone by, checks the outputs, and prints one JSON object
as its last line: the end-to-end metrics with --trace 0, the per-layer
metrics of a separate traced pass with --trace 1.  A fuller report, with the
spans when tracing, goes to perfbench/out/.  See perfbench/README.md.
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
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# OpenBLAS's default of one thread per core makes the program's small dense
# kernels slower and noisier on a 2-core machine; see README.md
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# the keys of workloads.WORKLOADS, listed here because importing workloads
# loads numpy, which must wait until the thread limits are set
WORKLOAD_NAMES = ("desk_sweep", "paper_probe", "oracle_tiny")


def load_program():
    """Limit BLAS and OpenMP to one thread in this process and every process
    it starts, then import cran_maxmin from this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    needed = [src / "cran_maxmin" / "__init__.py", ROOT / "configs" / "desk.json",
              ROOT / "configs" / "paper.json"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"perfbench: not a cran-maxmin checkout, missing {missing}")
    sys.path.insert(0, str(src))
    import cran_maxmin
    from cran_maxmin import association, beamforming, harness, model, oracle, socp

    if not Path(cran_maxmin.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: cran_maxmin imported from {cran_maxmin.__file__}")
    return SimpleNamespace(association=association, beamforming=beamforming,
                           harness=harness, model=model, oracle=oracle, socp=socp)


def cpu_s() -> float:
    """CPU time of this process and of its children that have been waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def import_s() -> float:
    """Wall time of a fresh interpreter importing the program."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import cran_maxmin"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def timed(fn, *args):
    start, cpu0 = time.perf_counter(), cpu_s()
    result = fn(*args)
    result.wall, result.cpu = time.perf_counter() - start, cpu_s() - cpu0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    cm = load_program()
    import selftest
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](cm, ROOT, args.seed, OUT)
    imports = [import_s() for _ in range(SETUP_REPEATS)]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inp = wl.setup()
        setups.append(time.perf_counter() - start)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(timed(wl.run_round, inp))

    tracer = spans.Tracer()
    ref = timed(wl.reference, inp, tracer) if wl.needs_reference or args.trace else None
    failures = wl.check(inp, rounds, ref, tracer) + selftest.run()

    run_s = statistics.median(r.wall for r in rounds)
    cpu = statistics.median(r.cpu for r in rounds)
    end_to_end = {
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "op_s_p50": (statistics.median(t for r in rounds for t in r.op_s), "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    end_to_end = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    busy = (sum(t for r in rounds for t in r.op_s)
            / sum(r.wall * r.workers for r in rounds))
    per_layer = spans.layer_metrics(tracer, busy) if ref else None
    overhead = None
    if ref:
        # the measured difference is only comparable when both passes use the
        # same number of processes, and even then it is mostly timing noise;
        # the estimate is the span count times the wrapper's cost per call
        overhead = {"spans": len(tracer.spans),
                    "estimate_s": len(tracer.spans) * spans.span_cost_s(),
                    "traced_minus_untraced_s": ref.wall - run_s
                    if ref.workers == rounds[0].workers else None}

    result = {"correct": not failures,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": per_layer if args.trace else end_to_end}
    report = {**vars(args), **result, "end_to_end": end_to_end, "per_layer": per_layer,
              "rounds": [{"wall_s": r.wall, "cpu_s": r.cpu, "op_s": r.op_s} for r in rounds],
              "import_s": imports, "setup_s": setups,
              "reference_wall_s": ref.wall if ref else None,
              "trace_overhead": overhead, "failures": failures}
    if args.trace:
        report["spans"] = tracer.to_json()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")

    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, run_s {run_s:.3f}, "
          f"trace overhead {overhead}, report {BENCH.name}/{OUT.name}/{name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
