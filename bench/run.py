#!/usr/bin/env python3
"""Benchmark of torusmfg: time to a checked answer, and per-layer costs.

    python3 bench/run.py --workload var1d --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`.  It is a closed loop: one process, one solve at a time, each
starting after the previous one returned, with BLAS/OpenMP pinned to one
thread.  A run repeats passes over the seeded problems of one workload
until `--seconds` is spent.  Every solve is checked against an independent
reference (see references.py) before its time counts.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; metrics are the end-to-end
ones with --trace 0 and the per-layer ones with --trace 1.  Progress goes
to standard error.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
IMPORT_SAMPLES = 7
WORKLOAD_NAMES = ("var1d", "oracle", "alpha_lt_1")

END_TO_END = (("cal_wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def import_seconds(probe, reference_s: float) -> float:
    """Median time to import torusmfg with NumPy and SciPy already loaded.

    Each sample drops the package from sys.modules and imports it again, so
    it times the package's own module code (from cached bytecode after the
    first sample), not its dependencies.  Rescaled by the speed probe.
    """
    sys.path.insert(0, str(SRC))
    samples = []
    before = probe()
    for _ in range(IMPORT_SAMPLES):
        for name in [m for m in sys.modules if m == "torusmfg" or m.startswith("torusmfg.")]:
            del sys.modules[name]
        t = time.perf_counter()
        importlib.import_module("torusmfg")
        importlib.import_module("torusmfg.transform")
        samples.append(time.perf_counter() - t)
    after = probe()
    return statistics.median(samples) * reference_s / (0.5 * (before + after))


def load_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tm = importlib.import_module("torusmfg")
    importlib.import_module("torusmfg.transform")
    if Path(tm.__file__).resolve().parent != (SRC / "torusmfg").resolve():
        raise SystemExit(f"imported torusmfg from {tm.__file__}, not from {SRC}")
    return tm


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "torusmfg" / "__init__.py").is_file():
        print(f"no torusmfg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED)  # before NumPy loads its BLAS
    sys.path.insert(0, str(HERE))

    import calibration
    import harness
    import tracing
    from workloads import WORKLOADS

    probe = calibration.Probe()
    import_s = import_seconds(probe, calibration.REFERENCE_S)
    tm = load_package()

    wl = WORKLOADS[args.workload]
    problems = wl.problems(args.seed)
    refs = [wl.reference(p) for p in problems]
    targets = tracing.span_targets(tm) if args.trace else None

    plain, traced, layer_runs = [], [], []
    correct = True
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        plain.append(harness.run_pass(tm, wl, problems, refs, probe))
        if args.trace:
            tracer = tracing.Tracer()
            tp = harness.run_pass(tm, wl, problems, refs, probe, tracer, targets)
            traced.append(tp)
            # the layers' self times partition the time spent inside the library
            inside = sum(self_s for _, self_s in tracer.totals().values())
            if inside > sum(tp.times):
                harness.log(f"self times {inside:.6f} s exceed traced {sum(tp.times):.6f} s")
                correct = False
            layer_runs.append(harness.layer_metrics(wl, tracer, tp))
        elapsed = time.perf_counter() - start
        harness.log(f"{wl.name} pass {len(plain)}: solve {sum(plain[-1].times):.4f} s "
                    f"({sum(plain[-1].scaled):.4f} reference s), elapsed {elapsed:.1f} s")
        if elapsed + (time.perf_counter() - cycle) > args.seconds:
            break

    records = [r for p in plain + traced for r in p.records]
    failed = sum(not r["ok"] for r in records)
    if args.trace:
        values = {name: statistics.median(m[name] for m in layer_runs)
                  for name, _ in harness.PER_LAYER if name != "trace.overhead_s"}
        untraced = statistics.median(p.speed * sum(p.times) for p in plain)
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced
        units = dict(harness.PER_LAYER)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{wl.name}.npz")
    else:
        values = {
            "cal_wall_s": harness.solve_seconds(plain),
            "setup_s": import_s + statistics.median(p.build_s * p.speed for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    result = {
        "correct": bool(correct and failed == 0),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
