#!/usr/bin/env python3
"""surfrep benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload api-certify --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; surfrep is imported from ./src.  With
--trace 0 the timed loop gives the end-to-end metrics of BENCHMARK.json;
with --trace 1 a fixed section runs untraced and then traced and gives
the per-layer metrics.  The full report (provenance, invariants and their
digest, tail percentile, per-layer detail) is printed as a `report` line
and written to perfbench/out/; the last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="smallest size: one round built, measured and traced")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload, args) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
                for k, v in deps.items() if k in ("blas", "lapack")}
    except (TypeError, AttributeError):       # numpy < 1.26 has no mode="dicts"
        blas = {"unavailable": "numpy.show_config(mode='dicts') not supported"}
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small, "input_sizes": workload.input_sizes(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "git_commit": git_commit(),
        "closed_loop": "one process, one operation at a time",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "surfrep" / "__init__.py").is_file():
        print(f"error: no surfrep sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from workloads import WORKLOADS, CliPipeline

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        extra = {"workdir": Path(work)} if cls is CliPipeline else {}
        workload = cls(args.seed, ROOT, small=args.small, **extra)
        result = (harness.trace(workload, ROOT) if args.trace
                  else harness.measure(workload, args.seconds))
    tally = result["tally"]
    report = {
        "provenance": provenance(workload, args),
        "wall_s": time.perf_counter() - t0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "details": result["details"],
    }
    if "tracer" in result:
        result["tracer"].save(OUT / f"{stem}-spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True, default=str))

    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload:13s} {name:30s} {value:14.4f} {unit}")
    details = result["details"]
    print(f"{args.workload:13s} attempted {tally.attempted}  failed {tally.failed}  "
          f"failed_fraction {details['failed_fraction']:.4f}  "
          f"digest {details.get('digest', '-')}")
    print("report " + json.dumps(report, sort_keys=True, default=str))
    final = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
