#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json once and print all metrics.

    python3 perfbench/report.py [--seed 0] [--trace] [--write FILE]

Prints every end-to-end metric per workload with its unit (and, with
--trace, every per-layer metric from a separate traced run).  --write
stores the full reports, provenance included, as one JSON file, which is
how the baseline in perfbench/baseline/ was made.  Workloads run one after
the other, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int, small: bool = False) -> dict:
    """One run.py process; its result object and its full report."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--small"] if small else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} --seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(l for l in lines if l.startswith("report "))[len("report "):])
    return {"result": json.loads(lines[-1]), "report": report}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="also run the traced pass")
    parser.add_argument("--write", default=None, help="write all reports to this JSON file")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traces = (0, 1) if args.trace else (0,)
    runs = {}
    for w in spec["workloads"]:
        for trace in traces:
            out = run(w["name"], args.seed, spec["run_seconds"], trace)
            runs[f"{w['name']}/trace{trace}"] = out
            details = out["report"]["details"]
            print(f"== {w['name']} --trace {trace}: correct {out['result']['correct']}  "
                  f"attempted {out['result']['attempted']}  failed {out['result']['failed']}  "
                  f"failed_fraction {details['failed_fraction']:.4f}  digest {details['digest'][:16]}")
            for name, m in out["result"]["metrics"].items():
                print(f"   {name:30s} {m['value']:14.4f} {m['unit']}")
            if trace == 0:
                tail = details["latency_tail"]
                print(f"   latency_tail is p{tail['percentile']} of {tail['samples']} samples "
                      f"({tail['beyond']} beyond)")
    if args.write:
        Path(args.write).write_text(json.dumps(
            {"seed": args.seed, "run_seconds": spec["run_seconds"], "runs": runs},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
