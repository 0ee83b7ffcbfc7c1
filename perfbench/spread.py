#!/usr/bin/env python3
"""Steadiness check: one workload on several seeds, quartile spread per metric.

    python3 perfbench/spread.py --workload api-deform --seeds 1-10 [--write FILE]

Runs run.py once per seed (one after the other) with BENCHMARK.json's
run_seconds and reports, for every end-to-end metric, the median of the
values and the distance between their first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound.  Also checks that every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from report import ROOT, run


def seeds_of(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--write", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        out = run(args.workload, seed, spec["run_seconds"], 0)
        result, details = out["result"], out["report"]["details"]
        runs.append({"seed": seed, "result": result, "digest": details["digest"],
                     "latency_tail": details["latency_tail"], "raw": details["raw"]})
        print(f"seed {seed:4d} correct {result['correct']} attempted {result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    spreads = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spreads[name] = {"median": median, "spread": (q3 - q1) / median, "bound": bound}
        print(f"{name:24s} median {median:12.4f}  spread {(q3 - q1) / median:.4f}  "
              f"bound {bound}  (a third: {bound / 3:.4f})")
    all_correct = all(r["result"]["correct"] for r in runs)
    print(f"all correct: {all_correct}")
    if args.write:
        Path(args.write).write_text(json.dumps(
            {"workload": args.workload, "run_seconds": spec["run_seconds"],
             "spreads": spreads, "runs": runs}, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
