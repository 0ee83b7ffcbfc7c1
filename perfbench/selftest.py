#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at its smallest size.

    python3 perfbench/selftest.py

Checks, for each workload, that run.py prints every metric that
BENCHMARK.json names, with its unit, for --trace 0 and --trace 1; that
no operation fails at this commit; and that two runs with the same seed
give the same invariant digest.  Then it runs api-certify and api-deform
with one deliberately wrong expected invariant and requires that exactly
that operation is counted as failed, so the checks cannot pass vacuously.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import sys

from report import HERE, ROOT, run

SEED = 3


def require(ok: bool, message: str) -> None:
    # not `assert`: the checks must hold under python -O as well
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def check_metrics(final: dict, expected: list, where: str) -> None:
    require(set(final) == {"correct", "attempted", "failed", "metrics"}, where)
    names = {m["name"]: m["unit"] for m in expected}
    require(set(final["metrics"]) == set(names), (
        f"{where}: metrics {sorted(final['metrics'])} != {sorted(names)}"))
    for name, unit in names.items():
        got = final["metrics"][name]
        require(got["unit"] == unit, f"{where}: {name} unit {got['unit']} != {unit}")
        require(isinstance(got["value"], (int, float)), f"{where}: {name} not a number")


def tampered(workload_name: str) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](SEED, ROOT, small=True, tamper=True)
    return harness.measure(workload, 0.001)["details"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        digests = []
        for trace, expected in ((0, spec["end_to_end"]), (0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            out = run(name, SEED, 1, trace, small=True)
            final, report = out["result"], out["report"]
            where = f"{name} --trace {trace}"
            check_metrics(final, expected, where)
            require(final["correct"] and final["failed"] == 0, f"{where}: {report['details']['failed_checks']}")
            require(report["details"]["failed_fraction"] == 0.0, where)
            digests.append(report["details"]["digest"])
        require(digests[0] == digests[1], f"{name}: digest differs between identical runs")
        print(f"ok  {name}: metrics and units present, failed_fraction 0, digest {digests[0][:16]}")

    for name in ("api-certify", "api-deform"):
        details = tampered(name)
        require(details["failed"] == 1, f"{name}: wrong expectation gave {details['failed']} failures")
        print(f"ok  {name}: a wrong expected invariant is counted as failed "
              f"({details['failed_checks']})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
