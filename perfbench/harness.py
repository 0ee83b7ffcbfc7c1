"""Timed loop, traced comparison and cold-start probes.

`measure` gives the end-to-end metrics with tracing off; `trace` runs the
first rounds of the workload untraced and traced, operation by operation,
and derives the per-layer metrics from the spans; `cold_start` times
fresh interpreters.
All load comes from this one process, one operation at a time (closed
loop); a cli-pipeline operation runs one child interpreter and waits for
it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

from speed import SpeedProbe
from tracer import Tracer

# Standard percentiles a tail may sit at, highest first.
TAIL_GRID = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10

RANK_DECISIONS = ("linalg.checked_rank", "linalg.nullspace", "linalg.range_complement",
                  "linalg.rank_svd", "linalg.rank_pivoted_qr")
ENCODERS = ("serialize.encode_matrix", "serialize.encode_values",
            "serialize.point_to_dict", "serialize.canonical_json")


class Tally:
    """Attempted and failed operations, failed checks and invariants seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.invariants = {}          # (round, op index) -> invariants

    def run(self, op, key):
        """Run and check one operation; returns (start, seconds)."""
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:      # a crashing operation is a failed one
            out, err = None, type(exc).__name__
        else:
            err = None
        latency = time.perf_counter() - t0
        if err is None:
            bad, inv = op.check(out)
        else:
            bad, inv = [f"raised {err}"], {"label": op.label, "raised": err}
        seen = self.invariants.setdefault(key, inv)
        if seen != inv:
            bad = bad + ["not_repeatable"]
        self.attempted += 1
        if bad:
            self.failed += 1
            self.failures.update(bad)
        return t0, latency

    def digest(self, rounds: int) -> str:
        items = [[list(k), v] for k, v in sorted(self.invariants.items()) if k[0] < rounds]
        text = json.dumps(items, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def invariant_summary(self) -> dict:
        """Per operation label, how often each set of invariants was seen."""
        out = {}
        for inv in self.invariants.values():
            label = inv.get("shape", inv.get("call", inv.get("label", "?")))
            rest = json.dumps({k: v for k, v in inv.items() if k not in ("shape", "call")},
                              sort_keys=True)
            out.setdefault(label, Counter())[rest] += 1
        return {label: dict(sorted(c.items())) for label, c in sorted(out.items())}

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_fraction": self.failed / max(self.attempted, 1),
                "failed_checks": dict(self.failures),
                "invariants": self.invariant_summary()}


def percentile(values, p: float) -> float:
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[int(p) - 1]


def tail_latency(latencies, preferred: int):
    """The workload's tail percentile, lowered only if it lacks samples beyond.

    Each workload fixes the highest standard percentile that keeps at least
    ten samples beyond it at the sample counts this benchmark sees, so that
    a faster commit (more samples) is compared at the same percentile.
    """
    n = len(latencies)
    choice = next((p for p in TAIL_GRID if p <= preferred and n * (100 - p) / 100 >= TAIL_BEYOND),
                  TAIL_GRID[-1])
    value = percentile(latencies, choice) if n >= 2 else latencies[0]
    beyond = sum(1 for x in latencies if x > value)
    return value, {"percentile": choice, "samples": n, "beyond": beyond}


def measure(workload, seconds: float) -> dict:
    """Untraced closed loop over the rounds for about `seconds` seconds.

    Stops at the round boundary nearest to `seconds` (never before
    `min_rounds`), so each run covers whole rounds of the same mix.  Work
    done in this process is scaled to the reference speed (see speed.py).
    Throughput is correct operations per second of operation time (the
    benchmark's own checks and probes excluded); set-up time is the median
    over the rounds built.
    """
    probe = SpeedProbe()
    rounds, setup_spans = [], []
    for k in range(workload.setup_rounds):
        probe.maybe_sample()
        t0 = time.perf_counter()
        rounds.append(workload.make_round(k))
        setup_spans.append((t0, time.perf_counter() - t0))

    tally = Tally()
    ops = []                          # (start, seconds) per operation
    t_start = time.perf_counter()
    r = 0
    round_wall = []
    probe.sample()
    while True:
        k = r % len(rounds)
        t_round = time.perf_counter()
        for i, op in enumerate(rounds[k]):
            if workload.in_process:
                probe.maybe_sample()
            ops.append(tally.run(op, (k, i)))
        round_wall.append(time.perf_counter() - t_round)
        r += 1
        elapsed = time.perf_counter() - t_start
        if r >= workload.min_rounds and elapsed + 0.5 * statistics.fmean(round_wall) >= seconds:
            break
    probe.sample()

    def scaled(start, dt):
        return dt * probe.factor(start, start + dt)

    # The probe measures this process.  Set-up always runs here; the
    # operations of a workload that runs them in child interpreters are
    # left unscaled, since the probe, squeezed between children, measures
    # its own cold caches rather than the speed the children saw.
    setup = [scaled(t0, dt) for t0, dt in setup_spans]
    latencies = [scaled(t0, dt) if workload.in_process else dt for t0, dt in ops]
    raw = [dt for _, dt in ops]
    correct = tally.attempted - tally.failed

    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    tail, tail_info = tail_latency(latencies, workload.tail_percentile)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_per_s": (correct / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "max_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "measured_s": elapsed, "rounds_run": r, "rounds_built": len(rounds),
        "round_wall_s": round_wall, "latency_tail": tail_info,
        "speed": probe.summary(),
        "raw": {"setup_s": statistics.median(dt for _, dt in setup_spans),
                "throughput_ops_per_s": correct / sum(raw),
                "latency_p50_ms": 1e3 * statistics.median(raw),
                "latency_tail_ms": 1e3 * tail_latency(raw, workload.tail_percentile)[0]},
        "digest_rounds": workload.min_rounds, "digest": tally.digest(workload.min_rounds),
        **tally.report(),
    }
    return {"metrics": metrics, "tally": tally, "details": details}


def trace(workload, root) -> dict:
    """Per-layer metrics from one traced pass over `trace_rounds` rounds.

    Each round's set-up and each of its operations run once to warm up,
    then untraced and traced back to back, so that a drift in host speed
    hits both alike; the summed difference is the tracing overhead.  Every
    run must give the same invariants.  Per-layer times are raw.
    """
    tally = Tally()
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    in_process_s = {}                 # untraced time per operation label

    def traced(fn):
        tracer.install()
        try:
            return fn()
        finally:
            tracer.uninstall()

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    for k in range(workload.trace_rounds):
        ops = workload.in_process_round(k)
        for i, op in enumerate(ops):                    # warm-up: lazy imports, first calls
            tally.run(op, (k, i))
        untraced_s += timed(lambda: workload.in_process_round(k))
        traced_s += traced(lambda: timed(lambda: workload.in_process_round(k)))
        for i, op in enumerate(ops):
            dt = tally.run(op, (k, i))[1]
            untraced_s += dt
            in_process_s[op.label] = in_process_s.get(op.label, 0.0) + dt

            def run_traced(op=op, i=i):
                with tracer.span(workload.name):
                    return tally.run(op, (k, i))[1]
            traced_s += traced(run_traced)

    details = {"trace_rounds": workload.trace_rounds, "untraced_s": untraced_s,
               "traced_s": traced_s, "spans": tracer.span_count,
               "digest_rounds": workload.trace_rounds,
               "digest": tally.digest(workload.trace_rounds)}
    if workload.name == "cli-pipeline":
        # the same calls in fresh interpreters: wall time minus in-process time
        # is what each call pays to start
        walls = {}
        for i, op in enumerate(workload.make_round(0)):
            walls[op.label] = tally.run(op, (0, i))[1]
        details["cold_start_ms"] = {label: 1e3 * (walls[label] - in_process_s[label])
                                    for label in walls}
        details["subprocess_ms"] = {label: 1e3 * w for label, w in walls.items()}
        details["in_process_ms"] = {label: 1e3 * w for label, w in in_process_s.items()}

    functions, layers = tracer.summary()
    metrics = layer_metrics(functions, layers, tracer.results.get("solver.solve", []))
    metrics.update(cold_start(root))
    metrics["trace.overhead_ms"] = (1e3 * (traced_s - untraced_s), "ms")
    metrics["trace.spans"] = (tracer.span_count, "count")
    details["layers"] = layers
    details["functions"] = functions
    details.update(tally.report())
    return {"metrics": metrics, "tally": tally, "details": details, "tracer": tracer}


def layer_metrics(functions: dict, layers: dict, solves) -> dict:
    def fn(name, key="calls"):
        return functions.get(name, {}).get(key, 0)

    def ms(name, key="inclusive_ns"):
        return (fn(name, key) / 1e6, "ms")

    def busy(layer):
        return (layers.get(layer, {}).get("self_ns", 0) / 1e6, "ms")

    def count(value):
        return (int(value), "count")

    return {
        "unitary.calls": count(layers.get("unitary", {}).get("calls", 0)),
        "unitary.busy_ms": busy("unitary"),
        "unitary.match_class_calls": count(fn("unitary.match_class")),
        "linalg.rank_decisions": count(sum(fn(n, "entries") for n in RANK_DECISIONS)),
        "linalg.min_norm_solves": count(fn("linalg.min_norm_solve")),
        "linalg.busy_ms": busy("linalg"),
        "presentation.word_evals": count(fn("presentation.evaluate_word")
                                         + fn("presentation.extend_cocycle")),
        "presentation.busy_ms": busy("presentation"),
        "cohomology.analyze_ms": ms("cohomology.analyze"),
        "cohomology.h1_basis_calls": count(fn("cohomology.h1_basis")),
        "cohomology.tangent_basis_ms": ms("cohomology.parabolic_tangent_basis"),
        "cohomology.relative_h2_ms": ms("cohomology.relative_h2"),
        "cohomology.busy_ms": busy("cohomology"),
        "pairing.gram_ms": ms("pairing.gram_matrix"),
        "pairing.lift_calls": count(fn("pairing.lift_to_cone")),
        "pairing.busy_ms": busy("pairing"),
        "solver.solve_ms": ms("solver.solve"),
        "solver.iterations": count(sum(r.iterations for r in solves)),
        "solver.restarts_used": count(sum(r.restart_index + 1 for r in solves)),
        "deformation.build_ms": ms("deformation.build_deformation"),
        "deformation.next_order_ms": ms("deformation.solve_next_order"),
        "deformation.residual_evals": count(fn("deformation.order_residuals")),
        "deformation.verify_ms": ms("deformation.verify_deformation"),
        "serialize.encode_ms": (sum(fn(n, "entered_ns") for n in ENCODERS) / 1e6, "ms"),
        "cli.main_ms": ms("cli.main"),
        "corpus.smooth_instance_ms": ms("corpus.smooth_instance"),
    }


# ---------------------------------------------------------------------------
# cold start, in fresh interpreters

_LAZY_CHILD = """
import time
import numpy as np
from surfrep.corpus import witness_representation
rho = witness_representation(1, 2, 2, np.random.default_rng(0))
t0 = time.perf_counter()
rho.validate()
t1 = time.perf_counter()
rho.validate()
t2 = time.perf_counter()
print(repr((t1 - t0) - (t2 - t1)))
"""


def _child(code: str, root, env) -> tuple:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return time.perf_counter() - t0, proc.stdout


def cold_start(root, repeats: int = 5) -> dict:
    """import.wall_ms and import.lazy_first_call_ms, medians over fresh interpreters."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    bare, imported, lazy = [], [], []
    for _ in range(repeats):
        bare.append(_child("pass", root, env)[0])
        imported.append(_child("import surfrep", root, env)[0])
    for _ in range(max(repeats // 2, 1)):
        lazy.append(float(_child(_LAZY_CHILD, root, env)[1]))
    return {
        "import.wall_ms": (1e3 * (statistics.median(imported) - statistics.median(bare)), "ms"),
        "import.lazy_first_call_ms": (1e3 * statistics.median(lazy), "ms"),
    }
