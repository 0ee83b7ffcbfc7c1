"""The three benchmark workloads: inputs, operations and output checks.

Every workload is a list of rounds.  A round is a list of operations
whose inputs were built in set-up from the workload seed; the timed loop
walks the rounds in order (wrapping around if it runs out) and stops at a
round boundary, so every run sees the same mix of inputs.  An operation
returns its raw result; `check` turns that into the failed checks and the
invariants recorded for the digest.

    api-certify   solve -> analyze -> gram_matrix, in process, one
                  operation per witness surface (CORPUS_SHAPES x rounds)
    api-deform    tangent_direction -> build_deformation(order=4) ->
                  verify_deformation on the witness points, plus the
                  obstructed instance once per round
    cli-pipeline  solve -> analyze -> symplectic -> deform, each step a
                  fresh `python -m surfrep.cli` interpreter, chained
                  through files, on two surfaces
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# surfrep is imported from ./src (run.py puts it on sys.path).  Functions
# are looked up through the package at call time, not imported by name,
# so that the tracer's rebinding of them is seen.
import surfrep
import surfrep.cli

SKEW_TOL = 1e-8
ORDER = 4
SLOPE_MARGIN = 0.3
OBSTRUCTION_ORDER = 2
CLI_TIMEOUT_S = 120

README_SURFACE = {
    "genus": 0, "punctures": 4, "rank": 2,
    "classes": [[math.pi / 2, -math.pi / 2]] * 4,
}
GENERATED_SHAPE = (1, 2, 2)          # (genus, rank, punctures)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]   # result -> (failed checks, invariants)


def input_seed(seed: int, round_index: int) -> int:
    """Seed of the witness points of one round; distinct across workload seeds."""
    return seed * 1000 + round_index


def shape_name(genus: int, rank: int, punctures: int) -> str:
    return f"g{genus}_n{rank}_r{punctures}"


def expected_tangent_dim(surface) -> int:
    """Tangent dimension at an irreducible point, from the input alone.

    (2g - 2) N^2 + sum of class dimensions + 2 (the centre of u(N)),
    clamped at zero.
    """
    n = surface.rank
    raw = (2 * surface.genus - 2) * n * n + sum(c.dimension() for c in surface.classes)
    return max(raw + 2, 0)


def rounded_slope(slope):
    if isinstance(slope, str) or math.isinf(slope):
        return "inf"
    return round(float(slope), 1)


def slope_ok(slope, order: int) -> bool:
    return rounded_slope(slope) == "inf" or float(slope) >= order + 1 - SLOPE_MARGIN


class Workload:
    """Base class: a seeded list of rounds built in set-up."""

    name = ""
    in_process = True           # False: operations run in child interpreters
    tail_percentile = 50
    setup_rounds = 1            # rounds built in set-up (distinct inputs)
    min_rounds = 1              # rounds every run measures; the digest covers them
    trace_rounds = 1            # rounds run untraced and traced with --trace 1

    def __init__(self, seed: int, root: Path, small: bool = False,
                 tamper: bool = False):
        self.seed = seed
        self.root = root
        # tamper: one expectation of round 0 is deliberately wrong,
        # so the self-test can show that a wrong result is counted
        self.tamper = tamper
        if small:
            self.setup_rounds = self.min_rounds = self.trace_rounds = 1

    def make_round(self, k: int) -> list:
        raise NotImplementedError

    def in_process_round(self, k: int) -> list:
        """The operations of round k as run in the traced comparison."""
        return self.make_round(k)

    def input_sizes(self) -> dict:
        raise NotImplementedError

    def _tampered(self, k: int, i: int) -> bool:
        return self.tamper and k == 0 and i == 0


class ApiCertify(Workload):
    name = "api-certify"
    tail_percentile = 95
    setup_rounds = 64
    min_rounds = 8
    trace_rounds = 4

    shapes = surfrep.corpus.CORPUS_SHAPES

    def input_sizes(self) -> dict:
        return {"shapes": [list(s) for s in self.shapes], "rounds": self.setup_rounds,
                "distinct_surfaces": len(self.shapes) * self.setup_rounds,
                "solver_seed": "seed * 1000 + round, as the witness points"}

    def make_round(self, k: int) -> list:
        ops = []
        seed = input_seed(self.seed, k)
        for i, (g, n, r) in enumerate(self.shapes):
            surface = surfrep.smooth_instance(g, n, r, seed=seed).representation.surface
            expected = expected_tangent_dim(surface) + (1 if self._tampered(k, i) else 0)
            ops.append(Op(shape_name(g, n, r), self._runner(surface, seed),
                          self._checker(shape_name(g, n, r), expected)))
        return ops

    @staticmethod
    def _runner(surface, seed: int):
        def run():
            # the solver seed varies with the round as well: one seed for the
            # whole run would start every surface of a shape from the same
            # point and make the run's cost hinge on that one draw
            cfg = surfrep.SolverConfig(seed=seed)
            result = surfrep.solve(surface, cfg)
            report = surfrep.analyze(result.representation)
            gram = surfrep.gram_matrix(result.representation, report=report)
            return cfg, result, report, gram
        return run

    @staticmethod
    def _checker(label: str, expected: int):
        def check(out):
            cfg, result, report, gram = out
            g = gram.entries
            skew = float(np.linalg.norm(g + g.T)) <= SKEW_TOL * max(1.0, float(np.linalg.norm(g)))
            failed = [name for name, ok in (
                ("residual", result.residual <= cfg.tol),
                ("tangent_dim", report.tangent_dim == report.expected_dim == expected),
                ("smooth", report.smooth),
                ("irreducible", report.irreducible),
                ("gram_skew", skew),
                ("gram_rank", gram.rank == report.tangent_dim),
            ) if not ok]
            return failed, {"shape": label, "h1": report.h1_dim, "tangent": report.tangent_dim,
                            "expected": report.expected_dim, "h2": report.relative_h2_dim,
                            "gram_rank": gram.rank}
        return check


class ApiDeform(Workload):
    name = "api-deform"
    tail_percentile = 90
    setup_rounds = 8
    min_rounds = 7              # >= 105 samples: p90 keeps 10 beyond it
    trace_rounds = 1

    shapes = surfrep.corpus.CORPUS_SHAPES

    def input_sizes(self) -> dict:
        return {"shapes": [list(s) for s in self.shapes], "rigid_shapes_skipped": True,
                "rounds": self.setup_rounds, "order": ORDER, "obstructed_per_round": 1}

    def make_round(self, k: int) -> list:
        ops = []
        for g, n, r in self.shapes:
            rho = surfrep.smooth_instance(g, n, r, seed=input_seed(self.seed, k)).representation
            if expected_tangent_dim(rho.surface) == 0:
                continue            # rigid shape: no direction to deform along
            ops.append(Op(shape_name(g, n, r), self._runner(rho),
                          self._checker(shape_name(g, n, r))))
        expected = OBSTRUCTION_ORDER + (1 if self._tampered(k, 0) else 0)
        ops.append(Op("obstructed", _run_obstructed, _obstruction_checker(expected)))
        return ops

    @staticmethod
    def _runner(rho):
        def run():
            direction = surfrep.tangent_direction(rho, 0)
            state = surfrep.build_deformation(rho, direction, order=ORDER)
            return state, surfrep.verify_deformation(state)
        return run

    @staticmethod
    def _checker(label: str):
        def check(out):
            state, verify = out
            slope = verify["slope"]
            failed = [name for name, good in (
                ("order", state.order == ORDER),
                ("slope", slope_ok(slope, ORDER) and verify["passed"]),
            ) if not good]
            return failed, {"shape": label, "order": state.order, "slope": rounded_slope(slope)}
        return check


def _run_obstructed():
    rho, direction = surfrep.obstructed_instance()
    try:
        surfrep.build_deformation(rho, direction, order=ORDER)
    except surfrep.ObstructionFound as exc:
        return exc.order
    return None


def _obstruction_checker(expected: int):
    def check(order):
        failed = [] if order == expected else ["obstruction_order"]
        return failed, {"shape": "obstructed", "obstruction_order": order}
    return check


class CliPipeline(Workload):
    name = "cli-pipeline"
    in_process = False
    tail_percentile = 50
    setup_rounds = 16
    min_rounds = 3              # >= 24 samples: p50 keeps 10 beyond it
    trace_rounds = 1
    STEPS = ("solve", "analyze", "symplectic", "deform")

    def __init__(self, *args, workdir: Path, **kwargs):
        super().__init__(*args, **kwargs)
        self.workdir = workdir
        self.env = dict(os.environ)
        src = str(self.root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old

    def input_sizes(self) -> dict:
        return {"surfaces": {"readme": [0, 2, 4], "generated": list(GENERATED_SHAPE)},
                "steps": list(self.STEPS), "order": ORDER, "solver_seed": self.seed}

    def _surfaces(self) -> dict:
        g, n, r = GENERATED_SHAPE
        generated = surfrep.smooth_instance(g, n, r, seed=input_seed(self.seed, 0))
        return {"readme": surfrep.SurfaceData.from_dict(README_SURFACE),
                "generated": generated.representation.surface}

    def _argvs(self, k: int):
        """(label, surface, argv) per step; files live in the round's directory."""
        out = []
        base = self.workdir / f"round{k}"
        base.mkdir(parents=True, exist_ok=True)
        for tag, surface in self._surfaces().items():
            surf = base / f"{tag}-surface.json"
            surf.write_text(json.dumps(surface.to_dict()))
            point = base / f"{tag}-point.json"
            for step in self.STEPS:
                target = point if step == "solve" else base / f"{tag}-{step}.json"
                argv = [step, "--input", str(surf if step == "solve" else point),
                        "--seed", str(self.seed), "--output", str(target)]
                if step == "deform":
                    argv += ["--order", str(ORDER), "--direction", "0"]
                out.append((f"{tag}.{step}", surface, argv, target))
        return out

    def make_round(self, k: int) -> list:
        return [Op(label, self._subprocess(argv, target), self._checker(label, surface, target, i, k))
                for i, (label, surface, argv, target) in enumerate(self._argvs(k))]

    def in_process_round(self, k: int) -> list:
        return [Op(label, self._in_process(argv, target), self._checker(label, surface, target, i, k))
                for i, (label, surface, argv, target) in enumerate(self._argvs(k))]

    def _subprocess(self, argv, target: Path):
        cmd = [sys.executable, "-m", "surfrep.cli"] + argv

        def run():
            target.unlink(missing_ok=True)
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
            return proc.returncode
        return run

    @staticmethod
    def _in_process(argv, target: Path):
        def run():
            target.unlink(missing_ok=True)
            return surfrep.cli.main(argv)
        return run

    def _checker(self, label: str, surface, target: Path, i: int, k: int):
        expected_exit = 1 if self._tampered(k, i) else 0
        expected_dim = expected_tangent_dim(surface)
        step = label.split(".")[1]

        def check(code):
            inv = {"call": label, "exit": code}
            if code != expected_exit:
                return ["exit_code"], inv
            try:
                doc = json.loads(target.read_text())
            except (OSError, ValueError):
                return ["output_parses"], inv
            failed = []
            if step == "deform":
                slope = doc["verify"]["slope"]
                slope = float(slope) if isinstance(slope, str) else slope
                inv["slope"] = rounded_slope(slope)
                if not (slope_ok(slope, ORDER) and doc["verify"]["passed"]):
                    failed.append("slope")
                return failed, inv
            analysis = doc["analysis"]
            inv["tangent"] = analysis["tangent_dim"]
            inv["expected"] = analysis["expected_dim"]
            if not (analysis["tangent_dim"] == analysis["expected_dim"] == expected_dim):
                failed.append("tangent_dim")
            if not (analysis["smooth"] and analysis["irreducible"]):
                failed.append("smooth_irreducible")
            if step == "solve" and not doc["solver"]["residual"] <= 1e-10:
                failed.append("residual")
            if step == "symplectic":
                g = np.array(doc["gram"]["entries"], dtype=float).reshape(
                    doc["gram"]["basis_dim"], doc["gram"]["basis_dim"])
                inv["gram_rank"] = doc["gram"]["rank"]
                if doc["gram"]["rank"] != analysis["tangent_dim"]:
                    failed.append("gram_rank")
                if np.linalg.norm(g + g.T) > SKEW_TOL * max(1.0, float(np.linalg.norm(g))):
                    failed.append("gram_skew")
            return failed, inv
        return check


WORKLOADS = {w.name: w for w in (ApiCertify, ApiDeform, CliPipeline)}
