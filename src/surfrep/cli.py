"""Command line front end.

Four subcommands, all reading a JSON input file and writing one JSON
document (stdout by default, --output for a file):

    solve       find a class-constrained representation and certify it
    analyze     cohomology dimensions and smoothness diagnostics
    symplectic  Gram matrix of the symplectic form on the tangent basis
    deform      extend a tangent direction to a truncated family

The input is either a surface description

    {"genus": 1, "punctures": 1, "rank": 2, "classes": [[1.0, -1.0]]}

or a previously emitted output containing "surface" and "images", in
which case the stored point is reused instead of solving again, so the
commands compose by piping files.

Every document has one layout (`_document`): the point ("surface",
"images"), the command's own sections, "solver" when the command solved,
and the run "manifest" (command, input, config, seed, tool_version,
timings).  The sections are "analysis", "relation_residual" and
"class_residuals" for solve, "analysis" for analyze, "analysis" and
"gram" for symplectic, "deformation" and "verify" for deform.  Bad solver
flags (--tol, --restarts, --max-iters) are refused before any work, on a
saved point too.

Exit codes: 0 success, 1 invalid input, 2 solver failed to converge,
3 the point is reducible (the same condition as not smooth), 4 the
deformation is obstructed, 5 the point cannot be certified in double
precision (two rank methods disagree, a transform met a near-singular
matrix, or an irreducible point's tangent dimension is not the expected
one).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .cohomology import analyze
from .corpus import tangent_direction
from .deformation import DEFAULT_VERIFY_TS, build_deformation, check_t_samples, verify_deformation
from .errors import (
    DimensionMismatchError,
    NearSingularError,
    NoConvergenceError,
    NotParabolicError,
    NumericalRankError,
    ObstructionFound,
    ReducibleError,
)
from .pairing import gram_matrix
from .presentation import SurfaceData
from .serialize import (
    Stopwatch,
    TOOL_VERSION,
    canonical_json,
    decode_values,
    point_from_dict,
    point_to_dict,
)
from .solver import SolverConfig, solve
from .unitary import is_skew_hermitian

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2
EXIT_NOT_SMOOTH_POINT = 3
EXIT_OBSTRUCTED = 4
EXIT_UNCERTIFIABLE = 5


class _Parser(argparse.ArgumentParser):
    # usage problems are invalid input, not solver failures
    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="surfrep", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "find and certify a representation"),
        ("analyze", "dimension and smoothness report"),
        ("symplectic", "Gram matrix on the tangent basis"),
        ("deform", "order-by-order deformation"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True,
                       help="JSON file: surface data or a saved point")
        p.add_argument("--output", default=None,
                       help="write the JSON result here instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-10,
                       help="solver convergence tolerance")
        p.add_argument("--restarts", type=int, default=8)
        p.add_argument("--max-iters", type=int, default=500)

    p_def = sub.choices["deform"]
    p_def.add_argument("--order", type=int, default=4,
                       help="truncation order of the family")
    p_def.add_argument("--direction", type=int, default=0,
                       help="column of the tangent basis to deform along")
    p_def.add_argument("--direction-file", default=None,
                       help="JSON file {\"values\": [...]} with explicit "
                            "cocycle values, overrides --direction")
    p_def.add_argument("--t-samples", default=None,
                       help="comma separated t values for the decay check")
    return parser


def _load_input(path: str):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    if "images" in data:
        rho = point_from_dict(data)
        rho.validate()
        return rho.surface, rho
    return SurfaceData.from_dict(data), None


def _point(config: SolverConfig, surface: SurfaceData, rho):
    """The point and the solve result, solving only when no point was given."""
    if rho is not None:
        return rho, None
    result = solve(surface, config)
    return result.representation, result


def _load_direction(path: str, surface: SurfaceData):
    """The cocycle values of a --direction-file, one finite skew-Hermitian
    N x N matrix per free generator of the surface."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "values" not in data:
        raise ValueError('direction file must be a JSON object with "values"')
    try:
        direction = decode_values(data["values"])
    except (TypeError, IndexError) as e:
        raise ValueError(f"direction values must be matrices of [re, im] pairs: {e}") from e
    n = surface.rank
    want = (surface.presentation.free_rank, n, n)
    if direction.shape != want:
        raise ValueError(f"direction must give one {n}x{n} value per free generator: "
                         f"shape {want}, got {direction.shape}")
    if not is_skew_hermitian(direction):
        raise ValueError("direction values must be finite and skew-Hermitian")
    return direction


def _document(args, config: SolverConfig, watch: Stopwatch, rho, result,
              sections: dict, extra_config=None) -> dict:
    """The output of every command: the point, the command's sections, the
    solve result when the command solved, and the run manifest."""
    document = {**point_to_dict(rho), **sections}
    if result is not None:
        document["solver"] = result.to_dict()
    document["manifest"] = {
        "command": args.command,
        "input": {"path": args.input},
        "config": {**dataclasses.asdict(config), **(extra_config or {})},
        "seed": args.seed,
        "tool_version": TOOL_VERSION,
        "timings": watch.timings(),
    }
    return document


def _cmd_solve(args, config, watch) -> dict:
    rho, result = _point(config, *_load_input(args.input))
    report = analyze(rho)
    if not report.irreducible:
        raise ReducibleError("every converged restart gave a reducible representation"
                             if result is not None else "the saved point is reducible")
    return _document(args, config, watch, rho, result, {
        "analysis": report.to_dict(),
        "relation_residual": rho.relation_residual(),
        "class_residuals": [float(x) for x in rho.class_residuals()],
    })


def _cmd_analyze(args, config, watch) -> dict:
    rho, result = _point(config, *_load_input(args.input))
    return _document(args, config, watch, rho, result,
                     {"analysis": analyze(rho).to_dict()})


def _cmd_symplectic(args, config, watch) -> dict:
    rho, result = _point(config, *_load_input(args.input))
    report = analyze(rho)
    return _document(args, config, watch, rho, result, {
        "analysis": report.to_dict(),
        "gram": gram_matrix(rho, report=report).to_dict(),
    })


def _cmd_deform(args, config, watch) -> dict:
    if args.order < 1:
        raise ValueError("--order must be at least 1")
    if args.direction < 0:
        raise ValueError("--direction must be non-negative")
    ts = (DEFAULT_VERIFY_TS if args.t_samples is None
          else check_t_samples(args.t_samples.split(",")))
    surface, rho = _load_input(args.input)
    direction = (None if args.direction_file is None
                 else _load_direction(args.direction_file, surface))
    rho, result = _point(config, surface, rho)
    if direction is None:
        direction = tangent_direction(rho, args.direction)
    # a residual that overflows is refused by its own ValueError; numpy's
    # overflow warnings would put text before the JSON error on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        state = build_deformation(rho, direction, args.order)
    return _document(
        args, config, watch, rho, result,
        {"deformation": state.to_dict(), "verify": verify_deformation(state, ts)},
        {"order": args.order, "direction": args.direction,
         "direction_file": args.direction_file},
    )


_COMMANDS = {
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "symplectic": _cmd_symplectic,
    "deform": _cmd_deform,
}


def _emit(payload: dict, output: str | None) -> None:
    text = canonical_json(payload)
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _fail(code: int, kind: str, message: str, **details) -> int:
    error = {"type": kind, "message": message, **details}
    sys.stderr.write(canonical_json({"error": error}))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        watch = Stopwatch()
        # solver flags are refused before any work, saved point or not
        config = SolverConfig(max_iters=args.max_iters, tol=args.tol,
                              seed=args.seed, restarts=args.restarts)
        payload = _COMMANDS[args.command](args, config, watch)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        return _fail(EXIT_INVALID, type(e).__name__, str(e))
    except NotParabolicError as e:
        return _fail(EXIT_INVALID, "NotParabolicError", str(e))
    except NoConvergenceError as e:
        return _fail(EXIT_NO_CONVERGENCE, "NoConvergenceError", str(e),
                     restart_residuals=list(e.restart_residuals))
    except ReducibleError as e:
        return _fail(EXIT_NOT_SMOOTH_POINT, "ReducibleError", str(e))
    except ObstructionFound as e:
        return _fail(EXIT_OBSTRUCTED, "ObstructionFound", str(e),
                     order=e.order, residual_norm=e.residual_norm,
                     relative_norm=e.relative_norm)
    except (NumericalRankError, NearSingularError) as e:
        return _fail(EXIT_UNCERTIFIABLE, type(e).__name__, str(e))
    except DimensionMismatchError as e:
        return _fail(EXIT_UNCERTIFIABLE, "DimensionMismatchError", str(e),
                     tangent_dim=e.tangent_dim, expected_dim=e.expected_dim)
    _emit(payload, args.output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
