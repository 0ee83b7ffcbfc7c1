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

Exit codes: 0 success, 1 invalid input, 2 solver failed to converge,
3 the point is reducible or not smooth, 4 the deformation is obstructed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .cohomology import analyze
from .corpus import tangent_direction
from .deformation import DEFAULT_VERIFY_TS, build_deformation, check_t_samples, verify_deformation
from .errors import (
    NoConvergenceError,
    NotParabolicError,
    NotSmoothError,
    ObstructionFound,
    ReducibleError,
)
from .pairing import gram_matrix
from .presentation import SurfaceData
from .serialize import (
    RunManifest,
    Stopwatch,
    TOOL_VERSION,
    canonical_json,
    decode_values,
    point_from_dict,
    point_to_dict,
)
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2
EXIT_NOT_SMOOTH_POINT = 3
EXIT_OBSTRUCTED = 4


class _Parser(argparse.ArgumentParser):
    # usage problems are invalid input, not solver failures
    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="surfrep", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True,
                       help="JSON file: surface data or a saved point")
        p.add_argument("--output", default=None,
                       help="write the JSON result here instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-10,
                       help="solver convergence tolerance")
        p.add_argument("--restarts", type=int, default=8)
        p.add_argument("--max-iters", type=int, default=500)

    p_solve = sub.add_parser("solve", help="find and certify a representation")
    common(p_solve)

    p_analyze = sub.add_parser("analyze", help="dimension and smoothness report")
    common(p_analyze)

    p_sym = sub.add_parser("symplectic", help="Gram matrix on the tangent basis")
    common(p_sym)

    p_def = sub.add_parser("deform", help="order-by-order deformation")
    common(p_def)
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


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        max_iters=args.max_iters,
        tol=args.tol,
        seed=args.seed,
        restarts=args.restarts,
    )


def _solve_missing(args, surface: SurfaceData, rho):
    """The point and the solve result, solving only when no point was given."""
    if rho is not None:
        return rho, None
    result = solve(surface, _solver_config(args))
    return result.representation, result


def _obtain_point(args):
    """The input point, solving when only a surface was given."""
    return _solve_missing(args, *_load_input(args.input))


def _load_direction(path: str, surface: SurfaceData):
    """The cocycle values of a --direction-file, one N x N matrix per free
    generator of the surface."""
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
    return direction


def _manifest(args, watch: Stopwatch, extra_config=None) -> dict:
    config = dataclasses.asdict(_solver_config(args))
    if extra_config:
        config.update(extra_config)
    return RunManifest(
        command=args.command,
        input={"path": args.input},
        config=config,
        seed=args.seed,
        timings=watch.timings(),
    ).to_dict()


def _cmd_solve(args) -> dict:
    watch = Stopwatch()
    rho, result = _obtain_point(args)
    report = analyze(rho)
    if not report.irreducible:
        raise ReducibleError(
            "every converged restart gave a reducible representation"
        )
    payload = point_to_dict(rho)
    payload["analysis"] = report.to_dict()
    payload["relation_residual"] = rho.relation_residual()
    payload["class_residuals"] = [float(x) for x in rho.class_residuals()]
    if result is not None:
        payload["solver"] = result.to_dict()
    payload["manifest"] = _manifest(args, watch)
    return payload


def _cmd_analyze(args) -> dict:
    watch = Stopwatch()
    rho, result = _obtain_point(args)
    payload = point_to_dict(rho)
    payload["analysis"] = analyze(rho).to_dict()
    if result is not None:
        payload["solver"] = result.to_dict()
    payload["manifest"] = _manifest(args, watch)
    return payload


def _cmd_symplectic(args) -> dict:
    watch = Stopwatch()
    rho, result = _obtain_point(args)
    report = analyze(rho)
    gram = gram_matrix(rho, report=report)
    payload = point_to_dict(rho)
    payload["analysis"] = report.to_dict()
    payload["gram"] = gram.to_dict()
    if result is not None:
        payload["solver"] = result.to_dict()
    payload["manifest"] = _manifest(args, watch)
    return payload


def _cmd_deform(args) -> dict:
    watch = Stopwatch()
    if args.order < 1:
        raise ValueError("--order must be at least 1")
    ts = (DEFAULT_VERIFY_TS if args.t_samples is None
          else check_t_samples(args.t_samples.split(",")))
    surface, rho = _load_input(args.input)
    direction = (None if args.direction_file is None
                 else _load_direction(args.direction_file, surface))
    rho, result = _solve_missing(args, surface, rho)
    if direction is None:
        direction = tangent_direction(rho, args.direction)
    state = build_deformation(rho, direction, args.order)
    payload = point_to_dict(rho)
    payload["deformation"] = state.to_dict()
    payload["verify"] = verify_deformation(state, ts)
    if result is not None:
        payload["solver"] = result.to_dict()
    payload["manifest"] = _manifest(
        args, watch,
        {"order": args.order, "direction": args.direction},
    )
    return payload


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
        payload = _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        return _fail(EXIT_INVALID, type(e).__name__, str(e))
    except NotParabolicError as e:
        return _fail(EXIT_INVALID, "NotParabolicError", str(e))
    except NoConvergenceError as e:
        return _fail(EXIT_NO_CONVERGENCE, "NoConvergenceError", str(e),
                     restart_residuals=list(e.restart_residuals))
    except (ReducibleError, NotSmoothError) as e:
        return _fail(EXIT_NOT_SMOOTH_POINT, type(e).__name__, str(e))
    except ObstructionFound as e:
        return _fail(EXIT_OBSTRUCTED, "ObstructionFound", str(e),
                     order=e.order, residual_norm=e.residual_norm)
    _emit(payload, args.output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
