#!/usr/bin/env python3
"""Run the hard deformation cases and print one JSON row per case.

Cases:
  rank1-sweep  every rank-1 corpus shape at seeds 0-3, tangent direction 0
               scaled by 10^0 ... 10^6 in quarter decades
  d-sweep      genus 1, rank 2, one puncture, class angles pi +- d/2, for
               d = 10^-1 ... 10^-14 at solver seeds 0-3
  obstructed   `obstructed_instance()`
  torus        the once-punctured rank-2 torus at the trivial point with the
               identity class, directions (i sx, i sz) and (i sz, 2 i sz)
  genus2-cone  the genus-2 trivial point, direction (i sx, i sz, 2 i sz, i sx / 2),
               which lies in the quadratic cone [X1, Y1] + [X2, Y2] = 0
  overflow     `smooth_instance(1, 2, 1)` with direction 0 scaled by 1e40,
               1e60 and 1e80
  genus0-wall  genus 0, rank 2, four punctures, SU(2) half-angles
               (0.5, 0.5, 0.5, 1.5 -+ 10^-k) for k = 2, 4, 6, 8, 10 at
               solver seeds 0-3: the partial products reach half-angles up
               to 1.5, so the closing half-angle lies just inside or just
               outside the interval that admits a point

Each case is `build_deformation(order=4)` followed by `verify_deformation`,
along tangent direction 0 of a genus0-wall row's solve; a solve that
raises is the row, with the type of its error as the outcome.
A row holds the case and its parameters; `outcome`, "built" or the type of
the error raised; `order`, the order built or the obstructed order;
`residual`, the largest order residual of a build or the obstruction's
norm; `relative`, the obstruction's relative norm (null for a build);
`verify_passed` and `slope` (null without a build); `exit`, the exit code
the `surfrep` command gives (0 for a build, the error's `exit_code` for a
SurfrepError, 1 for a ValueError, null otherwise); `tangent`, the
computed [tangent_dim, expected_dim] of a d-sweep row's point (null on
the other cases); `wall_s`, the time of the build and the verify (and of
the solve, on genus0-wall rows); and a
`verdict`: right, refused (the input is too large for double precision),
wrong, or undecided.  `item` names the ROADMAP item that decides an
undecided row or mends a wrong one.

With --diff PARENT.jsonl CHANGE.jsonl it runs nothing: it reads two such
tables, matched row by row on case and params, prints each row whose
outcome, order, verify_passed, exit, tangent or verdict moved as {"case",
"params", "moved": {field: [parent, change]}}, a row present in only one
table with its side, and then one count per case.  A field that an older
table lacks reads as null, and an older table's `tangent` in a d-sweep
row's params is read as the row's field.

Usage: PYTHONPATH=src python scripts/hard_cases.py
       PYTHONPATH=src python scripts/hard_cases.py --diff PARENT.jsonl CHANGE.jsonl
"""

import argparse
import json
import math
import time

import numpy as np

from surfrep import (
    ConjugacyClass,
    NonexistenceError,
    ObstructionFound,
    Representation,
    SolverConfig,
    SurfaceData,
    SurfrepError,
    analyze,
    build_deformation,
    obstructed_instance,
    smooth_instance,
    solve,
    tangent_direction,
    verify_deformation,
)
from surfrep.corpus import CORPUS_SHAPES

ORDER = 4
SEEDS = range(4)
# the ROADMAP items that decide or mend a row: 2, existence decided before
# the solver runs; 9, obstructions that are obstructions; 10, certificates
# that notice a degenerating class; 11, scale-free obstruction verdicts and
# the verify grid
EXISTENCE, OBSTRUCTIONS, CERTIFICATES, MAJORANTS = 2, 9, 10, 11

SX = np.array([[0, 1j], [1j, 0]])
SZ = np.array([[1j, 0], [0, -1j]])


def _number(x):
    """A float as JSON keeps it: non-finite values as strings."""
    if x is None or math.isfinite(x):
        return x
    return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")


def _refused(exc):
    """The measured fields of a row that ended in `exc`."""
    if isinstance(exc, SurfrepError):
        code = exc.exit_code
    else:
        code = 1 if isinstance(exc, ValueError) else None
    return {"outcome": type(exc).__name__, "order": None, "residual": None,
            "relative": None, "verify_passed": None, "slope": None, "exit": code}


def _run(rho, direction):
    """Build to ORDER and verify; the row's measured fields."""
    t0 = time.perf_counter()
    row = {"outcome": "built", "order": ORDER, "residual": None, "relative": None,
           "verify_passed": None, "slope": None, "exit": 0}
    try:
        # an overflow is refused with ValueError, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            state = build_deformation(rho, direction, order=ORDER)
    except ObstructionFound as exc:
        row = _refused(exc)
        row.update(order=exc.order, residual=exc.residual_norm, relative=exc.relative_norm)
    except Exception as exc:  # a refusal is a row too
        row = _refused(exc)
    else:
        report = verify_deformation(state)
        row.update(residual=max(state.residual_norms), verify_passed=report["passed"],
                   slope=report["slope"])
    row["wall_s"] = time.perf_counter() - t0
    return row


def _judge(row, obstructed_at=None, item=None):
    """Verdict of a row whose direction provably extends to every order
    (`obstructed_at` None) or is obstructed at order `obstructed_at`;
    `item` mends a wrong verdict."""
    outcome = row["outcome"]
    if outcome == "ValueError":
        return "refused", None
    if obstructed_at is not None:
        right = outcome == "ObstructionFound" and row["order"] == obstructed_at
        return ("right", None) if right else ("wrong", item)
    if outcome != "built":
        return "wrong", item
    # a build whose default grid misses the series' radius is for item 11
    return ("right", None) if row["verify_passed"] else ("undecided", MAJORANTS)


def _emit(case, params, row, verdict, tangent=None):
    row = dict(case=case, params=params, **row, tangent=tangent)
    row["verdict"], row["item"] = verdict
    print(json.dumps({k: _number(v) if isinstance(v, float) else v for k, v in row.items()},
                     allow_nan=False), flush=True)


def rank1_sweep():
    # u(1) is abelian: every parabolic direction extends to every order
    for genus, rank, punctures in CORPUS_SHAPES:
        if rank != 1:
            continue
        for seed in SEEDS:
            rho = smooth_instance(genus, rank, punctures, seed).representation
            direction = tangent_direction(rho, 0)
            for quarter in range(25):
                row = _run(rho, 10.0 ** (quarter / 4) * direction)
                _emit("rank1-sweep", {"shape": [genus, rank, punctures], "seed": seed,
                                      "log10_scale": quarter / 4},
                      row, _judge(row, item=MAJORANTS))


def d_sweep():
    for k in range(1, 15):
        d = 10.0 ** -k
        surface = SurfaceData(1, 1, 2, (ConjugacyClass((math.pi + d / 2, math.pi - d / 2)),))
        for seed in SEEDS:
            params = {"d": d, "seed": seed}
            rho = solve(surface, SolverConfig(seed=seed)).representation
            report = analyze(rho)
            row = _run(rho, tangent_direction(rho, 0))
            if report.tangent_dim == report.expected_dim:
                verdict = _judge(row, item=MAJORANTS)
            elif row["verify_passed"]:
                verdict = "right", None
            else:
                # the rank decisions disagree with the dimension count
                verdict = "undecided", CERTIFICATES
            _emit("d-sweep", params, row, verdict,
                  tangent=[report.tangent_dim, report.expected_dim])


def genus0_wall():
    for k in range(2, 11, 2):
        for side, sign in (("inside", -1), ("outside", 1)):
            closing = 1.5 + sign * 10.0 ** -k
            surface = SurfaceData(0, 4, 2, tuple(ConjugacyClass((h, -h))
                                                 for h in (0.5, 0.5, 0.5, closing)))
            for seed in SEEDS:
                t0 = time.perf_counter()
                try:
                    rho = solve(surface, SolverConfig(seed=seed)).representation
                    direction = tangent_direction(rho, 0)
                except Exception as exc:  # a refusal is a row too
                    row = _refused(exc)
                    # outside the interval no point exists, which item 2
                    # decides before any restart
                    right = side == "outside" and isinstance(exc, NonexistenceError)
                    verdict = ("right", None) if right else ("wrong", EXISTENCE)
                else:
                    row = _run(rho, direction)
                    verdict = _judge(row, item=EXISTENCE)
                row["wall_s"] = time.perf_counter() - t0
                _emit("genus0-wall", {"closing": closing, "side": side, "seed": seed},
                      row, verdict)


def trivial_point(genus, direction):
    """The trivial rank-2 point of the genus-g surface with one puncture of
    identity class, and a direction given on the handle generators."""
    surface = SurfaceData(genus, 1, 2, (ConjugacyClass((0.0, 0.0)),))
    rho = Representation.from_free_images(surface, [np.eye(2)] * (2 * genus))
    return rho, np.array(direction)


def named_cases():
    rho, direction = obstructed_instance()
    row = _run(rho, direction)
    _emit("obstructed", {}, row, _judge(row, obstructed_at=2))

    # [X, Y] != 0 is the order-2 obstruction at the trivial point
    row = _run(*trivial_point(1, [SX, SZ]))
    _emit("torus", {"direction": "(i sx, i sz)"}, row, _judge(row, obstructed_at=2))
    row = _run(*trivial_point(1, [SZ, 2 * SZ]))
    _emit("torus", {"direction": "(i sz, 2 i sz)"}, row, _judge(row))

    # a quadratic cone (Goldman-Millson): a direction on it extends
    row = _run(*trivial_point(2, [SX, SZ, 2 * SZ, SX / 2]))
    _emit("genus2-cone", {"direction": "(i sx, i sz, 2 i sz, i sx / 2)"}, row,
          _judge(row, item=OBSTRUCTIONS))

    rho = smooth_instance(1, 2, 1).representation
    direction = tangent_direction(rho, 0)
    for scale in (1e40, 1e60, 1e80):
        row = _run(rho, scale * direction)
        _emit("overflow", {"shape": [1, 2, 1], "scale": scale}, row,
              _judge(row, item=CERTIFICATES))


# the fields of a row that say what happened; residuals and times move freely
COMPARED = ("outcome", "order", "verify_passed", "exit", "tangent", "verdict")


def _table(path):
    """The rows of a table, keyed on case and params, in file order."""
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    for row in rows:
        if "tangent" in row["params"]:
            row["tangent"] = row["params"].pop("tangent")
    return {(row["case"], json.dumps(row["params"], sort_keys=True)): row for row in rows}


def diff(parent_path, change_path) -> None:
    parent, change = _table(parent_path), _table(change_path)
    counts = {}
    for key in list(parent) + [k for k in change if k not in parent]:
        case, params = key[0], json.loads(key[1])
        count = counts.setdefault(case, {"rows": 0, "moved": 0})
        count["rows"] += 1
        if key not in parent or key not in change:
            count["moved"] += 1
            side = "parent" if key in parent else "change"
            print(json.dumps({"case": case, "params": params, "only_in": side}))
            continue
        moved = {f: [parent[key].get(f), change[key].get(f)] for f in COMPARED
                 if parent[key].get(f) != change[key].get(f)}
        if moved:
            count["moved"] += 1
            print(json.dumps({"case": case, "params": params, "moved": moved}))
    for case, count in counts.items():
        print(f"{case}: {count['moved']} of {count['rows']} rows moved")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two tables instead of running the cases")
    args = parser.parse_args(argv)
    if args.diff:
        diff(*args.diff)
        return
    rank1_sweep()
    d_sweep()
    named_cases()
    genus0_wall()


if __name__ == "__main__":
    main()
