#!/usr/bin/env python3
"""Run a fixed list of `surfrep` CLI calls against one source tree and keep
what each call printed, or compare two such runs.

    python scripts/cli_outputs.py --tree PATH --out DIR [--only NAME ...]
    python scripts/cli_outputs.py --diff DIR_A DIR_B

The calls are solve, analyze, symplectic and deform on the README surface
(the 4-punctured sphere, rank 2, every class (pi/2, -pi/2), solved at seed
0, from the genus-0 chain start); on three saved points at seed 0, one per
rank: `smooth_instance(2, 1, 2)` (rank 1), `smooth_instance(1, 2, 2)`
(rank 2) and `smooth_instance(1, 3, 1)` (rank 3); on the surfaces of the
last two, solved at seed 0 from Goto's commutator start; and one failing
input per exit code from 1 to 4: classes whose angles miss the
determinant (1), the genus-0 wall closed at half-angle 1.51, where the
solver gives up at seed 0 (2), the Gram matrix at the reducible point of
`obstructed_instance()` (3), and the deformation there (4).  Exit 3 has
a second input, a solve: the once-punctured rank-2 torus with the
identity class, whose genericity margin is 0 and whose every converged
restart is reducible, so the solver's non-generic path runs.

Each call runs as `python -m surfrep.cli` with PYTHONPATH=PATH/src and DIR
as its working directory, so the input paths in the manifests are the
same for every tree.  The saved points, and the surfaces of the two that
are also solved, are written by the tree's own package, under DIR/inputs
with the other surfaces.  For each call NAME it writes DIR/NAME.exit, the
exit code, DIR/NAME.out, standard output, and DIR/NAME.err, standard
error; a JSON document's `manifest.timings` is blanked to {}, and the
document is written back in the CLI's own layout (sorted keys, indent 2),
so nothing else moves.

--diff prints one line per call whose files differ, or that only one
directory holds, naming the parts that differ, and for a JSON standard
output each leaf that moved with both values; then one count.  A
directory diffed against itself prints only "0 of N calls differ".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

README_SURFACE = {"genus": 0, "punctures": 4, "rank": 2,
                  "classes": [[math.pi / 2, -math.pi / 2]] * 4}
# angles summing to 0.6, not 0 mod 2 pi: no representation meets them
NONEXISTENT_SURFACE = {"genus": 0, "punctures": 3, "rank": 1,
                       "classes": [[0.1], [0.2], [0.3]]}
# SU(2) half-angles (0.5, 0.5, 0.5, 1.51): the closing class lies past the
# reach of the partial products
WALL_SURFACE = {"genus": 0, "punctures": 4, "rank": 2,
                "classes": [[h, -h] for h in (0.5, 0.5, 0.5, 1.51)]}
# the identity class on the once-punctured torus: only commuting pairs
# meet it, so every point is reducible
IDENTITY_SURFACE = {"genus": 1, "punctures": 1, "rank": 2, "classes": [[0.0, 0.0]]}

# the saved points, written by the tree under test
_POINTS = r"""
import json, sys
from surfrep import obstructed_instance, smooth_instance
from surfrep.serialize import canonical_json, point_to_dict
points = {"rank1": smooth_instance(2, 1, 2, seed=0).representation,
          "torus2": smooth_instance(1, 2, 2, seed=0).representation,
          "rank3": smooth_instance(1, 3, 1, seed=0).representation,
          "obstructed": obstructed_instance()[0]}
for name, rho in points.items():
    with open(f"inputs/{name}.json", "w") as fh:
        fh.write(canonical_json(point_to_dict(rho)))
# the points named on the command line also give their surfaces
for name in sys.argv[1:]:
    with open(f"inputs/{name}-surface.json", "w") as fh:
        fh.write(json.dumps(points[name].surface.to_dict()))
"""
# the saved points whose surfaces are also solved: genus 1, so the solver
# starts from Goto's commutator pair
GOTO_SURFACES = ("torus2", "rank3")

SURFACES = {"readme": README_SURFACE, "nonexistent": NONEXISTENT_SURFACE,
            "wall": WALL_SURFACE, "identity": IDENTITY_SURFACE}

COMMANDS = ("solve", "analyze", "symplectic", "deform")
CALLS = {
    **{f"readme-{c}": [c, "--input", "inputs/readme.json"] for c in COMMANDS},
    **{f"{point}-{c}": [c, "--input", f"inputs/{point}.json"]
       for point in ("rank1", "torus2", "rank3") for c in COMMANDS},
    **{f"{point}-solved-{c}": [c, "--input", f"inputs/{point}-surface.json"]
       for point in GOTO_SURFACES for c in COMMANDS},
    "exit1-nonexistent": ["solve", "--input", "inputs/nonexistent.json"],
    "exit2-wall": ["solve", "--input", "inputs/wall.json"],
    "exit3-reducible": ["symplectic", "--input", "inputs/obstructed.json"],
    "exit3-reducible-solve": ["solve", "--input", "inputs/identity.json"],
    "exit4-obstructed": ["deform", "--input", "inputs/obstructed.json"],
}
PARTS = ("exit", "out", "err")


def _env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree.resolve() / "src")
    return env


def _blank_timings(text: str) -> str:
    """`text` with manifest.timings set to {} when it is a CLI document."""
    try:
        doc = json.loads(text)
    except ValueError:
        return text
    if not (isinstance(doc, dict) and isinstance(doc.get("manifest"), dict)
            and "timings" in doc["manifest"]):
        return text
    doc["manifest"]["timings"] = {}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def run(tree: Path, out: Path, names) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "inputs").mkdir(exist_ok=True)
    for name, surface in SURFACES.items():
        (out / "inputs" / f"{name}.json").write_text(json.dumps(surface))
    env = _env(tree)
    subprocess.run([sys.executable, "-c", _POINTS, *GOTO_SURFACES], env=env, cwd=out,
                   check=True, timeout=300)
    for name in names:
        done = subprocess.run([sys.executable, "-m", "surfrep.cli", *CALLS[name]],
                              env=env, cwd=out, capture_output=True, text=True,
                              timeout=300)
        (out / f"{name}.exit").write_text(f"{done.returncode}\n")
        (out / f"{name}.out").write_text(_blank_timings(done.stdout))
        (out / f"{name}.err").write_text(done.stderr)
        print(f"{name}: exit {done.returncode}")


def _leaves(doc, path=""):
    """(path, value) of every leaf of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


def _moved_leaves(a: str, b: str) -> dict:
    """The leaves of two JSON texts that differ, {path: [a, b]}; {} when
    either text is not JSON."""
    try:
        left, right = dict(_leaves(json.loads(a))), dict(_leaves(json.loads(b)))
    except ValueError:
        return {}
    return {p: [left.get(p), right.get(p)] for p in sorted(set(left) | set(right))
            if left.get(p) != right.get(p)}


def diff(a: Path, b: Path) -> int:
    """Print the calls whose files differ; return their number."""
    names = sorted({p.stem for d in (a, b) for p in d.glob("*.exit")})
    differ = 0
    for name in names:
        texts = {}
        for part in PARTS:
            texts[part] = [(d / f"{name}.{part}").read_text()
                           if (d / f"{name}.{part}").exists() else None for d in (a, b)]
        parts = [part for part in PARTS if texts[part][0] != texts[part][1]]
        if not parts:
            continue
        differ += 1
        line = {"call": name, "differ": parts}
        if "out" in parts and None not in texts["out"]:
            moved = _moved_leaves(*texts["out"])
            if moved:
                line["moved"] = moved
        print(json.dumps(line))
    print(f"{differ} of {len(names)} calls differ")
    return differ


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, help="root of the source tree to run")
    parser.add_argument("--out", type=Path, help="directory for the inputs and outputs")
    parser.add_argument("--only", nargs="+", choices=sorted(CALLS), metavar="NAME",
                        help="run only these calls")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two output directories instead of running")
    args = parser.parse_args(argv)
    if args.diff:
        diff(*args.diff)
        return
    if args.tree is None or args.out is None:
        parser.error("--tree and --out are required unless --diff is given")
    run(args.tree, args.out, args.only or list(CALLS))


if __name__ == "__main__":
    main()
