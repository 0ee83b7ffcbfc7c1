"""What the package depends on, and what depends on each part of it.

The package runs on numpy alone: scipy is a test-only dependency.  The
test process itself imports scipy (it is the oracle for several kernels),
so the check runs the whole public pipeline and two CLI calls in a fresh
interpreter and inspects that interpreter's sys.modules.

Every top-level function and class of the package has a caller in the
package or its scripts, or is public (in `surfrep.__all__`): code that
only the tests use lives in the tests.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import surfrep

_PIPELINE = r"""
import json, sys, tempfile
from pathlib import Path

import numpy as np

import surfrep
from surfrep import (ConjugacyClass, SolverConfig, SurfaceData, analyze,
                     build_deformation, gram_matrix, solve, verify_deformation)
from surfrep.cli import main
from surfrep.corpus import tangent_direction

surface = SurfaceData(0, 4, 2, (ConjugacyClass((np.pi / 2, -np.pi / 2)),) * 4)
rho = solve(surface, SolverConfig(seed=0)).representation
report = analyze(rho)
gram_matrix(rho, report=report)
verify_deformation(build_deformation(rho, tangent_direction(rho, 0), order=2))

with tempfile.TemporaryDirectory() as tmp:
    inp = Path(tmp) / "surface.json"
    inp.write_text(json.dumps(surface.to_dict()))
    for command in ("solve", "analyze"):
        out = str(Path(tmp) / (command + ".json"))
        assert main([command, "--input", str(inp), "--output", out]) == 0

print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_pipeline_and_cli_never_import_scipy():
    src = str(Path(surfrep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _PIPELINE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


# Called nowhere in the package; the benchmark counts their calls by name
# (presentation.word_evals, linalg.min_norm_solves).
_BENCHMARK_COUNTED = {"extend_cocycle", "min_norm_solve"}


def _unreferenced_definitions(roots):
    """Top-level functions and classes of src/surfrep that no other code in
    `roots` refers to, by name or attribute; a definition's references to
    itself do not count."""
    defined, referenced = set(), set()
    for root in roots:
        in_package = root.name == "surfrep"
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for stmt in tree.body:
                names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    names.discard(stmt.name)
                    if in_package:
                        defined.add(stmt.name)
                referenced |= names
    return defined - referenced


def test_every_package_definition_has_a_caller():
    root = Path(surfrep.__file__).resolve().parent
    dead = _unreferenced_definitions([root, root.parents[1] / "scripts"])
    assert dead - set(surfrep.__all__) - _BENCHMARK_COUNTED == set()
