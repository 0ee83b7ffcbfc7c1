"""The package runs on numpy alone: scipy is a test-only dependency.

The test process itself imports scipy (it is the oracle for several
kernels), so the check runs the whole public pipeline and two CLI calls
in a fresh interpreter and inspects that interpreter's sys.modules.
"""

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
