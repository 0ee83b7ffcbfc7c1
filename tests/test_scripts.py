"""Smoke tests for the scripts under scripts/: each runs to its closing line."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_run_corpus_certifies_every_instance():
    last = _run_script("run_corpus.py", "--seeds", "1")
    assert re.fullmatch(r"15 instances, all certified smooth and irreducible, "
                        r"built in \d+\.\d\ds", last)


def test_obstruction_demo_fits_the_first_order_slope():
    last = _run_script("obstruction_demo.py")
    assert re.fullmatch(r"  fitted decay slope \d\.\d{3} "
                        r"\(a second-order family would need >= 2\.7\)", last)
