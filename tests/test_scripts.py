"""Smoke tests for the scripts under scripts/: each runs to its closing line,
or prints rows of its schema."""

import json
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
    return done.stdout.splitlines()


def test_run_corpus_certifies_every_instance():
    last = _run_script("run_corpus.py", "--seeds", "1")[-1]
    assert re.fullmatch(r"15 instances, all certified smooth and irreducible, "
                        r"built in \d+\.\d\ds", last)


def test_obstruction_demo_fits_the_first_order_slope():
    last = _run_script("obstruction_demo.py")[-1]
    assert re.fullmatch(r"  fitted decay slope \d\.\d{3} "
                        r"\(a second-order family would need >= 2\.7\)", last)


def test_hard_cases_prints_one_schema_row_per_case():
    # the schema only: the verdicts are what the table reports
    rows = [json.loads(line) for line in _run_script("hard_cases.py")]
    counts = {}
    for row in rows:
        assert set(row) == {"case", "params", "outcome", "order", "residual", "relative",
                            "verify_passed", "slope", "wall_s", "verdict", "item"}
        counts[row["case"]] = counts.get(row["case"], 0) + 1
        assert isinstance(row["params"], dict) and isinstance(row["outcome"], str)
        assert row["order"] is None or row["order"] in range(1, 5)
        built = row["outcome"] == "built"
        assert isinstance(row["verify_passed"], bool) == built
        assert (row["slope"] is not None) == built
        for key in ("residual", "relative", "slope"):
            assert row[key] is None or isinstance(row[key], float) or row[key] == "inf"
        assert row["wall_s"] > 0
        assert row["verdict"] in {"right", "refused", "wrong", "undecided"}
        assert row["item"] in {None, 9, 10}
        assert row["verdict"] != "undecided" or row["item"] is not None
    # 6 rank-1 shapes x 4 seeds x 25 scales; 14 d x 4 seeds
    assert counts == {"rank1-sweep": 600, "d-sweep": 56, "obstructed": 1, "torus": 2,
                      "genus2-cone": 1, "overflow": 3}
