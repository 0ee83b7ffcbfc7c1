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
                            "verify_passed", "slope", "exit", "wall_s", "verdict", "item"}
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
        assert row["item"] in {None, 2, 9, 10, 11}
        assert row["verdict"] != "undecided" or row["item"] is not None
    # 6 rank-1 shapes x 4 seeds x 25 scales; 14 d x 4 seeds; 5 k x 2 sides x 4 seeds
    assert counts == {"rank1-sweep": 600, "d-sweep": 56, "obstructed": 1, "torus": 2,
                      "genus2-cone": 1, "overflow": 3, "genus0-wall": 40}


def test_hard_cases_diff_prints_moved_rows_and_counts(tmp_path):
    def row(case, params, **fields):
        base = {"case": case, "params": params, "outcome": "built", "order": 4,
                "residual": 1e-9, "relative": None, "verify_passed": True, "slope": 5.0,
                "wall_s": 0.01, "verdict": "right", "item": None}
        return json.dumps({**base, **fields})

    parent = [row("rank1-sweep", {"seed": 0}), row("rank1-sweep", {"seed": 1}),
              row("torus", {"direction": "x"}, outcome="ObstructionFound", order=2,
                  verify_passed=None, slope=None)]
    # a residual and a time that move are not a moved row; an order is
    change = [row("rank1-sweep", {"seed": 0}, residual=2e-9, wall_s=0.02),
              row("rank1-sweep", {"seed": 1}, outcome="ObstructionFound", order=3,
                  verify_passed=None, slope=None, verdict="wrong", item=10),
              row("torus", {"direction": "x"}, outcome="ObstructionFound", order=3,
                  verify_passed=None, slope=None)]
    paths = []
    for name, rows in (("parent.jsonl", parent), ("change.jsonl", change)):
        paths.append(tmp_path / name)
        paths[-1].write_text("\n".join(rows) + "\n")
    lines = _run_script("hard_cases.py", "--diff", *map(str, paths))
    assert [json.loads(line) for line in lines[:2]] == [
        {"case": "rank1-sweep", "params": {"seed": 1},
         "moved": {"outcome": ["built", "ObstructionFound"], "order": [4, 3],
                   "verify_passed": [True, None], "verdict": ["right", "wrong"]}},
        {"case": "torus", "params": {"direction": "x"}, "moved": {"order": [2, 3]}},
    ]
    assert lines[2:] == ["rank1-sweep: 1 of 2 rows moved", "torus: 1 of 1 rows moved"]


def test_hard_cases_diff_reads_a_field_an_older_table_lacks_as_null(tmp_path):
    row = {"case": "torus", "params": {}, "outcome": "built", "order": 4, "residual": 1e-9,
           "relative": None, "verify_passed": True, "slope": 5.0, "wall_s": 0.01,
           "verdict": "right", "item": None}
    paths = [tmp_path / "parent.jsonl", tmp_path / "change.jsonl"]
    paths[0].write_text(json.dumps(row) + "\n")
    paths[1].write_text(json.dumps({**row, "exit": 0}) + "\n")
    lines = _run_script("hard_cases.py", "--diff", *map(str, paths))
    assert [json.loads(line) for line in lines[:1]] == [
        {"case": "torus", "params": {}, "moved": {"exit": [None, 0]}}]
    assert lines[1:] == ["torus: 1 of 1 rows moved"]


def test_cli_outputs_runs_calls_and_a_directory_diffs_empty_against_itself(tmp_path):
    out = tmp_path / "out"
    lines = _run_script("cli_outputs.py", "--tree", str(ROOT), "--out", str(out),
                        "--only", "readme-analyze", "exit1-nonexistent")
    assert lines == ["readme-analyze: exit 0", "exit1-nonexistent: exit 1"]
    assert (out / "readme-analyze.exit").read_text() == "0\n"
    assert (out / "exit1-nonexistent.exit").read_text() == "1\n"
    doc = json.loads((out / "readme-analyze.out").read_text())
    assert doc["manifest"]["timings"] == {} and doc["analysis"]["tangent_dim"] == 2
    assert json.loads((out / "exit1-nonexistent.err").read_text())["error"]["type"] == \
        "NonexistenceError"
    assert _run_script("cli_outputs.py", "--diff", str(out), str(out)) == [
        "0 of 2 calls differ"]
