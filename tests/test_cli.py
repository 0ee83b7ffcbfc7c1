"""End-to-end command behavior: schemas, exit codes, composition."""

import json

import numpy as np
import pytest

from surfrep import cli
from surfrep.corpus import obstructed_instance
from surfrep.deformation import build_deformation
from surfrep.errors import ObstructionFound
from surfrep.serialize import encode_values, point_to_dict

HALF_PI = float(np.pi / 2)

FOUR_PUNCTURE = {
    "genus": 0, "punctures": 4, "rank": 2,
    "classes": [[HALF_PI, -HALF_PI]] * 4,
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_writes_full_document(tmp_path, capsys):
    inp = _write(tmp_path, "surf.json", FOUR_PUNCTURE)
    code, out, _ = _run(capsys, ["solve", "--input", inp])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) >= {"surface", "images", "analysis", "relation_residual",
                        "class_residuals", "solver", "manifest"}
    assert doc["analysis"]["irreducible"] is True
    assert doc["analysis"]["tangent_dim"] == 2
    assert doc["relation_residual"] <= 1e-10
    assert doc["manifest"]["tool_version"] == cli.TOOL_VERSION
    assert doc["manifest"]["command"] == "solve"
    # matrices serialize as nested [re, im] pairs
    assert isinstance(doc["images"][0][0][0], list)


def test_output_flag_writes_file(tmp_path, capsys):
    inp = _write(tmp_path, "surf.json", FOUR_PUNCTURE)
    outp = str(tmp_path / "solve.json")
    code, out, _ = _run(capsys, ["solve", "--input", inp, "--output", outp])
    assert code == 0
    assert out == ""
    with open(outp) as fh:
        assert json.load(fh)["manifest"]["command"] == "solve"


def test_commands_compose_by_piping_files(tmp_path, capsys):
    inp = _write(tmp_path, "surf.json", FOUR_PUNCTURE)
    solved = str(tmp_path / "solve.json")
    assert cli.main(["solve", "--input", inp, "--output", solved]) == 0
    capsys.readouterr()

    code, out, _ = _run(capsys, ["analyze", "--input", solved])
    assert code == 0
    assert json.loads(out)["analysis"]["smooth"] is True

    code, out, _ = _run(capsys, ["symplectic", "--input", solved])
    assert code == 0
    gram = json.loads(out)["gram"]
    assert gram["basis_dim"] == 2
    assert gram["rank"] == 2
    assert gram["normalization"] == "lemma4.1"

    code, out, _ = _run(capsys, ["deform", "--input", solved, "--order", "3",
                                 "--direction", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["deformation"]["order"] == 3
    assert doc["verify"]["passed"] is True
    assert doc["manifest"]["config"]["direction"] == 1


def test_deform_t_samples_flag(tmp_path, capsys):
    inp = _write(tmp_path, "surf.json", FOUR_PUNCTURE)
    code, out, _ = _run(capsys, ["deform", "--input", inp, "--order", "2",
                                 "--t-samples", "0.05,0.01"])
    assert code == 0
    assert json.loads(out)["verify"]["ts"] == [0.05, 0.01]

    code, _, err = _run(capsys, ["deform", "--input", inp,
                                 "--t-samples", "0.1,-0.2"])
    assert code == 1


@pytest.mark.parametrize("flags", [
    ["--t-samples", "nan,0.01"], ["--t-samples", "inf,0.01"],
    ["--t-samples", "0.5"], ["--t-samples", "0.1,0.1"],
    ["--t-samples", "0,0.01"], ["--t-samples", "0.1,-0.2"],
    ["--t-samples", "0.1,x"], ["--order", "0"],
], ids=["nan", "inf", "single", "repeated", "zero", "negative", "word", "order-0"])
def test_bad_deform_flags_exit_1_before_solving(tmp_path, capsys, monkeypatch, flags):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before the flags were checked")

    monkeypatch.setattr(cli, "solve", no_solve)
    inp = _write(tmp_path, "surf.json", FOUR_PUNCTURE)
    code, out, err = _run(capsys, ["deform", "--input", inp] + flags)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


# a 2x2 identity as [re, im] pairs; the 4-punctured sphere has free rank 3
_IDENTITY = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize("content,kind", [
    (None, "FileNotFoundError"),
    ("{not json", "JSONDecodeError"),
    (json.dumps({"values": [_IDENTITY] * 2}), "ValueError"),
    (json.dumps([_IDENTITY] * 3), "ValueError"),
    (json.dumps({"values": [[1.0, 2.0]] * 3}), "ValueError"),
], ids=["missing", "malformed", "wrong-length", "not-an-object", "not-matrices"])
def test_bad_direction_file_exits_1_before_solving(tmp_path, capsys, monkeypatch,
                                                   content, kind):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before the direction file was checked")

    monkeypatch.setattr(cli, "solve", no_solve)
    inp = _write(tmp_path, "surf.json", FOUR_PUNCTURE)
    dirf = tmp_path / "dir.json"
    if content is not None:
        dirf.write_text(content)
    code, out, err = _run(capsys, ["deform", "--input", inp, "--direction-file", str(dirf)])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == kind


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = _run(capsys, ["analyze", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "JSONDecodeError"


def test_schema_violation_exits_1(tmp_path, capsys):
    inp = _write(tmp_path, "bad.json", {"genus": 0, "punctures": 4, "rank": 2,
                                        "classes": [[0.1, 0.2]]})
    code, _, err = _run(capsys, ["analyze", "--input", inp])
    assert code == 1
    assert "error" in json.loads(err)


@pytest.mark.parametrize("field,value", [
    ("genus", 1.7), ("punctures", 4.5), ("rank", 2.5), ("genus", float("nan")),
])
def test_non_integer_topology_exits_1(tmp_path, capsys, field, value):
    inp = _write(tmp_path, "bad.json", {**FOUR_PUNCTURE, field: value})
    code, out, err = _run(capsys, ["solve", "--input", inp])
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert field in error["message"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_angle_exits_1(tmp_path, capsys, bad):
    # json writes these as NaN / Infinity, which json.load reads back
    classes = [[HALF_PI, -HALF_PI]] * 3 + [[HALF_PI, bad]]
    inp = _write(tmp_path, "bad.json", {**FOUR_PUNCTURE, "classes": classes})
    code, out, err = _run(capsys, ["solve", "--input", inp])
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert "finite" in error["message"]


def test_missing_file_exits_1(capsys):
    code, _, err = _run(capsys, ["analyze", "--input", "/nonexistent.json"])
    assert code == 1


def test_usage_error_exits_1(capsys, tmp_path):
    inp = _write(tmp_path, "surf.json", FOUR_PUNCTURE)
    code, _, _ = _run(capsys, ["deform", "--input", inp, "--order", "x"])
    assert code == 1
    code, _, _ = _run(capsys, ["frobnicate", "--input", inp])
    assert code == 1


def test_infeasible_surface_exits_2(tmp_path, capsys):
    inp = _write(tmp_path, "bad.json", {
        "genus": 1, "punctures": 1, "rank": 1, "classes": [[1.0]],
    })
    code, _, err = _run(capsys, ["solve", "--input", inp, "--max-iters", "60",
                                 "--restarts", "2"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "NoConvergenceError"


def test_reducible_point_exits_3(tmp_path, capsys):
    rho, _ = obstructed_instance()
    inp = _write(tmp_path, "point.json", point_to_dict(rho))
    code, _, err = _run(capsys, ["symplectic", "--input", inp])
    assert code == 3
    assert json.loads(err)["error"]["type"] == "ReducibleError"


def test_obstructed_deformation_exits_4(tmp_path, capsys):
    rho, direction = obstructed_instance()
    inp = _write(tmp_path, "point.json", point_to_dict(rho))
    dirf = _write(tmp_path, "dir.json", {"values": encode_values(direction)})
    code, _, err = _run(capsys, ["deform", "--input", inp, "--order", "2",
                                 "--direction-file", dirf])
    assert code == 4
    payload = json.loads(err)["error"]
    assert payload["type"] == "ObstructionFound"
    assert "order 2" in payload["message"]


def test_obstruction_payload_carries_order_and_residual_norm(tmp_path, capsys):
    # like exit 2's restart_residuals, exit 4 says where the extension stopped
    rho, direction = obstructed_instance()
    with pytest.raises(ObstructionFound) as exc:
        build_deformation(rho, direction, order=3)
    inp = _write(tmp_path, "point.json", point_to_dict(rho))
    dirf = _write(tmp_path, "dir.json", {"values": encode_values(direction)})
    code, _, err = _run(capsys, ["deform", "--input", inp, "--order", "3",
                                 "--direction-file", dirf])
    assert code == 4
    payload = json.loads(err)["error"]
    assert payload["order"] == exc.value.order == 2
    assert payload["residual_norm"] == exc.value.residual_norm > 1.0


def test_deform_output_reports_the_linear_rank(tmp_path, capsys):
    inp = _write(tmp_path, "surf.json", FOUR_PUNCTURE)
    code, out, _ = _run(capsys, ["deform", "--input", inp, "--order", "2"])
    assert code == 0
    info = json.loads(out)["deformation"]["linear_rank"]
    assert set(info) == {"rank", "smallest_kept", "largest_dropped"}
    assert info["rank"] > 0
    assert info["smallest_kept"] > 1e-3 > 1e-12 > info["largest_dropped"]

    code, out, _ = _run(capsys, ["deform", "--input", inp, "--order", "1"])
    assert code == 0
    assert json.loads(out)["deformation"]["linear_rank"] is None


def test_analyze_does_not_refuse_non_smooth_points(tmp_path, capsys):
    rho, _ = obstructed_instance()
    inp = _write(tmp_path, "point.json", point_to_dict(rho))
    code, out, _ = _run(capsys, ["analyze", "--input", inp])
    assert code == 0
    doc = json.loads(out)
    assert doc["analysis"]["irreducible"] is False
    assert doc["analysis"]["relative_h2_dim"] == 1


def test_solve_output_is_deterministic(tmp_path, capsys):
    inp = _write(tmp_path, "surf.json", FOUR_PUNCTURE)
    docs = []
    for _ in range(2):
        code, out, _ = _run(capsys, ["solve", "--input", inp, "--seed", "9"])
        assert code == 0
        doc = json.loads(out)
        doc["manifest"].pop("timings")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert cli.TOOL_VERSION in capsys.readouterr().out


@pytest.mark.parametrize("classes", [None, [HALF_PI] * 4], ids=["null", "bare-number"])
def test_malformed_classes_exit_1(tmp_path, capsys, classes):
    inp = _write(tmp_path, "bad.json", {**FOUR_PUNCTURE, "classes": classes})
    code, out, err = _run(capsys, ["solve", "--input", inp])
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert "classes" in error["message"]


def test_no_convergence_payload_lists_restart_residuals(tmp_path, capsys):
    inp = _write(tmp_path, "bad.json", {
        "genus": 1, "punctures": 1, "rank": 1, "classes": [[1.0]],
    })
    code, _, err = _run(capsys, ["solve", "--input", inp, "--max-iters", "60",
                                 "--restarts", "3"])
    assert code == 2
    residuals = json.loads(err)["error"]["restart_residuals"]
    assert len(residuals) == 3
    assert all(r > 1e-10 for r in residuals)
