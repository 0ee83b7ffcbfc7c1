"""End-to-end command behavior: schemas, exit codes, composition."""

import json

import numpy as np
import pytest

from surfrep import cli
from surfrep.corpus import obstructed_instance, smooth_instance, tangent_direction
from surfrep.deformation import build_deformation
from surfrep.errors import ObstructionFound
from surfrep.serialize import encode_values, point_from_dict, point_to_dict
from surfrep.solver import SolveResult

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
    assert doc["manifest"]["config"]["direction_file"] is None

    # an explicit direction file overrides --direction; the manifest says so
    with open(solved) as fh:
        rho = point_from_dict(json.load(fh))
    dirf = _write(tmp_path, "dir.json", {"values": encode_values(tangent_direction(rho, 1))})
    code, out, _ = _run(capsys, ["deform", "--input", solved, "--order", "3",
                                 "--direction-file", dirf])
    assert code == 0
    via_file = json.loads(out)
    assert via_file["manifest"]["config"]["direction_file"] == dirf
    assert via_file["deformation"] == doc["deformation"]


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
    ["--t-samples", "0.1,x"], ["--order", "0"], ["--direction", "-1"],
], ids=["nan", "inf", "single", "repeated", "zero", "negative", "word", "order-0",
        "direction-negative"])
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
# a 2x2 zero but for one NaN entry
_NAN = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


@pytest.mark.parametrize("content,kind", [
    (None, "FileNotFoundError"),
    ("{not json", "JSONDecodeError"),
    (json.dumps({"values": [_IDENTITY] * 2}), "ValueError"),
    (json.dumps([_IDENTITY] * 3), "ValueError"),
    (json.dumps({"values": [[1.0, 2.0]] * 3}), "ValueError"),
    (json.dumps({"values": [_IDENTITY] * 3}), "ValueError"),
    (json.dumps({"values": [_NAN] * 3}), "ValueError"),
], ids=["missing", "malformed", "wrong-length", "not-an-object", "not-matrices",
        "hermitian", "nan"])
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


def test_direction_with_a_hermitian_part_exits_1(tmp_path, capsys):
    # the residuals and verify see only the skew part of a direction, so a
    # Hermitian part would ride along in deformation.h[0] unchecked
    rho = smooth_instance(0, 2, 4).representation
    direction = tangent_direction(rho, 0) + 0.3 * np.eye(2)
    inp = _write(tmp_path, "point.json", point_to_dict(rho))
    dirf = _write(tmp_path, "dir.json", {"values": encode_values(direction)})
    code, out, err = _run(capsys, ["deform", "--input", inp, "--direction-file", dirf])
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert "skew-Hermitian" in error["message"]


def test_direction_too_large_for_the_residuals_exits_1(tmp_path, capsys):
    # the order-2 residual is NaN.  numpy's overflow warnings, errors
    # under this suite's warning filter, must not reach stderr either
    rho = smooth_instance(1, 2, 1).representation
    inp = _write(tmp_path, "point.json", point_to_dict(rho))
    dirf = _write(tmp_path, "dir.json",
                  {"values": encode_values(1e120 * tangent_direction(rho, 0))})
    code, out, err = _run(capsys, ["deform", "--input", inp, "--direction-file", dirf])
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert "order 2 is not finite" in error["message"]


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("punctures,classes", [
    (4, [[HALF_PI, -HALF_PI]] * 3 + [[HALF_PI, 0.5 - HALF_PI]]),
    (3, [[0.1, -0.1], [0.1, -0.1], [3.0, -3.0]]),
], ids=["angle-sum", "triangle"])
def test_unmet_sphere_solve_exits_2(tmp_path, capsys, punctures, classes):
    # no closed polygon: the genus-0 rank-2 start stays the draw, every
    # restart runs and the solver gives up with each restart's residual
    inp = _write(tmp_path, "bad.json", {
        "genus": 0, "punctures": punctures, "rank": 2, "classes": classes,
    })
    code, out, err = _run(capsys, ["solve", "--input", inp])
    assert code == 2
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "NoConvergenceError"
    assert len(payload["restart_residuals"]) == 8
    assert all(r > 1e-10 for r in payload["restart_residuals"])


def test_reducible_point_exits_3(tmp_path, capsys):
    rho, _ = obstructed_instance()
    inp = _write(tmp_path, "point.json", point_to_dict(rho))
    code, _, err = _run(capsys, ["symplectic", "--input", inp])
    assert code == 3
    assert json.loads(err)["error"]["type"] == "ReducibleError"


@pytest.mark.parametrize("genus,code", [(1, 3), (2, 0)])
def test_identity_class_solve_exit_code(tmp_path, capsys, genus, code):
    # rank 2, identity class: on the torus only commuting pairs meet the
    # relation, so every converged restart is reducible; genus 2 has
    # irreducible points
    inp = _write(tmp_path, "surface.json", {
        "genus": genus, "punctures": 1, "rank": 2, "classes": [[0.0, 0.0]],
    })
    got, _, err = _run(capsys, ["solve", "--input", inp])
    assert got == code
    if code == 3:
        assert json.loads(err)["error"]["type"] == "ReducibleError"


def test_reducible_message_tells_a_saved_point_from_a_solve(tmp_path, capsys, monkeypatch):
    rho, _ = obstructed_instance()
    inp = _write(tmp_path, "point.json", point_to_dict(rho))
    code, _, err = _run(capsys, ["solve", "--input", inp])
    assert code == 3
    assert json.loads(err)["error"]["message"] == "the saved point is reducible"
    # a surface input whose solve converges to that reducible point
    result = SolveResult(rho, 0.0, 0, 0, False, ())
    monkeypatch.setattr(cli, "solve", lambda surface, config: result)
    inp = _write(tmp_path, "surface.json", rho.surface.to_dict())
    code, _, err = _run(capsys, ["solve", "--input", inp])
    assert code == 3
    assert (json.loads(err)["error"]["message"]
            == "every converged restart gave a reducible representation")


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
    assert payload["relative_norm"] == exc.value.relative_norm > 0.5


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


def test_rank_disagreement_exits_5_with_payload(tmp_path, capsys, monkeypatch):
    # SVD and pivoted QR disagreeing means the point cannot be certified in
    # double precision: exit 5 with a structured payload, not a traceback
    import surfrep.linalg as linalg

    rho, _ = obstructed_instance()
    inp = _write(tmp_path, "point.json", point_to_dict(rho))
    qr = linalg.rank_pivoted_qr
    monkeypatch.setattr(linalg, "rank_pivoted_qr", lambda m, *a: qr(m, *a) + 1)
    code, out, err = _run(capsys, ["analyze", "--input", inp])
    assert code == cli.EXIT_UNCERTIFIABLE == 5
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "NumericalRankError"
    assert "rank methods disagree" in payload["message"]


def test_near_singular_transform_exits_5_with_payload(tmp_path, capsys, monkeypatch):
    import surfrep.solver as solver
    import surfrep.unitary as unitary

    # every corpus start is exact and takes no Cayley step, so the solve
    # starts from the raw draw here (the identity in place of
    # `_exact_start`) and has to step
    monkeypatch.setattr(solver, "_exact_start", lambda point: point)
    surface = smooth_instance(0, 3, 3).representation.surface
    inp = _write(tmp_path, "surf.json", surface.to_dict())
    monkeypatch.setattr(unitary, "is_skew_hermitian", lambda x: False)
    code, out, err = _run(capsys, ["solve", "--input", inp])
    assert code == 5
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload == {"type": "NearSingularError",
                       "message": "Cayley input is not skew-Hermitian"}


def test_direction_outside_the_tangent_basis_exits_1(tmp_path, capsys):
    # a column index past the tangent dimension is refused, not wrapped
    rho = smooth_instance(1, 2, 1).representation
    inp = _write(tmp_path, "point.json", point_to_dict(rho))
    code, out, err = _run(capsys, ["deform", "--input", inp, "--direction", "99"])
    assert code == 1
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "ValueError"
    assert "direction 99 is outside [0, 4)" in payload["message"]


def test_dimension_mismatch_exits_5_with_both_numbers(tmp_path, capsys):
    # genus 1, rank 2, class angles pi +- d/2: at d = 1e-8 the tangent
    # decision gives 3 where a smooth irreducible point must have 4
    def symplectic(d):
        surface = {"genus": 1, "punctures": 1, "rank": 2,
                   "classes": [[np.pi + d / 2, np.pi - d / 2]]}
        return _run(capsys, ["symplectic", "--input", _write(tmp_path, "surf.json", surface)])

    code, out, err = symplectic(1e-8)
    assert code == cli.EXIT_UNCERTIFIABLE == 5
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "DimensionMismatchError"
    assert (payload["tangent_dim"], payload["expected_dim"]) == (3, 4)
    code, out, _ = symplectic(1e-3)
    assert code == 0
    assert json.loads(out)["analysis"]["tangent_dim"] == 4


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_1_before_solving(tmp_path, capsys, monkeypatch, tol):
    # bad solver flags are refused before any work, on a saved point too
    def no_work(*args, **kwargs):
        raise AssertionError("work ran with a non-finite tol")

    for name in ("solve", "analyze", "tangent_direction"):
        monkeypatch.setattr(cli, name, no_work)
    surface = _write(tmp_path, "surf.json", FOUR_PUNCTURE)
    point = _write(tmp_path, "point.json",
                   point_to_dict(smooth_instance(1, 2, 1).representation))
    for command in ("solve", "analyze", "symplectic", "deform"):
        for inp in (surface, point):
            code, out, err = _run(capsys, [command, "--input", inp, "--tol", tol,
                                           "--max-iters", "1"])
            assert code == 1, (command, inp)
            assert out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "ValueError"
            assert "finite" in error["message"]


def test_negative_seed_exits_1_before_any_work(tmp_path, capsys, monkeypatch):
    # before, analyze on a saved point wrote "seed: -1" into its manifest
    # and solve died in numpy with a message naming no field
    def no_work(*args, **kwargs):
        raise AssertionError("work ran with a negative seed")

    for name in ("solve", "analyze", "tangent_direction"):
        monkeypatch.setattr(cli, name, no_work)
    surface = _write(tmp_path, "surf.json", FOUR_PUNCTURE)
    point = _write(tmp_path, "point.json",
                   point_to_dict(smooth_instance(1, 2, 1).representation))
    for command in ("solve", "analyze", "symplectic", "deform"):
        for inp in (surface, point):
            code, out, err = _run(capsys, [command, "--input", inp, "--seed", "-1"])
            assert code == 1, (command, inp)
            assert out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "ValueError"
            assert "seed" in error["message"]


_EVERY_DOCUMENT = {"surface", "images", "manifest"}
_SECTIONS = {
    "solve": {"analysis", "relation_residual", "class_residuals"},
    "analyze": {"analysis"},
    "symplectic": {"analysis", "gram"},
    "deform": {"deformation", "verify"},
}


def test_document_layout(tmp_path, capsys):
    # every command writes the point, its own sections, "solver" when it
    # solved, and the run manifest, from a surface and from a saved point
    surface = _write(tmp_path, "surf.json", FOUR_PUNCTURE)
    point = str(tmp_path / "point.json")
    assert cli.main(["solve", "--input", surface, "--output", point]) == 0
    for command, sections in _SECTIONS.items():
        for inp, solved in ((surface, True), (point, False)):
            code, out, _ = _run(capsys, [command, "--input", inp])
            assert code == 0, (command, inp)
            doc = json.loads(out)
            assert set(doc) == _EVERY_DOCUMENT | sections | ({"solver"} if solved else set())
            manifest = doc["manifest"]
            assert set(manifest) == {"command", "input", "config", "seed",
                                     "tool_version", "timings"}
            assert manifest["command"] == command
            assert manifest["input"] == {"path": inp}
            assert manifest["tool_version"] == cli.TOOL_VERSION
            assert set(manifest["timings"]) == {"seconds"}
            assert manifest["timings"]["seconds"] >= 0.0


def test_point_with_a_non_finite_image_exits_1(tmp_path, capsys):
    # a NaN fails every residual comparison, so it must be refused as such
    # before analyze reaches an SVD
    point = point_to_dict(smooth_instance(1, 2, 1).representation)
    point["images"][0][0][0][0] = float("nan")
    inp = _write(tmp_path, "point.json", point)
    code, out, err = _run(capsys, ["analyze", "--input", inp])
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert "not finite" in error["message"]


@pytest.mark.parametrize("images", [[["x"]], [[[1.0]]], 3], ids=["string", "short-pair", "number"])
def test_malformed_images_exit_1_with_payload(tmp_path, capsys, images):
    point = point_to_dict(smooth_instance(1, 2, 1).representation)
    point["images"] = images
    inp = _write(tmp_path, "point.json", point)
    code, out, err = _run(capsys, ["analyze", "--input", inp])
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert "images" in error["message"]
