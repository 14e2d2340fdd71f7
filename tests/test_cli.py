import json

import pytest

from realsurf.ambient import e, k3
from realsurf.cli import main, parse_class_expression


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


# --- class expressions ---------------------------------------------------------


def test_parse_class_expression():
    amb = k3()
    s, f = amb.named_class("s"), amb.named_class("f")
    assert parse_class_expression(amb, "s+2f") == s + 2 * f
    assert parse_class_expression(amb, "-s") == -s
    assert parse_class_expression(amb, "3*f - s") == 3 * f - s
    amb3 = e(3)
    assert parse_class_expression(amb3, "s1") == amb3.named_class("s1")
    with pytest.raises(ValueError):
        parse_class_expression(amb, "s+2q")
    with pytest.raises(ValueError):
        parse_class_expression(amb, "")


# --- ambient info ----------------------------------------------------------------


def test_ambient_info_json(capsys):
    code, data, _ = _run_json(capsys, "ambient", "info", "e(3)")
    assert code == 0
    assert data["label"] == "E(3)"
    assert data["rank"] == 34
    assert data["signature"] == [5, 29, 0]
    assert data["euler_char"] == 36
    assert data["named_classes"]["s"]["square"] == -3
    assert data["named_classes"]["s"]["c1_pairing"] == -1
    assert data["named_classes"]["f"]["c1_pairing"] == 0


def test_ambient_info_unknown_name(capsys):
    code, out, err = _run(capsys, "ambient", "info", "t9")
    assert code == 1
    assert "unknown ambient" in err


# --- invariants ------------------------------------------------------------------


def test_invariants_oriented_class(capsys):
    code, data, _ = _run_json(
        capsys, "invariants", "--ambient", "k3", "--chi", "-2", "--class", "s+2f"
    )
    assert code == 0
    assert data["i_total"] == 0
    assert data["i_plus"] == 0 and data["i_minus"] == 0
    assert data["totally_real_possible"] is True


def test_invariants_nonorientable(capsys):
    code, data, _ = _run_json(
        capsys,
        "invariants", "--ambient", "k3", "--chi", "-1", "--nonorientable",
        "--normal-euler", "1",
    )
    assert code == 0
    assert data["i_total"] == 0
    assert data["i_plus"] is None
    assert data["stein_basis_possible"] is True


def test_invariants_requires_class_or_normal_euler(capsys):
    code, _, err = _run(capsys, "invariants", "--ambient", "k3", "--chi", "0")
    assert code == 1
    assert "normal-euler" in err


# --- certify / verify --------------------------------------------------------------


def test_certify_stein_disc_example(capsys):
    code, data, _ = _run_json(capsys, "certify", "stein-disc", "--genus", "3", "--euler", "4")
    assert code == 0
    assert data["ambient"] == {"base": "E(2)", "blow_ups": 0}
    assert data["claimed"]["i_plus"] == 0
    assert data["claimed"]["normal_euler"] == 4


def test_certify_infeasible_exit_2(capsys):
    code, data, _ = _run_json(capsys, "certify", "stein-disc", "--genus", "1", "--euler", "1")
    assert code == 2
    assert data["status"] == "infeasible"
    assert "n <= 2g-2" in data["reason"]


def test_certify_no_recipe_exit_2(capsys):
    code, data, _ = _run_json(
        capsys, "certify", "totally-real", "--chi", "-1", "--ambient", "k3"
    )
    assert code == 2
    assert data["status"] == "no-recipe"


def test_certify_verify_round_trip(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "certify", "totally-real-oriented", "--genus", "4", "--format", "json"
    )
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, data, _ = _run_json(capsys, "verify", str(path))
    assert code == 0
    assert data["passed"] is True
    assert all(c["ok"] for c in data["checks"])


def test_verify_tampered_exit_1(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "certify", "stein-disc", "--genus", "2", "--euler", "0", "--format", "json"
    )
    cert = json.loads(out)
    cert["claimed"]["i_total"] += 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert))
    code, data, _ = _run_json(capsys, "verify", str(path))
    assert code == 1
    assert data["passed"] is False
    failing = [c["name"] for c in data["checks"] if not c["ok"]]
    assert failing == ["claimed count I"]


def test_verify_garbage_exit_1(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{broken")
    code, _, err = _run(capsys, "verify", str(path))
    assert code == 1
    assert "not valid JSON" in err


def test_certify_output_deterministic(capsys):
    _, out1, _ = _run(capsys, "certify", "stein-disc-nonorientable",
                      "--chi", "-2", "--euler", "-1", "--format", "json")
    _, out2, _ = _run(capsys, "certify", "stein-disc-nonorientable",
                      "--chi", "-2", "--euler", "-1", "--format", "json")
    assert out1 == out2


# --- massey ------------------------------------------------------------------------


def test_massey(capsys):
    code, data, _ = _run_json(capsys, "massey", "0")
    assert code == 0
    assert data["normal_euler_range"] == [-4, 0, 4]
    assert data["achievable_counts"] == [-4, 0, 4]
    code, _, _ = _run(capsys, "massey", "2")
    assert code == 1


# --- bishop ------------------------------------------------------------------------


def test_bishop_classify_parabolic(capsys):
    code, data, _ = _run_json(
        capsys, "bishop", "classify", "--a", "0", "--b", "1", "--c", "0.5"
    )
    assert code == 0
    assert data["alpha"] == pytest.approx(1.0)
    assert data["type"] == "parabolic"


def test_bishop_classify_complex_entries(capsys):
    code, data, _ = _run_json(
        capsys, "bishop", "classify", "--a", "0.3+0.1i", "--b", "1", "--c", "0.25"
    )
    assert code == 0
    assert data["alpha"] == pytest.approx(2.0)
    assert data["type"] == "elliptic"


def test_bishop_classify_bad_number(capsys):
    code, _, err = _run(capsys, "bishop", "classify", "--a", "zap", "--b", "1", "--c", "1")
    assert code == 1
    assert "complex" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--a", "0", "--b", "1", "--c", "0", "--tol", "-1"],
        ["classify", "--a", "0", "--b", "1", "--c", "0.5", "--parabolic-tol", "-1"],
        ["scan", "--surface", "graph-normal-form:inf", "--tol", "-1"],
        ["scan", "--surface", "graph-normal-form:inf", "--max-refine", "-1"],
    ],
    ids=["classify-tol", "classify-parabolic-tol", "scan-tol", "scan-max-refine"],
)
def test_bishop_negative_tolerance_exit_1(capsys, argv):
    code, out, err = _run(capsys, "bishop", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("realsurf: error:")


def test_bishop_scan_torus(capsys):
    code, data, _ = _run_json(
        capsys, "bishop", "scan", "--surface", "flat-torus", "--grid", "64"
    )
    assert code == 0
    assert data["points"] == []
    assert data["i_total"] == 0
    assert data["passed"] is True


def test_bishop_scan_graph_points_only(capsys):
    code, data, _ = _run_json(
        capsys, "bishop", "scan", "--surface", "graph-normal-form:2", "--grid", "64"
    )
    assert code == 0
    assert len(data["points"]) == 1
    point = data["points"][0]
    assert point["type"] == "elliptic"
    assert point["index"] == 1
    assert "i_total" not in data  # open surface: no survey tallies


def test_bishop_scan_unknown_surface(capsys):
    code, _, err = _run(capsys, "bishop", "scan", "--surface", "klein")
    assert code == 1
    assert "unknown builtin" in err


def test_verify_from_stdin(monkeypatch, capsys):
    import io

    code, out, _ = _run(capsys, "certify", "totally-real", "--chi", "-2",
                        "--ambient", "e3", "--format", "json")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, data, _ = _run_json(capsys, "verify", "-")
    assert code == 0
    assert data["passed"] is True


def test_bishop_scan_text_points_one_line_each(capsys):
    code, out, _ = _run(
        capsys, "bishop", "scan", "--surface", "round-sphere", "--grid", "64"
    )
    assert code == 0
    point_lines = [line for line in out.splitlines() if "chart=" in line]
    assert len(point_lines) == 2
    assert all("alpha=" in line and "type=" in line and "index=" in line for line in point_lines)


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["certify", "stein-disc", "--genus", "x", "--euler", "0"])
    assert info.value.code == 1


def test_text_format_runs(capsys):
    code, out, _ = _run(capsys, "massey", "-1")
    assert code == 0
    assert "normal_euler_range" in out
