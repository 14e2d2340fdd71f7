import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import realsurf
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


# the exact bytes ``certify`` prints, committed under tests/data
PINNED_CERTIFICATES = {
    "stein-disc-genus-2-euler-2": ["stein-disc", "--genus", "2", "--euler", "2"],
    "stein-disc-nonorientable-chi--1-euler--3-section-of-em": [
        "stein-disc-nonorientable", "--chi", "-1", "--euler", "-3", "--strategy", "section-of-em",
    ],
    "stein-disc-genus-30-euler--60": ["stein-disc", "--genus", "30", "--euler", "-60"],
}
DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("name", PINNED_CERTIFICATES)
def test_certify_output_is_pinned(capsys, name, fmt, ext):
    code, out, err = _run(capsys, "certify", *PINNED_CERTIFICATES[name], "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (DATA / f"certify-{name}.{ext}").read_text(encoding="utf-8")


# the exact bytes of the queries that print classes and class pairings
PINNED_QUERIES = {
    "ambient-info-e-40": ["ambient", "info", "e(40)"],
    "ambient-info-cp2-blow-ups-30": ["ambient", "info", "cp2", "--blow-ups", "30"],
    "invariants-k3-chi-0-class-s+2f-s1": [
        "invariants", "--ambient", "k3", "--chi", "0", "--class", "s+2f-s1",
    ],
}


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("name", PINNED_QUERIES)
def test_query_output_is_pinned(capsys, name, fmt, ext):
    code, out, err = _run(capsys, *PINNED_QUERIES[name], "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (DATA / f"{name}.{ext}").read_text(encoding="utf-8")


# the exact bytes of two scans: a change that moves them on purpose
# regenerates both formats and says why in CHANGES.md
PINNED_SCANS = {
    "bishop-scan-wrinkled-sphere-grid-256": ["bishop", "scan", "--surface", "wrinkled-sphere", "--grid", "256"],
    "bishop-scan-round-sphere-grid-512": ["bishop", "scan", "--surface", "round-sphere", "--grid", "512"],
}


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("name", PINNED_SCANS)
def test_scan_output_is_pinned(capsys, name, fmt, ext):
    code, out, err = _run(capsys, *PINNED_SCANS[name], "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (DATA / f"{name}.{ext}").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "text",
    [
        '{"ambient": {"base": "K3"}, "steps": [], "claimed": "x"}',
        '{"ambient": {"base": "K3"}, "steps": [], "claimed": {"disc_bundle": "x"}}',
    ],
    ids=["claimed", "disc-bundle"],
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_non_object_claims_exit_1(monkeypatch, capsys, text, fmt):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = _run(capsys, "verify", "-", "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("realsurf: error: ") and "must be a JSON object" in err
    assert len(err.splitlines()) == 1


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


# --- scanner errors, non-finite jets, tolerance defaults ----------------------------

# at this grid a zero of the detector lies on a refinement boundary: UnresolvedCluster
SCANNER_ERROR = ["bishop", "scan", "--surface", "graph-normal-form:1", "--grid", "8"]
SCANNER_ERROR_MESSAGE = "realsurf: error: detector vanishes on a refinement boundary"


def test_bishop_scan_scanner_error_exit_1(capsys):
    code, out, err = _run(capsys, *SCANNER_ERROR)
    assert code == 1
    assert out == ""
    assert err.startswith(SCANNER_ERROR_MESSAGE)


@pytest.mark.parametrize(
    "jet",
    [["--a", "1", "--b", "nan", "--c", "1"], ["--a", "1", "--b", "nan+1i", "--c", "0"]],
    ids=["nan", "nan-real-part"],
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_bishop_classify_non_finite_exit_1(capsys, jet, fmt):
    code, out, err = _run(capsys, "bishop", "classify", *jet, "--format", fmt)
    assert code == 1
    assert out == ""
    assert err.startswith("realsurf: error: cannot parse complex number")


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["scan", "--surface", "graph-normal-form:0.3", "--grid", "64"],
         ["--tol", "1e-9", "--parabolic-tol", "1e-6", "--max-refine", "12"]),
        (["classify", "--a", "0", "--b", "1", "--c", "0.5000001"],
         ["--tol", "1e-9", "--parabolic-tol", "1e-6"]),
    ],
    ids=["scan", "classify"],
)
def test_bishop_default_tolerances_equal_the_flags_spelled_out(capsys, argv, defaults):
    code, implicit, _ = _run(capsys, "bishop", *argv, "--format", "json")
    assert code == 0
    code, explicit, _ = _run(capsys, "bishop", *argv, *defaults, "--format", "json")
    assert code == 0
    assert explicit == implicit


def test_bishop_scan_surface_help_lists_the_builtins(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # one line per option
    with pytest.raises(SystemExit) as info:
        main(["bishop", "scan", "--help"])
    assert info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    line = next(line for line in lines if line.lstrip().startswith("--surface SURFACE"))
    assert line.split(None, 2)[2] == ", ".join(realsurf.bishop.BUILTIN_SURFACES)


# --- the package resolves the scanner on first use ----------------------------------

SCANNER_NAMES = ["bishop", "Jet2", "ParametrizedSurface", "PointType", "Tolerances",
                 "bishop_alpha", "builtin_surface", "classify", "find_complex_points", "survey"]


def test_package_scanner_names_resolve():
    from realsurf import Tolerances, bishop, survey

    assert realsurf.bishop is bishop
    assert survey is bishop.survey and Tolerances is bishop.Tolerances
    assert realsurf.find_complex_points is bishop.find_complex_points
    assert set(SCANNER_NAMES) <= set(dir(realsurf))
    assert "k3" in dir(realsurf)
    with pytest.raises(AttributeError, match="nope"):
        realsurf.nope


# --- the CLI as a process, the way users run it -------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"
# runs the CLI as ``python -m realsurf.cli`` does, then reports on the last
# line of stderr whether numpy and which realsurf submodules were imported
REPORT_MODULES = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('realsurf.cli', run_name='__main__')\n"
    "finally:\n"
    "    print('LOADED', *sorted(m for m in sys.modules\n"
    "                            if m == 'numpy' or m.startswith('realsurf.')), file=sys.stderr)\n"
)


def _python(*args, stdin=""):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], input=stdin, env=env,
                          capture_output=True, text=True, timeout=120)


def _cli_process(*argv, stdin=""):
    return _python("-m", "realsurf.cli", *argv, stdin=stdin)


def _cli_numpy(*argv, stdin=""):
    """Exit code, stdout, whether numpy was imported and the set of
    ``realsurf.*`` modules imported, of one CLI process."""
    proc = _python("-c", REPORT_MODULES, *argv, stdin=stdin)
    last = proc.stderr.splitlines()[-1:]
    assert last and last[0].split()[:1] == ["LOADED"], proc.stderr
    loaded = set(last[0].split()[1:])
    return proc.returncode, proc.stdout, "numpy" in loaded, loaded - {"numpy"}


EXACT_COMMANDS = {
    "massey": ["massey", "-3"],
    "invariants": ["invariants", "--ambient", "k3", "--chi", "-2", "--class", "s+2f"],
    "ambient-info": ["ambient", "info", "e(2)", "--blow-ups", "1"],
    "certify": ["certify", "stein-disc", "--genus", "3", "--euler", "4"],
}


@pytest.mark.parametrize(
    "argv",
    [
        *EXACT_COMMANDS.values(),
        ["bishop", "classify", "--a", "0.3+0.1i", "--b", "1", "--c", "0.25"],
        ["bishop", "scan", "--surface", "flat-torus", "--grid", "32"],
    ],
    ids=[*EXACT_COMMANDS, "bishop-classify", "bishop-scan"],
)
def test_cli_process_each_subcommand(argv):
    proc = _cli_process(*argv, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert isinstance(json.loads(proc.stdout), dict)


def test_cli_process_certify_piped_into_verify():
    cert = _cli_process(*EXACT_COMMANDS["certify"], "--format", "json")
    assert cert.returncode == 0
    proc = _cli_process("verify", "-", "--format", "json", stdin=cert.stdout)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_import_realsurf_does_not_import_numpy():
    proc = _python("-c", "import sys, realsurf; print('numpy' in sys.modules)")
    assert proc.returncode == 0
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("argv", EXACT_COMMANDS.values(), ids=list(EXACT_COMMANDS))
def test_exact_commands_do_not_import_numpy(argv):
    code, out, numpy_loaded, _ = _cli_numpy(*argv, "--format", "json")
    assert code == 0
    assert json.loads(out)
    assert not numpy_loaded


def test_verify_from_stdin_does_not_import_numpy():
    code, cert, _, _ = _cli_numpy(*EXACT_COMMANDS["certify"], "--format", "json")
    assert code == 0
    code, out, numpy_loaded, _ = _cli_numpy("verify", "-", "--format", "json", stdin=cert)
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert not numpy_loaded


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["certify", "stein-disc", "--genus", "1", "--euler", "1", "--format", "json"], 2),
        (["massey", "3"], 1),
    ],
    ids=["certify-infeasible", "massey-malformed"],
)
def test_exact_failures_do_not_import_numpy(argv, expected):
    code, _, numpy_loaded, _ = _cli_numpy(*argv)
    assert code == expected
    assert not numpy_loaded


def test_bishop_classify_does_not_import_numpy():
    code, _, numpy_loaded, modules = _cli_numpy("bishop", "classify", "--a", "0", "--b", "1", "--c", "0")
    assert code == 0
    assert not numpy_loaded
    assert not modules & {"realsurf.bishop", "realsurf.constructions", "realsurf.ambient",
                          "realsurf.lattice"}


@pytest.mark.parametrize("name", ["massey", "invariants", "ambient-info"])
def test_exact_queries_do_not_load_the_certificate_engine(name):
    code, _, _, modules = _cli_numpy(*EXACT_COMMANDS[name])
    assert code == 0
    assert "realsurf.constructions" not in modules


# runs the CLI as the installed ``realsurf`` script does, which imports
# realsurf.cli under its own name, then reports as REPORT_MODULES does
REPORT_SCRIPT_MODULES = (
    "import sys\n"
    "from realsurf.cli import main\n"
    "try:\n"
    "    code = main()\n"
    "finally:\n"
    "    print('LOADED', *sorted(m for m in sys.modules\n"
    "                            if m == 'numpy' or m.startswith('realsurf.')), file=sys.stderr)\n"
    "sys.exit(code)\n"
)
README = Path(__file__).resolve().parents[1] / "README.md"
# a command of README's module table -> its arguments
TABLE_COMMANDS = {
    **{name.replace("-", " "): argv for name, argv in EXACT_COMMANDS.items()},
    "verify": ["verify", "-"],
    "bishop classify": ["bishop", "classify", "--a", "0.3+0.1i", "--b", "1", "--c", "0.25"],
    "bishop scan": ["bishop", "scan", "--surface", "flat-torus", "--grid", "32"],
}


def _module_table():
    """README's table as (command, realsurf modules, numpy) rows."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| command | realsurf modules loaded | numpy |\n|---|---|---|\n")[1]
    rows = []
    for line in table.split("\n\n")[0].splitlines():
        commands, modules, numpy_loaded = line.split("|")[1:-1]
        modules = {f"realsurf.{m}" for m in re.findall(r"`(\w+)`", modules)}
        for command in re.findall(r"`([^`]+)`", commands):
            rows.append((command, modules, numpy_loaded.strip() == "yes"))
    return rows


def test_readme_module_table_names_every_command():
    assert sorted(command for command, _, _ in _module_table()) == sorted(TABLE_COMMANDS)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command, modules, numpy_loaded",
                         [pytest.param(*row, id=row[0]) for row in _module_table()])
def test_each_command_loads_exactly_its_readme_modules(command, modules, numpy_loaded, fmt):
    stdin = ""
    if command == "verify":
        stdin = _cli_process(*EXACT_COMMANDS["certify"], "--format", "json").stdout
    proc = _python("-c", REPORT_SCRIPT_MODULES, *TABLE_COMMANDS[command], "--format", fmt,
                   stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split()[1:])
    assert loaded == modules | {"realsurf.cli"} | ({"numpy"} if numpy_loaded else set())


def test_unknown_scan_surface_fails_before_numpy(capsys):
    argv = ["bishop", "scan", "--surface", "klein-bottle"]
    code, out, numpy_loaded, _ = _cli_numpy(*argv)
    assert (code, out, numpy_loaded) == (1, "", False)
    assert _run(capsys, *argv) == (1, "", (
        "realsurf: error: unknown builtin surface 'klein-bottle'; available: "
        "flat-torus, round-sphere, wrinkled-sphere, graph-normal-form:<alpha>\n"))


def test_import_realsurf_loads_no_submodule():
    proc = _python("-c", "import json, sys, realsurf\n"
                         "print(json.dumps([sorted(m for m in sys.modules if m.startswith('realsurf.')),\n"
                         "                  [n for n in dir(realsurf) if not n.startswith('_')]]))")
    assert proc.returncode == 0, proc.stderr
    modules, public = json.loads(proc.stdout)
    assert modules == []
    # the names the package offered when it imported its exact modules eagerly
    assert public == [
        "AmbientSurface", "Certificate", "HClass", "Infeasible", "Jet2", "Lattice", "NoRecipe",
        "ParametrizedSurface", "PointType", "SurfaceClass", "Tolerances", "admissible_I",
        "ambient", "bishop", "bishop_alpha", "blow_up", "builtin_surface", "by_name",
        "classify", "connected_sum", "constructions", "cp2", "determinant", "diag",
        "direct_sum", "e", "e8_neg", "embedded", "fiber_sum_check", "find_complex_points",
        "i_pm", "i_total", "importlib", "invariant_report", "k3", "lattice", "massey_set",
        "pair", "pairing", "resolve_union", "signature", "stein_basis_possible",
        "stein_disc_bundle", "stein_disc_bundle_nonorientable", "survey",
        "totally_real_nonorientable", "totally_real_oriented_in_k3", "totally_real_possible",
        "verify_certificate",
    ]


def test_package_local_model_is_the_scanners():
    from realsurf import bishop, local

    for name in ("Jet2", "PointType", "Tolerances", "bishop_alpha", "classify"):
        assert getattr(realsurf, name) is getattr(bishop, name) is getattr(local, name)


def test_cli_process_scanner_error_exit_1():
    proc = _cli_process(*SCANNER_ERROR)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(SCANNER_ERROR_MESSAGE)
    assert len(proc.stderr.splitlines()) == 1


def test_cli_process_verify_deeply_nested_json_exit_1():
    proc = _cli_process("verify", "-", stdin="[" * 200000 + "]" * 200000)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("realsurf: error: certificate is not valid JSON")
    assert len(proc.stderr.splitlines()) == 1
