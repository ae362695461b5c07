"""Exit codes, stderr discipline, JSON determinism, and the golden reports.

Golden files pin the complete analyze output for the three bundled
reference problems.  They are compared byte for byte: any schema or
numeric drift must be intentional and go through scripts/refresh_goldens.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kovex import AnalysisError, analyze, degeneration
from kovex.cli import main

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden"

OBSTRUCTED = """
variables = [x:1, y:1, z:1]
F.1 = "-x^2"
F.2 = "x*z"
F.3 = "x*z + y^2"
"""


@pytest.mark.parametrize("stem", ["weierstrass", "cubic_pair",
                                  "painleve1_coupled_4d"])
def test_analyze_matches_golden_byte_for_byte(stem, tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", str(PROBLEMS / f"{stem}.kov"),
                 "--json", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.json").read_bytes()


@pytest.mark.parametrize("stem", ["weierstrass", "cubic_pair",
                                  "painleve1_coupled_4d"])
def test_golden_reports_round_trip(stem):
    raw = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n" == raw


def test_analyze_returns_what_the_cli_prints(capsys):
    text = (PROBLEMS / "cubic_pair.kov").read_text(encoding="utf-8")
    result = analyze(text, "cubic_pair.kov")
    assert (json.dumps(result.report, indent=2, sort_keys=True) + "\n"
            == (GOLDEN / "cubic_pair.json").read_text(encoding="utf-8"))
    assert main(["analyze", str(PROBLEMS / "cubic_pair.kov")]) == 0
    assert capsys.readouterr().out == "\n".join(result.lines) + "\n"
    assert [locus.point for locus, _ in result.loci] == [
        tuple(Fraction(c) for c in entry["point"])
        for entry in result.report["loci"]]
    assert sorted(result.series) == [
        k for k, entry in enumerate(result.report["loci"]) if "series" in entry]
    with pytest.raises(AnalysisError, match="^x.kov: no commuting field"):
        analyze((PROBLEMS / "weierstrass.kov").read_text(), "x.kov",
                command="flow")


def test_tolerance_reaches_the_deformation_check(monkeypatch, capsys):
    seen = []
    original = degeneration.deformed_field_check

    def spy(*args, **kwargs):
        seen.append(kwargs.get("tolerance"))
        return original(*args, **kwargs)

    monkeypatch.setattr(degeneration, "deformed_field_check", spy)
    assert main(["analyze", str(PROBLEMS / "cubic_pair.kov"),
                 "--tolerance", "1e-6"]) == 0
    assert seen and all(t == 1e-6 for t in seen)


def test_repeated_runs_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        assert main(["analyze", str(PROBLEMS / "weierstrass.kov"),
                     "--json", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_flow_subcommand_prints_the_parameter_flow(tmp_path):
    # run through the real console entry so __main__ and argument wiring
    # are covered; the coupled pair is the only bundled degree-3 problem
    out = tmp_path / "flow.json"
    result = subprocess.run(
        [sys.executable, "-m", "kovex", "flow",
         str(PROBLEMS / "painleve1_coupled_4d.kov"), "--json", str(out)],
        capture_output=True, text=True, cwd=ROOT)
    assert result.returncode == 0
    assert result.stderr == ""
    assert "alpha0' = 3*alpha1" in result.stdout
    assert "alpha2' = -54*alpha1^4 + 18*alpha3" in result.stdout
    assert "predicted -3, -1, 8, 10 -> matches (3, 27, 0, -3)" in result.stdout
    report = json.loads(out.read_text(encoding="utf-8"))
    routes = [e["route"] for e in report["flow"][0]["degeneration"]["entries"]]
    assert routes.count("rescale_exact") == 1
    assert routes.count("flow_direct") == 3


def test_check_subcommand_stops_at_assumptions(capsys):
    code = main(["check", str(PROBLEMS / "painleve1_coupled_4d.kov")])
    out = capsys.readouterr().out
    assert code == 0
    assert "commutation: ok" in out
    assert "commuting degree: 3" in out
    assert "locus" not in out


def test_loci_subcommand_reports_exponents_only(capsys):
    code = main(["loci", str(PROBLEMS / "weierstrass.kov")])
    out = capsys.readouterr().out
    assert code == 0
    assert "exponents: -1, 6" in out
    assert "series" not in out


def test_truncation_flag_reaches_the_series(tmp_path):
    out = tmp_path / "report.json"
    assert main(["series", str(PROBLEMS / "weierstrass.kov"),
                 "--truncation", "6", "--json", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["options"]["truncation"] == 6
    assert report["loci"][0]["series"]["truncation"] == 6


def test_problem_file_truncation_applies_unless_the_flag_overrides(tmp_path):
    problem = tmp_path / "weierstrass.kov"
    problem.write_text((PROBLEMS / "weierstrass.kov").read_text(encoding="utf-8")
                       + "truncation = 5\n", encoding="utf-8")
    out = tmp_path / "report.json"
    for flag, expected in (([], 5), (["--truncation", "7"], 7)):
        assert main(["series", str(problem), "--json", str(out)] + flag) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["options"]["truncation"] == (7 if flag else None)
        assert report["loci"][0]["series"]["truncation"] == expected


def test_weight_inference_is_echoed(tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", str(PROBLEMS / "painleve1_auto.kov"),
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["weights"]["source"] == "inferred"
    assert report["weights"]["weights"] == [2, 3]
    assert report["weights"]["families"]


def test_missing_file_is_an_input_error(capsys):
    code = main(["analyze", "no_such_file.kov"])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot read" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_parse_error_names_the_position(tmp_path, capsys):
    bad = tmp_path / "bad.kov"
    bad.write_text("variables [x:2]\n", encoding="utf-8")
    code = main(["analyze", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "line 1" in captured.err
    assert "Traceback" not in captured.err


def test_unweightable_field_fails_with_guidance(tmp_path, capsys):
    prob = tmp_path / "free.kov"
    prob.write_text('variables = [x, y]\nF.1 = "x^2 + y"\nF.2 = "x"\n',
                    encoding="utf-8")
    code = main(["analyze", str(prob)])
    captured = capsys.readouterr()
    assert code == 1
    assert "weight inference failed" in captured.err


def test_flow_without_commuting_field_is_an_input_error(capsys):
    code = main(["flow", str(PROBLEMS / "weierstrass.kov")])
    captured = capsys.readouterr()
    assert code == 1
    assert "no commuting field" in captured.err


def test_bad_usage_exits_with_input_error_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1


def test_wrong_declared_weights_still_write_a_report(tmp_path, capsys):
    prob = tmp_path / "wrong.kov"
    prob.write_text('variables = [x:1, y:1]\nF.1 = "x^2 + y"\nF.2 = "x"\n',
                    encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["analyze", str(prob), "--json", str(out)])
    assert code == 2
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["violations"]
    assert "monomial law" in report["violations"][0]
    assert "loci" not in report


def test_obstruction_is_exit_two_with_report(tmp_path):
    prob = tmp_path / "obstructed.kov"
    prob.write_text(OBSTRUCTED, encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["analyze", str(prob), "--json", str(out)])
    assert code == 2
    report = json.loads(out.read_text(encoding="utf-8"))
    assert any("obstructed at order 2" in v for v in report["violations"])
    assert any("away from the origin" in v for v in report["violations"])
    by_point = {tuple(e["point"]): e for e in report["loci"]}
    assert by_point[("1", "0", "0")]["series"]["obstructions"] == [2]


def test_exact_values_survive_the_json(tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", str(PROBLEMS / "cubic_pair.kov"),
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    flows = {tuple(f["locus"]): f for f in report["flow"]}
    flow = flows[("1", "-2", "0", "0")]
    assert flow["shift_rate"]["polynomial"] == {"0,0,0": "-1"}
    velocities = {v["parameter"]: v for v in flow["velocities"]}
    assert velocities["alpha1"]["polynomial"] == {"0,1,0": "-1"}
    assert velocities["alpha2"]["polynomial"] == {"2,0,0": "-6"}
    assert velocities["alpha3"]["polynomial"] == {}
    deg = flow["degeneration"]
    assert deg["entries"][0]["predicted_lower_exponents"] == [
        "-1", "-1", "6", "6"]
    assert deg["entries"][0]["matched_lower_loci"] == [["1", "-2", "1", "-2"]]
    assert flow["deformation"]["k1"] == "-1"
    assert flow["deformation"]["stable"] is True
