"""Exit codes, stderr discipline, JSON determinism, and the golden reports.

Golden files pin the complete analyze output for the bundled problems
that have one under tests/golden.  They are compared byte for byte: any
schema or numeric drift must be intentional and go through
scripts/refresh_goldens.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kovex import AnalysisError, analyze, cli, degeneration
from kovex.cli import main

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden"
# the problems whose reports are pinned (scripts/refresh_goldens.py)
GOLDEN_STEMS = sorted(path.stem for path in GOLDEN.glob("*.json"))

OBSTRUCTED = """
variables = [x:1, y:1, z:1]
F.1 = "-x^2"
F.2 = "x*z"
F.3 = "x*z + y^2"
"""


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_analyze_matches_golden_byte_for_byte(stem, tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", str(PROBLEMS / f"{stem}.kov"),
                 "--json", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.json").read_bytes()


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_analyze_text_matches_golden_byte_for_byte(stem, capsys):
    assert main(["analyze", str(PROBLEMS / f"{stem}.kov")]) == 0
    assert (capsys.readouterr().out.encode("utf-8")
            == (GOLDEN / f"{stem}.txt").read_bytes())


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_golden_reports_round_trip(stem):
    raw = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n" == raw


_TEXT = st.text(st.one_of(st.sampled_from(list('"\\/\b\f\n\r\t\x00\x7f'
                                              '\u00e9\u2028\U0001d11e')),
                          st.characters()), max_size=8)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _TEXT,
              st.integers(), st.integers(-2 ** 300, 2 ** 300),
              st.floats(), st.sampled_from([float("nan"), float("inf"),
                                            float("-inf"), -0.0, 0.0])),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=500, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_is_json_dumps(value):
    # cli._dumps writes what json.dumps(..., indent=2, sort_keys=True)
    # does, byte for byte, empty containers, escapes and non-finite
    # floats included
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_golden_text_is_the_render_of_the_golden_report(stem):
    report = json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))
    assert ("\n".join(cli._render(report)) + "\n"
            == (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8"))


def test_analyze_returns_what_the_cli_prints(capsys):
    text = (PROBLEMS / "cubic_pair.kov").read_text(encoding="utf-8")
    result = analyze(text, "cubic_pair.kov")
    assert (json.dumps(result.report, indent=2, sort_keys=True) + "\n"
            == (GOLDEN / "cubic_pair.json").read_text(encoding="utf-8"))
    assert main(["analyze", str(PROBLEMS / "cubic_pair.kov")]) == 0
    assert capsys.readouterr().out == "\n".join(result.lines) + "\n"
    assert cli._render(json.loads(cli._dumps(result.report))) == list(
        result.lines)
    assert [locus.point for locus, _ in result.loci] == [
        tuple(Fraction(c) for c in entry["point"])
        for entry in result.report["loci"]]
    assert sorted(result.series) == [
        k for k, entry in enumerate(result.report["loci"]) if "series" in entry]
    with pytest.raises(AnalysisError, match="^x.kov: no commuting field"):
        analyze((PROBLEMS / "weierstrass.kov").read_text(), "x.kov",
                command="flow")


_WEIERSTRASS_F = 'variables = [x:2, y:3]\nF.1 = "y"\nF.2 = "6*x^2"\n'


@pytest.mark.parametrize("text, options, line", [
    ('variables = [q:1, p:2]\nF.1 = "p"\nF.2 = "q^3"\n', {},
     "locus (-1.41421, 1.41421)  [numeric, structured_search]"),
    ('variables = [x:1, y:1]\nF.1 = "x^2 + y"\nF.2 = "x"\n', {},
     "analysis skipped: no usable weight certificate"),
    (_WEIERSTRASS_F + 'G.1 = "y"\nG.2 = "x^2"\n', {},
     "flow analysis skipped (needs a commuting quasi-homogeneous field)"),
    (_WEIERSTRASS_F + 'G.1 = "y"\nG.2 = "6*x^2"\n', {},
     "  parameter flow is trivial; no lower predictions"),
    ((PROBLEMS / "painleve1_coupled_4d.kov").read_text(encoding="utf-8"),
     {"command": "check"}, "commuting degree: 3"),
    ((PROBLEMS / "painleve1_coupled_4d.kov").read_text(encoding="utf-8"),
     {"tolerance": 1e-6},
     "  degeneration [flow_direct] locus (0.16025, 0.0712222, -0.00461625): "
     "predicted -3, -1, 8, 10 -> matches (3, 27, 0, -3)"),
], ids=["numeric_loci", "failing_declared_weights", "non_commuting_pair",
        "trivial_flow", "check", "coupled_4d_loose_tolerance"])
def test_text_is_the_render_of_the_report(text, options, line):
    # the summary shows nothing the report lacks: rendering the written
    # --json report gives the same lines, on paths the goldens miss
    result = analyze(text, "probe.kov", **options)
    assert cli._render(json.loads(cli._dumps(result.report))) == list(
        result.lines)
    assert line in result.lines


@pytest.mark.parametrize("stem", sorted(p.stem for p in PROBLEMS.glob("*.kov")))
def test_no_series_keeps_its_prefix_tree(stem):
    # weierstrass has no G, and painleve1_coupled_4d's (3, 27, 0, -3)
    # series is not principal, so no flow expansion takes their trees over
    result = analyze((PROBLEMS / f"{stem}.kov").read_text(encoding="utf-8"),
                     f"{stem}.kov")
    assert result.series
    assert all(sol._prefixes is None for sol in result.series.values())


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


@pytest.mark.parametrize("stem", ["cubic_pair", "painleve1_coupled_4d"])
def test_tolerance_reaches_every_locus_search(stem, monkeypatch):
    # F's search, the flow subsystems' and (cubic_pair) the deformed
    # fields' all verify numeric loci to the one --tolerance
    seen = []
    for module in (cli, degeneration):
        def spy(*args, _search=module.find_loci, _site=module.__name__,
                **kwargs):
            seen.append((_site, kwargs.get("tolerance")))
            return _search(*args, **kwargs)
        monkeypatch.setattr(module, "find_loci", spy)
    analyze((PROBLEMS / f"{stem}.kov").read_text(), f"{stem}.kov",
            tolerance=1e-10)
    assert {site for site, _ in seen} == {"kovex.cli", "kovex.degeneration"}
    assert all(tol == 1e-10 for _, tol in seen)


def test_loose_tolerance_keeps_one_entry_per_numeric_locus():
    # at --tolerance 1e-6 Newton leaves the gamma = 3 flow subsystem's
    # three cube-root loci only about 1e-6 accurate; merging within
    # sqrt(tolerance) keeps one entry each and none near the origin, as at
    # the default tolerance
    stem = "painleve1_coupled_4d"
    text = (PROBLEMS / f"{stem}.kov").read_text()
    golden = json.loads((GOLDEN / f"{stem}.json").read_text())
    report = analyze(text, f"{stem}.kov", tolerance=1e-6).report

    def direct(rep):
        return [e for e in rep["flow"][0]["degeneration"]["entries"]
                if e["route"] == "flow_direct"]

    def points(rep):
        return [[complex(*x) for x in e["locus"]] for e in direct(rep)]

    pinned = points(golden)
    loose = points(report)
    assert len(loose) == len(pinned) == 3
    for point in loose:
        # the order may differ: the points agree only to about 1e-6
        near = [p for p in pinned
                if max(abs(z - w) for z, w in zip(point, p)) < 1e-4]
        assert len(near) == 1
        assert max(map(abs, point)) > 1e-2


def test_loose_tolerance_still_matches_every_numeric_prediction():
    # the same run: exponents read off loci about 1e-6 accurate are about
    # that far from the exact -3 and 10 of the lower balance, so matching
    # widens with the search tolerance as the merging does
    result = analyze((PROBLEMS / "painleve1_coupled_4d.kov").read_text(),
                     "painleve1_coupled_4d.kov", tolerance=1e-6)
    assert not any("no matching lower locus" in line for line in result.lines)
    entries = result.report["flow"][0]["degeneration"]["entries"]
    direct = [e for e in entries if e["route"] == "flow_direct"]
    assert len(direct) == 3
    assert all(e["matched_lower_loci"] == [["3", "27", "0", "-3"]]
               for e in direct)


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


def test_closed_stdout_ends_the_run_quietly(tmp_path):
    # the ten distinct cubic blocks of the CI step print about 230 kB, far
    # more than a pipe holds, so the write meets the closed pipe; the JSON
    # report is written before the summary and stays whole
    names = [(f"q{k}", f"p{k}") for k in range(1, 11)]
    lines = ["variables = [" + ", ".join(f"{q}:2, {p}:3" for q, p in names)
             + "]"]
    for k, (q, p) in enumerate(names, 1):
        lines += [f'F.{2 * k - 1} = "{p}"', f'F.{2 * k} = "{6 + k}*{q}^2"']
    prob, out = tmp_path / "blocks.kov", tmp_path / "loci.json"
    prob.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with subprocess.Popen(
            [sys.executable, "-m", "kovex", "loci", str(prob),
             "--json", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == b"problem: blocks.kov\n"
    assert stderr == b""
    assert code == 0
    assert len(json.loads(out.read_text(encoding="utf-8"))["loci"]) == 1023


_NUMPY_PROBE = """
import sys
from pathlib import Path
import kovex.cli
for stem in sys.argv[1:]:
    path = Path("problems") / f"{stem}.kov"
    kovex.cli.analyze(path.read_text(encoding="utf-8"), path.name)
    print(stem, "numpy" in sys.modules)
"""


def test_only_a_newton_run_imports_numpy():
    # the exact solver settles every locus search of these five problems,
    # so their analyses compile no float system and load no numpy;
    # painleve1_coupled_4d's gamma = 3 flow subsystem has irrational
    # balances, the points of a leaf, and their float spectra bring numpy
    # in
    exact_only = ["weierstrass", "cubic_pair", "painleve1_auto",
                  "painleve2_auto", "painleve4_auto"]
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *exact_only,
         "painleve1_coupled_4d"],
        capture_output=True, text=True, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:-1] == (
        [f"{stem} False" for stem in exact_only]
        + ["painleve1_coupled_4d True"])


SCALED_QUARTIC = ('variables = [q:1, p:2]\nF.1 = "3/10^30*p"\n'
                  'F.2 = "10^30/3*q^3"\n')


def test_scaled_quartic_reports_its_two_balances(tmp_path, capsys):
    # q' = (3/10^30) p, p' = (10^30/3) q^3 balances at q = +-sqrt 2,
    # p = -+sqrt 2 * 10^30 / 3: the roots of the leaf p^2 - 2 * 10^60 / 9.
    # Newton from unit-size starts never reached them, and the report
    # said "no indicial loci found" with exit 0
    prob = tmp_path / "scaled.kov"
    prob.write_text(SCALED_QUARTIC, encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["analyze", str(prob), "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "no indicial loci found" not in text
    assert text.count("[numeric, structured_search]") == 2
    # float noise of relative size 1e-37 on p is no imaginary part
    locus_lines = [line for line in text.splitlines()
                   if line.startswith("locus (")]
    assert len(locus_lines) == 2
    assert not any("i)" in line or "i," in line for line in locus_lines)
    loci = json.loads(out.read_text(encoding="utf-8"))["loci"]
    assert [(locus["exactness"], locus["source"]) for locus in loci] == [
        ("numeric", "structured_search")] * 2
    root = 2 ** 0.5
    for locus, sign in zip(loci, (-1, 1)):
        q, p = (complex(*z) for z in locus["point"])
        assert q == pytest.approx(sign * root, rel=1e-15)
        assert p == pytest.approx(-sign * root * 10 ** 30 / 3, rel=1e-15)
        assert [complex(*z) for z in locus["numeric_spectrum"]] == (
            pytest.approx([-1, 4], abs=1e-12))


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


@pytest.mark.parametrize("flags", [
    ["--truncation", "0"], ["--truncation", "-3"], ["--seed", "-1"],
    ["--tolerance", "-1"], ["--tolerance", "0"], ["--tolerance", "nan"],
    ["--tolerance", "inf"]])
def test_bad_flag_value_is_an_input_error(flags, capsys):
    code = main(["series", str(PROBLEMS / "weierstrass.kov"), *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags", [
    ["--truncation", "\u0663"], ["--seed", "\u0663"], ["--max-weight", "1_2"],
    ["--tolerance", "\u0661e-6"], ["--tolerance", "1_0e-6"]],
    ids=["arabic_truncation", "arabic_seed", "underscored_max_weight",
         "arabic_tolerance", "underscored_tolerance"])
def test_flag_numbers_read_ascii_digits_only(flags, capsys):
    # int() and float() alone read other scripts' digits and underscores
    with pytest.raises(SystemExit) as exc:
        main(["series", str(PROBLEMS / "weierstrass.kov"), *flags])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert f"error: argument {flags[0]}: not a" in captured.err
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


@pytest.mark.parametrize("expr", ["²*x^2", "x^²"])
def test_non_ascii_digit_is_an_input_error(expr, tmp_path, capsys):
    bad = tmp_path / "digits.kov"
    bad.write_text(f'variables = [x:2, y:3]\nF.1 = "y"\nF.2 = "{expr}"\n',
                   encoding="utf-8")
    code = main(["analyze", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert "line 3" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("body", [
    'variables = [q:1, p:2]\nF.1 = "p"\nF.2 = "q^3"\nseeds = [[1e308, 1e308]]\n',
    'variables = [x:2, y:3]\nF.1 = "y"\nF.2 = "6*x^2"\n'
    'seeds = [[1e308, -1e308]]\n',
], ids=["quartic", "weierstrass"])
def test_overflowing_seed_is_dropped_quietly(body, tmp_path):
    # Newton from such a seed overflows at the first evaluation; the start
    # is dropped without numpy warnings and without an SVD traceback
    prob = tmp_path / "huge.kov"
    prob.write_text(body, encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "kovex", "loci", str(prob)],
                            capture_output=True, text=True, cwd=ROOT)
    assert result.returncode == 0
    assert result.stderr == ""


def test_unknown_command_is_an_analysis_error():
    text = (PROBLEMS / "weierstrass.kov").read_text(encoding="utf-8")
    with pytest.raises(AnalysisError) as exc:
        analyze(text, command="bogus")
    assert str(exc.value) == ("command must be one of check, loci, series, "
                              "flow, analyze, got 'bogus'")


def test_nonpositive_max_weight_is_an_input_error(capsys):
    code = main(["analyze", str(PROBLEMS / "painleve1_auto.kov"),
                 "--max-weight=-3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: max_weight must be positive, got -3\n"
    assert captured.out == ""


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


def test_identically_zero_commuting_field_is_named_so(tmp_path, capsys):
    # the zero field commutes with F and has every degree: the defect is
    # that there is no flow, not a missing degree
    prob = tmp_path / "zero_g.kov"
    prob.write_text('variables = [x:2, y:3]\nF.1 = "y"\nF.2 = "6*x^2"\n'
                    'G.1 = "0"\nG.2 = "0"\n', encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["analyze", str(prob), "--json", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["violations"] == [
        "the commuting field is identically zero; there is no flow to analyze"]
    assert "no uniform degree" not in captured.out


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


def test_a_line_of_zeros_is_a_violation(tmp_path):
    # x' = x(x + y), y' = y(x + y) vanishes on the line x + y = 0: the
    # saturated system of its all-free pattern is x + y = 0 twice, whose
    # solve gives the witness; one solve of the whole system gave no point
    # and the zero set was left undecided, with exit 0
    prob = tmp_path / "line.kov"
    prob.write_text('variables = [x:1, y:1]\nF.1 = "x*(x+y)"\n'
                    'F.2 = "y*(x+y)"\n', encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["analyze", str(prob), "--json", str(out)]) == 2
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["assumptions"]["zero_set"] == "counterexample"
    assert report["assumptions"]["zero_witness"] == ["-1", "1"]
    assert report["violations"] == [
        "the field vanishes at (-1, 1), away from the origin"]


def test_painleve4_auto_certifies_its_zero_set():
    # q' = q (2p - q), p' = p (2q - p): the support rule leaves only the
    # all-free pattern, whose saturated system 2p - q = 2q - p = 0 has
    # the origin alone
    text = (PROBLEMS / "painleve4_auto.kov").read_text(encoding="utf-8")
    report = analyze(text, "painleve4_auto.kov").report
    assert report["assumptions"]["zero_set"] == "ok"


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
