"""F's balance search runs once per analysis and its results are reused.

The CLI's locus stage computes F's loci and their spectra; the
degeneration predictions are matched against a pool built from exactly
those, so no later stage searches F again, and one search builds its
indicial system once.  Within a search, Newton runs only on the zero
patterns the exact solver could not settle completely.
"""

import dataclasses
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

import test_properties as props
from kovex import cli, degeneration, exactalg, kovalevskaya
from kovex.cli import main
from kovex.vfmodel import WeightCertificate, fields_from_problem
from kovex.vfparse import parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _problem(stem):
    spec = parse_problem((PROBLEMS / f"{stem}.kov").read_text(encoding="utf-8"))
    field, _ = fields_from_problem(spec)
    return spec, field


@pytest.mark.parametrize("stem", ["cubic_pair", "painleve1_coupled_4d"])
def test_analyze_searches_f_once(stem, monkeypatch, tmp_path):
    _, field = _problem(stem)
    searched = []
    for module in (cli, degeneration):
        def counted(f, *args, _search=module.find_loci, _site=module.__name__,
                    **kwargs):
            if f == field:
                searched.append(_site)
            return _search(f, *args, **kwargs)
        monkeypatch.setattr(module, "find_loci", counted)
    code = main(["analyze", str(PROBLEMS / f"{stem}.kov"),
                 "--json", str(tmp_path / "report.json")])
    assert code == 0
    assert searched == ["kovex.cli"]


def test_find_loci_builds_the_indicial_system_once(monkeypatch):
    spec, field = _problem("cubic_pair")
    built = []
    original = kovalevskaya.indicial_system

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(kovalevskaya, "indicial_system", counted)
    search = kovalevskaya.find_loci(field, WeightCertificate(spec.weights, 1))
    assert any(locus.is_exact for locus in search.loci)
    assert len(built) == 1


@pytest.mark.parametrize("extra", [[], ["--tolerance", "1e-10"]])
@pytest.mark.parametrize("stem", ["cubic_pair", "painleve1_coupled_4d"])
def test_lower_spectra_are_the_reported_lower_loci(stem, extra, tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", str(PROBLEMS / f"{stem}.kov"),
                 "--json", str(out)] + extra)
    assert code in (0, 2)
    report = json.loads(out.read_text(encoding="utf-8"))
    lower = [locus["point"] for locus in report["loci"]
             if locus["exactness"] == "numeric"
             or locus["classification"] == "lower"]
    pooled = [entry["point"]
              for flow in report["flow"]
              for entry in flow["degeneration"]["lower_spectra"]]
    assert pooled
    assert all(point in lower for point in pooled)


@pytest.mark.parametrize("stem, batches", [("cubic_pair", 0),
                                           ("painleve1_coupled_4d", 2),
                                           ("painleve4_auto", 1)])
def test_newton_runs_only_on_incomplete_patterns(stem, batches, monkeypatch,
                                                 tmp_path):
    # every search of cubic_pair (F, two flow subsystems, six deformed
    # fields) is solved completely by the exact route; Newton once ran
    # 119 batches there and 22 on painleve1_coupled_4d
    calls = []
    original = kovalevskaya._newton_refine

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kovalevskaya, "_newton_refine", counted)
    code = main(["analyze", str(PROBLEMS / f"{stem}.kov"),
                 "--json", str(tmp_path / "report.json")])
    assert code == 0
    assert len(calls) == batches


def _reported_incomplete(*args, **kwargs):
    result = exactalg.solve_poly_system(*args, **kwargs)
    return dataclasses.replace(result, complete=False)


def _newton_everywhere(field, cert):
    """The search with Newton on every zero pattern, as before the exact
    solve could excuse one."""
    with mock.patch.object(kovalevskaya, "solve_poly_system",
                           side_effect=_reported_incomplete):
        search = kovalevskaya.find_loci(field, cert)
    assert "newton" in search.strategies
    return search


@given(props.scaled_problems())
@settings(max_examples=25, deadline=None)
def test_skipping_newton_on_complete_patterns_loses_no_locus(case):
    field, cert, _ = case
    assert (kovalevskaya.find_loci(field, cert).loci
            == _newton_everywhere(field, cert).loci)


@pytest.mark.parametrize("stem", ["cubic_pair", "painleve1_coupled_4d",
                                  "painleve2_auto", "painleve4_auto",
                                  "weierstrass"])
def test_bundled_loci_match_newton_everywhere(stem):
    # painleve4_auto's balance (-1, -1) is reached by Newton alone
    spec, field = _problem(stem)
    cert = WeightCertificate(spec.weights, 1)
    assert (kovalevskaya.find_loci(field, cert).loci
            == _newton_everywhere(field, cert).loci)
