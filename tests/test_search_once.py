"""F's balance search runs once per analysis and its results are reused.

The CLI's locus stage computes F's loci and their spectra; the
degeneration predictions are matched against a pool built from exactly
those, so no later stage searches F again, and one search builds its
indicial system once.
"""

import json
from pathlib import Path

import pytest

from kovex import cli, degeneration, kovalevskaya
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
