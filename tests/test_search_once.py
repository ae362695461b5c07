"""F's balance search runs once per analysis and its results are reused.

The locus stage of kovex.analyze computes F's loci and their spectra; the
degeneration predictions are matched against Analysis.pool, built from
exactly those, so no later stage searches F again, and one search builds its
indicial system once.  Within a search, each zero pattern is saturated by
its nonzero coordinates, and Newton runs only on the patterns the exact
solver could not settle completely.
"""

import dataclasses
import itertools
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_properties as props
from test_kovalevskaya import _uncoupled
from kovex import cli, degeneration, exactalg, kovalevskaya
from kovex.cli import main
from kovex.exactalg import MultiPoly
from kovex.vfmodel import VectorField, WeightCertificate, fields_from_problem
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
                                           ("painleve1_coupled_4d", 1),
                                           ("painleve4_auto", 0)])
def test_newton_runs_only_on_incomplete_patterns(stem, batches, monkeypatch,
                                                 tmp_path):
    # every search of cubic_pair (F, two flow subsystems, six deformed
    # fields) is solved completely by the exact route; Newton once ran
    # 119 batches there and 22 on painleve1_coupled_4d, then 2 there and
    # 1 on painleve4_auto before the zero patterns were saturated
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


def _p4_blocks(params):
    """Uncoupled blocks q' = u q^2 + 2v pq, p' = -2u pq - v p^2, weights 1."""
    names = tuple(f"{c}{k}" for k in range(len(params)) for c in "qp")
    comps = []
    for k, (u, v) in enumerate(params):
        q = MultiPoly.variable(f"q{k}", names)
        p = MultiPoly.variable(f"p{k}", names)
        comps += [q * q * u + q * p * (2 * v), p * q * (-2 * u) - p * p * v]
    return (VectorField(names, tuple(comps)),
            WeightCertificate((1,) * len(names), 1))


@given(st.lists(st.tuples(props.NONZERO_Q, props.NONZERO_Q),
                min_size=1, max_size=2))
@settings(max_examples=20, deadline=None)
def test_saturation_settles_every_p4_pattern(params):
    # the both-nonzero pattern clamps nothing, and neither equation of
    # u q^2 + 2v pq + q = 0, -2u pq - v p^2 + p = 0 is univariate or has a
    # variable with a constant linear coefficient; divided by q and p they
    # are linear, with the balance (1/u, -1/v)
    field, cert = _p4_blocks(params)
    per_block = [[None, (-1 / u, Fraction(0)), (Fraction(0), 1 / v),
                  (1 / u, -1 / v)] for u, v in params]
    expected = {}
    for choice in itertools.product(*per_block):
        if all(b is None for b in choice):
            continue
        point = sum(((Fraction(0),) * 2 if b is None else b
                     for b in choice), ())
        spectrum = Counter()
        for b in choice:
            spectrum.update({1: 2} if b is None else {-1: 1, 3: 1})
        expected[point] = sorted(spectrum.items())
    with mock.patch.object(kovalevskaya, "_newton_refine",
                           wraps=kovalevskaya._newton_refine) as newton:
        search = kovalevskaya.find_loci(field, cert)
    assert newton.call_count == 0
    assert "newton" not in search.strategies
    assert {locus.point: (locus.exactness, locus.source)
            for locus in search.loci} == {
        point: ("exact", "structured_search") for point in expected}
    for point, spectrum in expected.items():
        roots = kovalevskaya.k_exponents(field, cert, point).exponents
        assert roots.is_fully_rational
        assert list(roots.rational_roots) == spectrum


def test_product_loci_are_not_checked_again():
    # the exact solver has certified each block's points against the
    # block's saturated equations, and the products of the block balances
    # are loci as they stand: the search re-checks no point
    field, cert = _uncoupled([("cubic", 1, 6)] * 10)
    with mock.patch.object(kovalevskaya, "_vanishes",
                           wraps=kovalevskaya._vanishes) as vanishes:
        search = kovalevskaya.find_loci(field, cert)
    assert vanishes.call_count == 0
    assert len(search.loci) == 2 ** 10 - 1
    assert all(locus.is_exact and props.verify_locus(field, cert, locus.point)
               for locus in search.loci)
