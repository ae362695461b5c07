"""F's balance search runs once per analysis and its results are reused.

The locus stage of kovex.analyze computes F's loci and their spectra; the
degeneration predictions are matched against Analysis.pool, built from
exactly those, so no later stage searches F again, and one search builds its
indicial system once.  Within a search, each zero pattern is saturated by
its nonzero coordinates, and Newton runs only on the patterns the exact
solver could not settle completely, with its rational points and the
rooted points of its leaves.  The searches and spectra of one run
share a component table, so a component of a given form, or at degree 1
any nonzero rational multiple of it (F's cubic_pair blocks, kept or
multiplied in every deformed field), is searched once per run.
"""

import cmath
import dataclasses
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_properties as props
from test_kovalevskaya import (
    _BLOCKS,
    _chain,
    _chain_blocks,
    _field_of_blocks,
    _garbage_roots,
    _split_quartic,
    _uncoupled,
)
from kovex import cli, degeneration, exactalg, kovalevskaya, laurent
from kovex.cli import main
from kovex.exactalg import ExactMatrix, MultiPoly
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


def _six_block_pair():
    # H_F = sum (p_k^2/2 - (k+1) q_k^3), k = 1..6, and H_G the same sum
    # with the factors 1, 2, 3, 5, 7, 11: 63 loci, 57 of them lower, and
    # one degree-1 flow per principal locus
    names = [(f"q{k}", f"p{k}") for k in range(1, 7)]
    h_f = " + ".join(f"1/2*{p}^2 - {k + 1}*{q}^3"
                     for k, (q, p) in enumerate(names, 1))
    h_g = " + ".join(f"{c}/2*{p}^2 - {c * (k + 1)}*{q}^3"
                     for k, (c, (q, p)) in enumerate(
                         zip((1, 2, 3, 5, 7, 11), names), 1))
    return ("variables = [" + ", ".join(f"{q}:2, {p}:3" for q, p in names)
            + f"]\nH_F = \"{h_f}\"\nH_G = \"{h_g}\"\n")


def test_the_pool_is_indexed_once_per_analysis(monkeypatch):
    # every flow of the six-block pair matches its predictions against
    # the one LowerPool lower_spectra built (6 indexes, one per flow,
    # while each degeneration call indexed the pool itself)
    built = []

    class Counted(degeneration.LowerPool):
        def __new__(cls, pairs):
            built.append(cls)
            return super().__new__(cls, pairs)

    monkeypatch.setattr(degeneration, "LowerPool", Counted)
    result = cli.analyze(_six_block_pair(), "six_blocks.kov")
    assert len(built) == 1
    assert isinstance(result.pool, Counted)
    assert (len(result.loci), len(result.pool)) == (63, 57)
    flows = result.report["flow"]
    assert len(flows) == 6
    assert all(entry["matched_lower_loci"] for flow in flows
               for entry in flow["degeneration"]["entries"])


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


def test_spectra_read_the_split_of_their_search():
    # one cubic_pair analyze searches 9 fields (F, the two flow subsystems
    # and six deformed fields) of 2 components each; the spectra of each
    # read the search's split, so nothing is built twice (18 indicial
    # systems, 18 splits and 36 entry lookups when spectra split again).
    # laurent's build_series calls indicial_system through its own import,
    # and the zero-set check splits F through vfmodel's binding of
    # exactalg._components, so neither is counted here
    text = (PROBLEMS / "cubic_pair.kov").read_text(encoding="utf-8")
    table = kovalevskaya._ComponentTable
    with mock.patch.object(kovalevskaya, "indicial_system",
                           wraps=kovalevskaya.indicial_system) as built, \
            mock.patch.object(kovalevskaya, "_components",
                              wraps=kovalevskaya._components) as split, \
            mock.patch.object(table, "entry", autospec=True,
                              side_effect=table.entry) as entry:
        cli.analyze(text, "cubic_pair.kov")
    assert (built.call_count, split.call_count, entry.call_count) == (9, 9, 18)


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
                                           ("painleve1_coupled_4d", 0),
                                           ("painleve4_auto", 0)])
def test_newton_runs_only_on_incomplete_patterns(stem, batches, monkeypatch,
                                                 tmp_path):
    # every search of cubic_pair (F, two flow subsystems, six deformed
    # fields) is solved completely by the exact route; Newton once ran
    # 119 batches there and 22 on painleve1_coupled_4d, then 2 there and
    # 1 on painleve4_auto before the zero patterns were saturated, and 1
    # on painleve1_coupled_4d (its gamma = 3 flow subsystem's cubic
    # 243 a1^3 - 1) before the exact solver kept its last irrational
    # factor as a leaf
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


# the exact solver itself, for the stand-ins patched over it: every exact
# search solves through this one binding (exactalg._pattern_solves)
_solve = exactalg.solve_poly_system


def _reported_incomplete(*args, **kwargs):
    result = _solve(*args, **kwargs)
    return dataclasses.replace(result, complete=False, leaves=())


def _newton_everywhere(field, cert):
    """The search with Newton on every zero pattern, as before the exact
    solve or its leaves could excuse one."""
    with mock.patch.object(exactalg, "solve_poly_system",
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


@pytest.mark.parametrize("failure", ["roots", "residual"])
def test_failed_leaf_numerics_fall_back_to_newton(failure):
    # q' = p, p' = q^3 after a cubic block: the quartic's all-free pattern
    # ends in the leaf p^2 - 2.  With Aberth returning garbage,
    # roots_of_product raises NumericNonConvergence; with its coordinates
    # evaluated to garbage, a point fails its residual check.  Either way
    # Newton runs on that pattern alone, and the search returns the loci
    # it returned before the solver kept leaves
    field, cert = _split_quartic(True)
    broken = (mock.patch.object(exactalg, "_aberth", _garbage_roots)
              if failure == "roots" else
              mock.patch.object(kovalevskaya, "poly_eval",
                                lambda coeffs, x: 7.0))
    with broken, mock.patch.object(
            kovalevskaya, "_newton_refine",
            wraps=kovalevskaya._newton_refine) as newton:
        search = kovalevskaya.find_loci(field, cert)
    assert [list(call.args[3]) for call in newton.call_args_list] == [[2, 3]]
    assert search.loci == _newton_everywhere(field, cert).loci
    assert {locus.source for locus in search.loci
            if not locus.is_exact} == {"newton"}


# a quartic block q' = a p, p' = b q^3 balances at q^2 = 2 / (a b), p =
# -q / a: irrational unless 2 / (a b) is a rational square
_LEAF_BLOCKS = {"cubic": _BLOCKS["cubic"],
                "quartic": ((1, 2), lambda q, p, a, b: (p * a, q ** 3 * b))}


def _leaf_block_balances(kind, a, b):
    """A block's balances in closed form: the cubic's (6 / (a b),
    -12 / (a^2 b)), the quartic's q = +-sqrt(2 / (a b)), p = -q / a."""
    if kind == "cubic":
        return [(6 / (a * b), -12 / (a * a * b))]
    q = cmath.sqrt(2 / (a * b))
    return [(q, -q / a), (-q, q / a)]


@given(st.lists(st.tuples(st.sampled_from(sorted(_LEAF_BLOCKS)),
                          props.NONZERO_Q, props.NONZERO_Q),
                min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_leaf_points_are_the_points_newton_finds(blocks):
    # no pattern of these blocks needs Newton: a quartic's irrational
    # balances are its leaf's points.  The loci are the closed-form
    # products, each within the merge radius, every point Newton finds
    # on every pattern is one of them (Newton from unit-size starts can
    # miss some: at a = 1, b = 1/4 it finds q = 2 sqrt 2 and not
    # -2 sqrt 2, at a = b = 1/3 neither of q = +-3 sqrt 2), and each
    # numeric locus leaves every indicial equation below the tolerance
    # relative to the size of its terms
    field, cert = _uncoupled(blocks, _LEAF_BLOCKS)
    search = kovalevskaya.find_loci(field, cert)
    assert "newton" not in search.strategies
    radius = kovalevskaya._merge_radius(exactalg.DEFAULT_TOL)

    def near(a, b):
        return max(abs(complex(x) - complex(y))
                   for x, y in zip(a, b)) <= radius

    expected = [sum(choice, ()) for choice in itertools.product(
        *[[(0, 0)] + _leaf_block_balances(*block) for block in blocks])][1:]
    assert len(search.loci) == len(expected)
    assert all(sum(near(locus.point, point) for locus in search.loci) == 1
               for point in expected)
    try:
        newton = _newton_everywhere(field, cert).loci
    except kovalevskaya.NoLocusFound:
        newton = ()
    assert all(any(near(locus.point, other.point)
                   and locus.exactness == other.exactness
                   for locus in search.loci)
               for other in newton)
    eqs = kovalevskaya.indicial_system(field, cert)
    for locus in search.loci:
        if locus.is_exact:
            continue
        assert locus.source == "structured_search"
        for eq in eqs:
            terms = [complex(c) * math.prod(complex(x) ** e
                                            for x, e in zip(locus.point, exps))
                     for exps, c in eq.terms.items()]
            assert (abs(sum(terms))
                    <= exactalg.DEFAULT_TOL * sum(map(abs, terms)))


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


def _system_form(eqs, variables):
    """A system handed to solve_poly_system up to renaming: each equation's
    terms, with the exponents of the solve's variables in their order."""
    form = []
    for eq in eqs:
        at = [eq.vars.index(v) if v in eq.vars else None for v in variables]
        terms = set()
        for exps, c in eq.terms.items():
            local = tuple(0 if i is None else exps[i] for i in at)
            assert sum(local) == sum(exps)
            terms.add((local, c))
        form.append(frozenset(terms))
    return tuple(form)


def _run_work(stem, text=None):
    """The system forms solve_poly_system is handed, in order, and the
    number of charpolys, each read off one ExactMatrix.resolvent call, in
    one analyze of a bundled problem, or of the problem text."""
    if text is None:
        text = (PROBLEMS / f"{stem}.kov").read_text(encoding="utf-8")
    forms = []

    def counted(eqs, variables):
        forms.append(_system_form(eqs, variables))
        return _solve(eqs, variables)

    with mock.patch.object(exactalg, "solve_poly_system", counted), \
            mock.patch.object(ExactMatrix, "resolvent", autospec=True,
                              side_effect=ExactMatrix.resolvent) as charpoly:
        cli.analyze(text, f"{stem}.kov")
    return forms, charpoly.call_count


def test_analyze_solves_each_system_once():
    # 51 calls when each search had its own table: F's two blocks are one
    # form, and each of the six deformed fields searched F's second block
    # again.  Every degree-1 block of the run, F's q' = p, p' = 6 q^2, the
    # flow subsystem's -F1 and the six deformed fields' first blocks, is a
    # rational multiple of it, one table entry under its normalized form,
    # and the support rule leaves that form one pattern, its all-free one:
    # one solve.  The zero-set check's search of F's blocks is left no
    # pattern at all.  The entry takes its blocks at its zero and its
    # balance, and the subsystem's one-coordinate block alpha3' = 0 one
    # more: 3 charpolys (8 solves and 16 charpolys while each multiple was
    # a form of its own, 9 solves while the zero-set check solved F whole)
    forms, charpolys = _run_work("cubic_pair")
    assert len(forms) == 1
    assert charpolys == 3


def _four_block_pair():
    """H_F = sum (p_b^2/2 - 2 q_b^3) over four blocks of weights (2, 3),
    and H_G the same sum with the factors 1, 2, 3, 5."""
    names = [(f"q{b}", f"p{b}") for b in range(1, 5)]
    h_f = " + ".join(f"1/2*{p}^2 - 2*{q}^3" for q, p in names)
    h_g = " + ".join(f"{c}/2*{p}^2 - {2 * c}*{q}^3"
                     for c, (q, p) in zip((1, 2, 3, 5), names))
    return ("variables = [" + ", ".join(f"{q}:2, {p}:3" for q, p in names)
            + f']\nH_F = "{h_f}"\nH_G = "{h_g}"\n')


def test_a_pair_of_block_energies_solves_each_block_form_once():
    # every block of every deformed field F + G/(eps + k1) is a multiple
    # of F's block, and so is every degree-1 flow subsystem: all are one
    # normalized form, whose all-free pattern, the one pattern the support
    # rule leaves, is solved once, and the zero-set check's search of F's
    # blocks solves nothing (54 solves while each multiple was a form of
    # its own, 55 while the zero-set check solved F whole, 164 when only
    # identical forms were shared and every pattern was solved)
    forms, _ = _run_work("four_blocks", _four_block_pair())
    assert len(forms) == 1


def test_no_table_survives_a_run():
    first = _run_work("cubic_pair")
    assert _run_work("cubic_pair") == first


_KINDS = dict(_BLOCKS,
              # q' = p' = 0: two one-coordinate components, no balance
              zero=((1, 1), lambda q, p, a, b: (q * 0, p * 0)),
              # q' = a p, p' = b q^3: rational balances only when 2/(ab) is
              # a square, else Newton's
              newton=((1, 2), lambda q, p, a, b: (p * a, q ** 3 * b)))

_BLOCK = st.tuples(st.sampled_from(sorted(_KINDS)), props.NONZERO_Q,
                   props.NONZERO_Q)


def _blocks_field(blocks, prefix, scales=None):
    """Uncoupled blocks [(kind, c0, c1), ...] on {prefix}q0, {prefix}p0, ...,
    block k multiplied by scales[k] if scales are given."""
    names = tuple(f"{prefix}{c}{k}" for k in range(len(blocks)) for c in "qp")
    comps, weights = [], []
    for k, (kind, c0, c1) in enumerate(blocks):
        block_weights, components = _KINDS[kind]
        q, p = (MultiPoly.variable(f"{prefix}{c}{k}", names) for c in "qp")
        block = components(q, p, c0, c1)
        comps += block if scales is None else [c * scales[k] for c in block]
        weights += block_weights
    return VectorField(names, tuple(comps)), WeightCertificate(tuple(weights), 1)


@st.composite
def _sharing_fields(draw):
    """Two fields of uncoupled blocks, the first with repeated blocks, the
    second, under other names, with some of the first's blocks as they
    are, some deformed (a new second coefficient) and some new."""
    first = draw(st.lists(_BLOCK, min_size=1, max_size=3))
    first += draw(st.lists(st.sampled_from(first), max_size=1))
    second = []
    for kind, c0, c1 in first:
        fate = draw(st.sampled_from(["keep", "deform", "drop"]))
        if fate == "keep":
            second.append((kind, c0, c1))
        elif fate == "deform":
            second.append((kind, c0, draw(props.NONZERO_Q.filter(
                lambda c, c1=c1: c != c1))))
    second += draw(st.lists(_BLOCK, min_size=0 if second else 1, max_size=1))
    return (_blocks_field(first, ""),
            _blocks_field(draw(st.permutations(second)), "y"))


def _assert_shared_is_fresh(fields, table):
    for field, cert in fields:
        try:
            fresh = kovalevskaya.find_loci(field, cert)
        except kovalevskaya.NoLocusFound:
            with pytest.raises(kovalevskaya.NoLocusFound):
                kovalevskaya.find_loci(field, cert, table=table)
            continue
        shared = kovalevskaya.find_loci(field, cert, table=table)
        assert shared == fresh
        assert kovalevskaya.spectra(shared) == kovalevskaya.spectra(fresh)


@given(_sharing_fields())
@settings(max_examples=30, deadline=None)
def test_a_shared_table_gives_the_fresh_results(fields):
    _assert_shared_is_fresh(fields, kovalevskaya._ComponentTable())


@st.composite
def _multiple_fields(draw):
    """A field of uncoupled blocks and, under other names, a field of
    nonzero rational multiples of some of its blocks, in any order,
    negative multiples included."""
    first = draw(st.lists(_BLOCK, min_size=1, max_size=3))
    second = draw(st.lists(st.sampled_from(first), min_size=1, max_size=3))
    scales = draw(st.lists(props.NONZERO_Q, min_size=len(second),
                           max_size=len(second)))
    return _blocks_field(first, ""), _blocks_field(second, "y", scales)


@given(_multiple_fields())
@settings(max_examples=40, deadline=None)
def test_scalar_multiples_give_the_fresh_results(fields):
    # a multiple of a searched block, with the table that holds the
    # block, gives what a search of its own gives
    _assert_shared_is_fresh(fields, kovalevskaya._ComponentTable())


def _searched_with(table, field, cert):
    """find_loci with table, and the number of exact solves it made."""
    with mock.patch.object(exactalg, "solve_poly_system",
                           wraps=_solve) as solves:
        search = kovalevskaya.find_loci(field, cert, table=table)
    return search, solves.call_count


def test_a_settled_whole_system_ends_its_component():
    # painleve1_coupled_4d is one component, and no coordinate divides
    # every term of one of its indicial equations: its all-free pattern is
    # the whole system, whose complete solve lists both balances, the one
    # at q2 = 0 too.  The patterns q2 = 0 and p1 = 0, which the support
    # rule also leaves, are not solved (3 solves before)
    spec, field = _problem("painleve1_coupled_4d")
    cert = WeightCertificate(spec.weights, 1)
    search, solves = _searched_with(kovalevskaya._ComponentTable(), field,
                                    cert)
    assert solves == 1
    assert [locus.point for locus in search.loci] == [(1, 1, 1, -1),
                                                      (3, 27, 0, -3)]
    assert "newton" not in search.strategies


def test_a_negated_block_balances_at_the_scaled_point():
    # mu = -1 takes the balance (1, -2) of q' = p, p' = 6 q^2 to
    # (mu^2 * 1, mu^3 * -2) = (1, 2), the balance of q' = -p, p' = -6 q^2,
    # and K(1, 2) = D K(1, -2) D^-1 with D = diag(1, -1).  The negated
    # block's f-part is lam = -1 times the first block's, so it is the
    # first block's table entry: it maps the balance and reads the block
    # there, with no solve (one solve, the one pattern the support rule
    # leaves, while it was a form of its own)
    table = kovalevskaya._ComponentTable()
    field, cert = _blocks_field([("cubic", 1, 6)], "")
    negated, _ = _blocks_field([("cubic", -1, -6)], "y")
    search, solves = _searched_with(table, field, cert)
    assert [locus.point for locus in search.loci] == [(1, -2)]
    assert solves == 1
    search, solves = _searched_with(table, negated, cert)
    assert [locus.point for locus in search.loci] == [(1, 2)]
    assert solves == 0
    assert search == kovalevskaya.find_loci(negated, cert)
    [(_, report)] = kovalevskaya.spectra(search)
    assert report == kovalevskaya.k_exponents(negated, cert, (1, 2))
    assert report.exponents.multiset() == (-1, 6)


def test_a_multiple_is_stored_at_its_normalized_point():
    # 3F, q' = 3 p, p' = 18 q^2, has the f-part 3 p, 18 q^2 whose first
    # term is 3 p: lam = 3, and its balance (1/9, -2/27) is stored, and
    # its block kept, at y = (3^2 / 9, 3^3 * -2/27) = (1, -2), the balance
    # of F itself, which then takes both with no solve and no charpoly
    table = kovalevskaya._ComponentTable()
    for scale, balance, searched in [(3, (Fraction(1, 9), Fraction(-2, 27)),
                                      1), (1, (1, -2), 0)]:
        field, cert = _blocks_field([("cubic", scale, 6 * scale)], "")
        search, solves = _searched_with(table, field, cert)
        assert [locus.point for locus in search.loci] == [balance]
        assert solves == searched
        with mock.patch.object(ExactMatrix, "resolvent", autospec=True,
                               side_effect=ExactMatrix.resolvent) as charpoly:
            [(_, report)] = kovalevskaya.spectra(search)
        assert charpoly.call_count == searched
        assert report == kovalevskaya.k_exponents(field, cert, balance)
        [entry] = table._entries.values()
        assert entry.points == ((1, -2),)
        assert set(entry.blocks) == {(1, -2)}


def test_a_mapped_point_that_fails_its_check_is_an_error():
    # the negated block maps the table's points by c = lam^(-a) y and
    # checks each exactly against its own equations: a point that does
    # not solve them stops the search instead of becoming a locus
    table = kovalevskaya._ComponentTable()
    field, cert = _blocks_field([("cubic", 1, 6)], "")
    negated, _ = _blocks_field([("cubic", -1, -6)], "y")
    kovalevskaya.find_loci(field, cert, table=table)
    [entry] = table._entries.values()
    entry.points = ((Fraction(1), Fraction(2)),)
    with pytest.raises(RuntimeError, match="table point"):
        kovalevskaya.find_loci(negated, cert, table=table)


def test_a_degree_two_multiple_is_searched_again():
    # 3F is a form of its own: it is searched, with one solve (3 before
    # the support rule), and gives the fresh result
    names = ("q", "p")
    q, p = (MultiPoly.variable(v, names) for v in names)
    cert = WeightCertificate((4, 6), 2)
    table = kovalevskaya._ComponentTable()
    for scale in (1, 3):
        field = VectorField(names, (p * scale, q * q * (6 * scale)))
        search, solves = _searched_with(table, field, cert)
        assert solves == 1
        fresh = kovalevskaya.find_loci(field, cert)
        assert search == fresh
        assert kovalevskaya.spectra(search) == kovalevskaya.spectra(fresh)


@pytest.mark.parametrize("first", ["p + q^2", "p - 3*q"])
def test_an_off_law_component_is_never_matched(first):
    # with weights (2, 3) the term q^2 has weight 4, not 3, and -3q turns
    # the indicial term 2q into -q: the scaled points would not solve the
    # multiple.  Each multiple is a form of its own, searched with one
    # solve (3 before the support rule)
    table = kovalevskaya._ComponentTable()
    for scale in (1, 2, -1):
        spec = parse_problem(f'variables = [q:2, p:3]\n'
                             f'F.1 = "{scale}*({first})"\n'
                             f'F.2 = "{6 * scale}*q^2"\n')
        field, _ = fields_from_problem(spec)
        cert = WeightCertificate((2, 3), 1)
        search, solves = _searched_with(table, field, cert)
        assert solves == 1
        assert search == kovalevskaya.find_loci(field, cert)


def test_a_newton_component_runs_newton_in_every_field():
    # the chain at k = 3 leaves its all-free pattern to Newton (q2 is
    # irrational with block 3 still to solve): its search is never
    # stored, alone, after a cubic block, or twice in one field
    twice = [a + b for a, b in zip(_chain_blocks(3),
                                   _chain_blocks(3, "r", "s"))]
    fields = [_chain(3), _chain(3, cubic=True), _chain(3),
              _field_of_blocks(*twice)]
    table = kovalevskaya._ComponentTable()
    for (field, cert), runs in zip(fields, [1, 1, 1, 2]):
        with mock.patch.object(kovalevskaya, "_newton_refine",
                               wraps=kovalevskaya._newton_refine) as newton:
            search = kovalevskaya.find_loci(field, cert, table=table)
        assert newton.call_count == runs
        assert search == kovalevskaya.find_loci(field, cert)
        assert any(not locus.is_exact for locus in search.loci)


def test_exact_loci_sort_on_their_fractions():
    # ten distinct cubic blocks, balances (6/b, -12/b) for b = 6..15
    field, cert = _uncoupled([("cubic", 1, 6 + k) for k in range(10)])
    with mock.patch.object(Fraction, "__complex__", autospec=True,
                           side_effect=Fraction.__complex__) as to_complex:
        loci = kovalevskaya.find_loci(field, cert).loci
    assert to_complex.call_count == 0
    assert len(loci) == 2 ** 10 - 1
    points = [locus.point for locus in loci]
    assert points == sorted(points)


def test_a_component_form_holds_its_weights_and_degree():
    # x' = 0 has the indicial equation a x = 0 at every degree, but its
    # block of K(c) is a / degree: next to the cubic block of degree 1
    # (weights 2, 3) and of degree 2 (weights 4, 6) it is 1 and 1/2, and
    # with weight 2 it is 2
    table = kovalevskaya._ComponentTable()
    for x_weight, degree, exponent in [(1, 1, 1), (1, 2, Fraction(1, 2)),
                                       (2, 1, 2)]:
        names = ("x", "q", "p")
        x, q, p = (MultiPoly.variable(v, names) for v in names)
        field = VectorField(names, (x * 0, p, q * q * 6))
        cert = WeightCertificate((x_weight, 2 * degree, 3 * degree), degree)
        search = kovalevskaya.find_loci(field, cert, table=table)
        assert search == kovalevskaya.find_loci(field, cert)
        [(locus, report)] = kovalevskaya.spectra(search)
        assert locus.point[0] == 0
        assert exponent in dict(report.exponents.rational_roots)
        assert report == kovalevskaya.k_exponents(field, cert, locus)


def _series_work(stem, command):
    """One analyze of a bundled problem, as far as command: the number of
    ExactMatrix.resolvent calls, the _vanishes and indicial_system calls of
    laurent (the series stage's exact check) and the kovalevskaya_matrix
    calls of kernel_identity_check, and the distinct blocks of F's exact
    loci, (component form, point, scale) in the search's split."""
    text = (PROBLEMS / f"{stem}.kov").read_text(encoding="utf-8")
    with mock.patch.object(ExactMatrix, "resolvent", autospec=True,
                           side_effect=ExactMatrix.resolvent) as resolvent, \
            mock.patch.object(laurent, "_vanishes",
                              wraps=laurent._vanishes) as vanishes, \
            mock.patch.object(laurent, "indicial_system",
                              wraps=laurent.indicial_system) as indicial, \
            mock.patch.object(degeneration, "kovalevskaya_matrix",
                              wraps=degeneration.kovalevskaya_matrix) as k:
        result = cli.analyze(text, f"{stem}.kov", command=command)
    spec, field = _problem(stem)
    search = kovalevskaya.find_loci(field, WeightCertificate(spec.weights, 1))
    blocks = {(id(entry), tuple(map(mul, scale, c)) if scale else c, scale)
              for locus in search.loci if locus.is_exact
              for component, (entry, scale) in search._split
              for c in [tuple(locus.point[i] for i in component)]}
    assert len(result.series) == sum(l.is_exact for l in search.loci) > 0
    return (resolvent.call_count, vanishes.call_count + indicial.call_count,
            k.call_count, len(blocks))


@pytest.mark.parametrize("stem", ["cubic_pair", "painleve1_coupled_4d"])
def test_the_series_stage_builds_no_block_again(stem):
    # F's blocks: cubic_pair's two blocks are one form (lam = 1), at its
    # zero and its balance; painleve1_coupled_4d is one component at two
    # balances.  spectra reads one resolvent per distinct block, and the
    # series solve on those blocks with no exact check of their certified
    # loci.  The flow adds its own: cubic_pair's subsystem block
    # alpha3' = 0 and painleve1_coupled_4d's rescaled matrix of the gamma =
    # 3 exact route.  kernel_identity_check reads K(c) from the blocks the
    # series kept (each series checked its locus again and built the whole
    # K(c), its resolvent and its roots, and kernel_identity_check K(c) a
    # third time)
    assert _series_work(stem, "series") == (2, 0, 0, 2)
    assert _series_work(stem, "analyze") == (3, 0, 0, 2)


_SERIES_BLOCKS = st.tuples(st.sampled_from(["cubic", "quartic"]),
                           props.NONZERO_Q, props.NONZERO_Q.map(abs))


def _block_text(blocks):
    """The problem text of uncoupled blocks [(kind, a, b), ...] on q1, p1,
    q2, ...: q' = a p with p' = b q^2 (cubic, weights 2, 3) or p' = 2 / (a
    b^2) q^3 (quartic, weights 1, 2, balances q = +-b).  H_G weighs block
    k's energy by k, so G commutes with F."""
    decl, lines, h_g = [], [], []
    for k, (kind, a, b) in enumerate(blocks, 1):
        weights, power, c = (((2, 3), 2, b) if kind == "cubic"
                             else ((1, 2), 3, 2 / (a * b * b)))
        decl += [f"q{k}:{weights[0]}", f"p{k}:{weights[1]}"]
        lines += [f'F.{2 * k - 1} = "{a}*p{k}"',
                  f'F.{2 * k} = "{c}*q{k}^{power}"']
        h_g.append(f"({k * a / 2})*p{k}^2 + ({-k * c / (power + 1)})"
                   f"*q{k}^{power + 1}")
    return ("variables = [" + ", ".join(decl) + "]\n" + "\n".join(lines)
            + f'\nH_G = "{" + ".join(h_g)}"\n')


@st.composite
def _blocks_with_a_multiple(draw):
    """One to three uncoupled cubic or quartic blocks; from two on, the
    second is the first times mu != 1, a component of the first's table
    entry at another scale lam^a."""
    blocks = [draw(_SERIES_BLOCKS)]
    count = draw(st.integers(1, 3))
    if count > 1:
        kind, a, b = blocks[0]
        mu = draw(props.NONZERO_Q.filter(lambda mu: mu != 1))
        blocks.append((kind, mu * a,
                       mu * b if kind == "cubic" else b / abs(mu)))
    blocks += draw(st.lists(_SERIES_BLOCKS, min_size=count - len(blocks),
                            max_size=count - len(blocks)))
    return draw(st.permutations(blocks))


@given(_blocks_with_a_multiple())
@settings(max_examples=30, deadline=None)
def test_the_series_on_the_locus_blocks_is_the_bare_series(blocks):
    # analyze's series solve on the blocks spectra read, a block shared
    # from a multiple at another scale rebuilt from its own rows; each is
    # the series of a bare build_series at the locus, satisfies the field
    # exactly through its truncation, and G's kernel identities hold on
    # the blocks it keeps
    text = _block_text(blocks)
    spec = parse_problem(text)
    field, g_field = fields_from_problem(spec)
    cert = WeightCertificate(spec.weights, 1)
    result = cli.analyze(text, "blocks.kov", command="series")
    assert len(result.series) == len(result.loci) > 0
    for idx, sol in result.series.items():
        locus, _ = result.loci[idx]
        assert sol == laurent.build_series(field, cert, locus.point)
        assert laurent.residual_order(field, cert, sol) is None
        expansion = degeneration.g_expansion(g_field, sol)
        assert all(degeneration.kernel_identity_check(field, cert, sol.locus,
                                                      expansion))
