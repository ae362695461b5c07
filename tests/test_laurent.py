"""Series recursion against hand-computed coefficients.

The cubic oscillator is small enough to run the recursion on paper:
x = T^-2 (1 + a T^6 + a^2/13 T^12 + ...), y matching, so those numbers
are frozen here as exact fractions.  The obstructed case is an engineered
three-dimensional field whose order-2 row of K - 2I vanishes while y^2
feeds alpha1^2 into it, which forces the inconsistency by inspection.
"""

import copy
import dataclasses
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from kovex import exactalg, kovalevskaya, laurent
from kovex.degeneration import g_expansion
from kovex.exactalg import ExactMatrix, MultiPoly
from kovex.kovalevskaya import (
    InexactLocusError,
    k_exponents,
    kovalevskaya_matrix,
)
from kovex.laurent import (
    LaurentSolution,
    TruncationBelowResonance,
    _field_orders,
    build_series,
    classify,
    residual_order,
    series_json,
)
from kovex.vfmodel import VectorField, WeightCertificate, fields_from_problem
from kovex.vfparse import parse_problem
from test_properties import qh_coefficient_check

ALPHA = MultiPoly.variable("alpha1")
ROOT = Path(__file__).resolve().parent.parent


def _golden_loci(*stems):
    """(stem, exact locus) for every golden locus that carries a series."""
    cases = []
    for stem in stems:
        report = json.loads((ROOT / "tests" / "golden" / f"{stem}.json").read_text())
        cases.extend(
            pytest.param(stem, tuple(Fraction(c) for c in entry["point"]),
                         id=f"{stem}@{','.join(entry['point'])}")
            for entry in report["loci"]
            if entry["exactness"] == "exact" and "series" in entry)
    return cases


def _field(text):
    spec = parse_problem(text)
    f, _ = fields_from_problem(spec)
    return f, WeightCertificate(spec.weights, 1)


OBSTRUCTED_3D = """
variables = [x:1, y:1, z:1]
F.1 = "-x^2"
F.2 = "x*z"
F.3 = "x*z + y^2"
"""


RESCALED_4D = """
variables = [x1:2, x2:5, x3:4, x4:3]
F.1 = "10*x4"
F.2 = "-2*x1^3 + 3/2*x1*x3 - 75/2*x4^2"
F.3 = "20*x1*x4 + 8/3*x2"
F.4 = "1/5*x1^2 + 3/5*x3"
"""

# the complex3 block: at its balance (0, 1, 0) the spectrum is -1 and the
# roots of t^2 - 4t + 7, an irrational pair
COMPLEX3 = """
variables = [x:1, y:1, z:1]
F.1 = "2*y*z + 2*x*y"
F.2 = "-y*z - y^2"
F.3 = "-2*x*z - 2*x*y"
"""


class TestCubicOscillator:
    @pytest.fixture(autouse=True)
    def _build(self, cubic2d):
        self.field, self.cert = cubic2d
        self.sol = build_series(self.field, self.cert, (1, -2))

    def test_default_truncation_doubles_top_resonance(self):
        assert self.sol.truncation == 12

    def test_pole_coefficients(self):
        assert self.sol.coefficient(0, 0) == 1
        assert self.sol.coefficient(1, 0) == -2

    def test_orders_outside_the_resonance_semigroup_vanish(self):
        for i in range(2):
            for j in (1, 2, 3, 4, 5, 7, 8, 9, 10, 11):
                assert not self.sol.coefficient(i, j)

    def test_resonant_order_carries_the_bare_parameter(self):
        assert self.sol.parameters == ("alpha1",)
        assert self.sol.coefficient(0, 6) == ALPHA
        assert self.sol.coefficient(1, 6) == ALPHA * 4

    def test_order_twelve_quadratic_in_the_parameter(self):
        assert self.sol.coefficient(0, 12) == ALPHA * ALPHA * Fraction(1, 13)
        assert self.sol.coefficient(1, 12) == ALPHA * ALPHA * Fraction(10, 13)

    def test_single_resonance_record(self):
        (rec,) = self.sol.resonances
        assert rec.order == 6
        assert rec.parameter == "alpha1"
        assert rec.anchor == 0
        assert rec.direction == (1, 4)

    def test_classified_principal(self):
        verdict = classify(self.sol)
        assert verdict.kind == "principal"
        assert verdict.parameters == 2
        assert str(verdict) == "principal"

    def test_no_obstructions_and_fully_authoritative(self):
        assert self.sol.obstructions == ()
        assert self.sol.authoritative_through == 12

    def test_coefficient_weights_match_their_order(self):
        assert qh_coefficient_check(self.sol) == ()

    def test_back_substitution_leaves_no_defect(self):
        assert residual_order(self.field, self.cert, self.sol) is None

    def test_json_export_round_trips_the_exact_values(self):
        assert series_json(self.sol) == [
            {"i": 1, "j": 0, "polynomial": {"0": "1"}},
            {"i": 1, "j": 6, "polynomial": {"1": "1"}},
            {"i": 1, "j": 12, "polynomial": {"2": "1/13"}},
            {"i": 2, "j": 0, "polynomial": {"0": "-2"}},
            {"i": 2, "j": 6, "polynomial": {"1": "4"}},
            {"i": 2, "j": 12, "polynomial": {"2": "10/13"}},
        ]


class TestUncoupledPair:
    def test_principal_at_single_copy_blowup(self, pair4d_deg1):
        field, _, cert = pair4d_deg1
        sol = build_series(field, cert, (1, -2, 0, 0))
        assert sol.resonance_orders() == (2, 3, 6)
        assert str(classify(sol)) == "principal"
        assert qh_coefficient_check(sol) == ()
        assert residual_order(field, cert, sol) is None

    def test_lower_family_at_double_blowup(self, pair4d_deg1):
        field, _, cert = pair4d_deg1
        sol = build_series(field, cert, (1, -2, 1, -2))
        assert str(classify(sol)) == "lower(3)"
        # the double resonance at 6 splits into one parameter per copy,
        # each direction vanishing at the other's anchor
        first, second = sol.resonances
        assert (first.order, second.order) == (6, 6)
        assert first.anchor == 0 and second.anchor == 2
        assert first.direction == (1, 4, 0, 0)
        assert second.direction == (0, 0, 1, 4)
        assert sol.coefficient(0, 6) == MultiPoly.variable("alpha1")
        assert sol.coefficient(2, 6) == MultiPoly.variable("alpha2")


class TestCoupledQuintic:
    def test_principal_balance_fills_every_slot(self, pair4d_deg3):
        field, _, cert = pair4d_deg3
        sol = build_series(field, cert, (1, 1, 1, -1))
        assert sol.resonance_orders() == (2, 5, 8)
        assert str(classify(sol)) == "principal"
        assert qh_coefficient_check(sol) == ()
        assert residual_order(field, cert, sol) is None
        # anchor gauge: the anchor coefficient is the bare parameter even
        # at order 8 where alpha1^4 terms are in play
        assert sol.coefficient(0, 2) == MultiPoly.variable("alpha1")
        assert sol.coefficient(0, 5) == MultiPoly.variable("alpha2")
        assert sol.coefficient(0, 8) == MultiPoly.variable("alpha3")

    def test_semigroup_gaps_stay_empty(self, pair4d_deg3):
        field, _, cert = pair4d_deg3
        sol = build_series(field, cert, (1, 1, 1, -1))
        # 1 and 3 are the only orders not reachable from {2, 5, 8}
        for i in range(4):
            assert not sol.coefficient(i, 1)
            assert not sol.coefficient(i, 3)
        assert any(sol.coefficient(i, 4) for i in range(4))

    def test_solve_singular_only_at_resonant_orders(self, pair4d_deg3,
                                                    monkeypatch):
        field, _, cert = pair4d_deg3
        shifts = []
        solve = ExactMatrix.solve_singular

        def counted(matrix, rhs):
            shifts.append(matrix)
            return solve(matrix, rhs)

        monkeypatch.setattr(ExactMatrix, "solve_singular", counted)
        sol = build_series(field, cert, (1, 1, 1, -1), truncation=32)
        # every regular order is one evaluation of the resolvent; only the
        # resonant orders 2, 5 and 8, where K(c) - jI is singular, are
        # eliminated
        assert sol.resonance_orders() == (2, 5, 8)
        matrix = kovalevskaya_matrix(field, cert, (1, 1, 1, -1))
        assert shifts == [matrix.shifted(j) for j in (2, 5, 8)]

    def test_rescaled_field_has_a_rational_matrix(self):
        # PAIR_4D_DEG3 with (q1, p1, q2, p2) = (x1, 2 x2, 3/2 x3, 5 x4):
        # x_i' = f_i(lambda x) / lambda_i, and the balance (1, 1, 1, -1)
        # maps to (1, 1/2, 2/3, -1/5).  K(c) becomes the similar matrix
        # L^-1 K L, L = diag(lambda), which has non-integer entries.
        field, cert = _field(RESCALED_4D)
        point = (1, Fraction(1, 2), Fraction(2, 3), Fraction(-1, 5))
        matrix = kovalevskaya_matrix(field, cert, point)
        assert any(x.denominator != 1 for row in matrix.data for x in row)
        sol = build_series(field, cert, point, truncation=32)
        assert sol.resonance_orders() == (2, 5, 8)
        assert sol.obstructions == ()
        assert residual_order(field, cert, sol) is None
        assert qh_coefficient_check(sol) == ()

    def test_lower_balance_keeps_two_parameters(self, pair4d_deg3):
        field, _, cert = pair4d_deg3
        sol = build_series(field, cert, (3, 27, 0, -3))
        assert sol.resonance_orders() == (8, 10)
        assert str(classify(sol)) == "lower(3)"
        assert qh_coefficient_check(sol) == ()


class TestLeanSeries:
    @pytest.mark.parametrize("truncation", [None, 8])
    def test_one_resolvent_and_no_floating_point(self, monkeypatch,
                                                 truncation):
        # a spectrum here would run the numeric root stage on the pair;
        # the series reads its resonant orders off its own resolvent
        field, cert = _field(COMPLEX3)
        report = k_exponents(field, cert, (0, 1, 0))
        assert report.exponents.residual_factor == (1, -4, 7)

        def refuse(*args):
            raise AssertionError("the numeric root stage ran")

        monkeypatch.setattr(exactalg, "_aberth", refuse)
        monkeypatch.setattr(exactalg, "roots_of_product", refuse)
        monkeypatch.setattr(kovalevskaya, "roots_of_product", refuse)
        calls = {"charpoly": 0, "resolvent": 0}
        for name in calls:
            def counted(matrix, name=name, method=getattr(ExactMatrix, name)):
                calls[name] += 1
                return method(matrix)
            monkeypatch.setattr(ExactMatrix, name, counted)
        sol = build_series(field, cert, (0, 1, 0), truncation=truncation)
        assert calls == {"charpoly": 0, "resolvent": 1}
        assert sol.truncation == (truncation or 2)
        assert sol.resonances == () and sol.obstructions == ()
        assert residual_order(field, cert, sol) is None


class TestObstructed:
    @pytest.fixture(autouse=True)
    def _build(self):
        self.field, self.cert = _field(OBSTRUCTED_3D)
        self.sol = build_series(self.field, self.cert, (1, 0, 0))

    def test_inconsistency_lands_at_order_two(self):
        assert self.sol.obstructions == (2,)
        verdict = classify(self.sol)
        assert verdict.kind == "obstructed"
        assert verdict.first_obstruction == 2
        assert str(verdict) == "obstructed(2)"

    def test_series_is_authoritative_only_below_the_obstruction(self):
        assert self.sol.authoritative_through == 1

    def test_consistent_directions_still_enter(self):
        assert self.sol.parameters == ("alpha1", "alpha2")
        assert self.sol.coefficient(1, 1) == MultiPoly.variable("alpha1")
        assert self.sol.coefficient(2, 1) == 0

    def test_dropped_monomial_shows_up_as_a_defect(self):
        assert residual_order(self.field, self.cert, self.sol) == 2

    def test_inconsistent_monomial_is_dropped_from_every_component(self):
        # with y^2 in F.2 too, alpha1^2 also reaches the pivot rows of
        # K - 2I, whose solve would carry it into d_{3,2} via the gauge
        field, cert = _field(OBSTRUCTED_3D.replace('F.2 = "x*z"',
                                                   'F.2 = "x*z + y^2"'))
        sol = build_series(field, cert, (1, 0, 0), truncation=4)
        assert sol.obstructions == (2,)
        alpha2 = MultiPoly.variable("alpha2")
        assert sol.coefficient(1, 2) == alpha2
        assert sol.coefficient(2, 2) == alpha2


ANCHORED_3D = """
variables = [x:1, y:1, z:1]
F.1 = "-x^2"
F.2 = "x*z + y^2"
F.3 = "x*z"
"""


class TestAnchorGauge:
    # at (1, 0, 0) the y, z block of K - 2I is [[-1, 1], [0, 0]], whose
    # kernel (1, 1) has its anchor at y, a pivot column; y^2 feeds
    # alpha1^2 into the consistent y row, so the particular solution is
    # nonzero at the anchor and the gauge has to clear it
    def test_anchor_carries_the_bare_parameter(self):
        field, cert = _field(ANCHORED_3D)
        sol = build_series(field, cert, (1, 0, 0), truncation=4)
        alpha2 = MultiPoly.variable("alpha2")
        assert [(r.order, r.anchor) for r in sol.resonances] == [(1, 1),
                                                                 (2, 1)]
        assert sol.coefficient(1, 1) == ALPHA
        assert sol.coefficient(1, 2) == alpha2
        assert sol.coefficient(2, 2) == alpha2 - ALPHA * ALPHA
        assert sol.obstructions == ()
        assert residual_order(field, cert, sol) is None


class TestInputChecks:
    def test_commuting_field_degree_is_rejected(self, pair4d_deg3):
        _, g_field, cert = pair4d_deg3
        deg3 = WeightCertificate(cert.weights, 3)
        with pytest.raises(ValueError, match="degree-1"):
            build_series(g_field, deg3, (1, 1, 1, -1))

    def test_wrong_certificate_is_rejected(self, cubic2d):
        field, _ = cubic2d
        with pytest.raises(ValueError, match="certificate"):
            build_series(field, WeightCertificate((1, 1), 1), (1, -2))

    def test_float_locus_is_rejected(self, cubic2d):
        field, cert = cubic2d
        with pytest.raises(InexactLocusError):
            build_series(field, cert, (1.0, -2.0))

    def test_non_balanced_point_is_rejected(self, cubic2d):
        field, cert = cubic2d
        with pytest.raises(ValueError, match="indicial"):
            build_series(field, cert, (1, 1))

    def test_truncation_below_top_resonance_warns(self, cubic2d):
        field, cert = cubic2d
        with pytest.warns(TruncationBelowResonance):
            sol = build_series(field, cert, (1, -2), truncation=3)
        assert sol.parameters == ()
        assert sol.truncation == 3

    def test_nonpositive_truncation_is_rejected(self, cubic2d):
        field, cert = cubic2d
        with pytest.raises(ValueError, match="positive"):
            build_series(field, cert, (1, -2), truncation=0)


class TestCheckerSensitivity:
    def test_weight_checker_flags_a_doctored_coefficient(self, cubic2d):
        field, cert = cubic2d
        sol = build_series(field, cert, (1, -2))
        rows = [list(r) for r in sol.coefficients]
        rows[0][3] = MultiPoly.constant(Fraction(1, 2))
        doctored = dataclasses.replace(
            sol, coefficients=tuple(tuple(r) for r in rows))
        assert qh_coefficient_check(doctored) == ((0, 3, ()),)

    def test_residual_checker_flags_a_doctored_coefficient(self, cubic2d):
        field, cert = cubic2d
        sol = build_series(field, cert, (1, -2))
        rows = [list(r) for r in sol.coefficients]
        rows[1][6] = rows[1][6] * 3
        doctored = dataclasses.replace(
            sol, coefficients=tuple(tuple(r) for r in rows))
        assert residual_order(field, cert, sol) is None
        assert residual_order(field, cert, doctored) == 6


class TestDeepSeriesAtGoldenLoci:
    """The incremental recursion against its from-scratch oracles at N=32.

    residual_order and the reference expansion multiply every monomial
    out again from order 0, sharing no code with the prefix cache that
    build_series and g_expansion run on.
    """

    @pytest.mark.parametrize(
        "stem, point", _golden_loci("cubic_pair", "painleve1_coupled_4d"))
    def test_deep_series_satisfies_the_field_exactly(self, stem, point):
        spec = parse_problem((ROOT / "problems" / f"{stem}.kov").read_text())
        field, g_field = fields_from_problem(spec)
        cert = WeightCertificate(spec.weights, 1)
        sol = build_series(field, cert, point, truncation=32)
        assert sol.obstructions == ()
        assert residual_order(field, cert, sol) is None
        assert qh_coefficient_check(sol) == ()
        expansion = g_expansion(g_field, sol)
        reference = _field_orders(
            g_field, [list(row) for row in sol.coefficients], 32)
        assert expansion.vectors == tuple(
            tuple(reference[i][k] for i in range(sol.dim))
            for k in range(33))


class TestPackedExponentWidth:
    """The series kernel packs each monomial into one int, one bit field
    per parameter, as wide as a degree bound read off its inputs.  A bound
    too small would carry an exponent into the next parameter's field;
    these cases check the kernel against the MultiPoly oracles on both
    sides of a width boundary and on inputs past the series' own bound.
    """

    @pytest.mark.parametrize("n", [15, 16, 31, 32])
    def test_both_sides_of_a_width_boundary(self, pair4d_deg3, n):
        field, g_field, cert = pair4d_deg3
        sol = build_series(field, cert, (1, 1, 1, -1), truncation=n)
        assert residual_order(field, cert, sol) is None
        expansion = g_expansion(g_field, sol)
        reference = _field_orders(
            g_field, [list(row) for row in sol.coefficients], n)
        assert expansion.vectors == tuple(
            tuple(reference[i][k] for i in range(sol.dim))
            for k in range(n + 1))

    def test_expansion_width_comes_from_its_input(self):
        # coefficients of degree up to 8 at orders 1 and 2 give an order-2
        # expansion of degree 16 (alpha1^10 alpha2^6): a width read off
        # the truncation (2 bits) would carry alpha1's exponent into
        # alpha2's field
        names = ("alpha1", "alpha2")
        a, b = (MultiPoly.variable(v, names) for v in names)
        x, y = (MultiPoly.variable(v, ("x", "y")) for v in ("x", "y"))
        sol = LaurentSolution(
            locus=(Fraction(1), Fraction(-2)), weights=(1, 1), truncation=2,
            parameters=names,
            coefficients=((MultiPoly.constant(1), a ** 5 * b ** 3,
                           a ** 7 / 3 - b ** 5),
                          (MultiPoly.constant(-2), b ** 4 / 5,
                           a ** 3 * b ** 2 + a)),
            resonances=(), obstructions=())
        g_field = VectorField(("x", "y"), (x * y + x ** 2, y ** 2 * 3))
        expansion = g_expansion(g_field, sol)
        reference = _field_orders(
            g_field, [list(row) for row in sol.coefficients], 2)
        assert expansion.vectors == tuple(
            tuple(reference[i][k] for i in range(2)) for k in range(3))
        assert expansion.vectors[2][0].total_degree() == 16


class TestPrefixTreeHandOff:
    """build_series leaves its prefix tree on the solution, and the first
    expansion along it takes the tree over.  A later expansion, or one
    along a copy, packs the coefficients instead; every route gives the
    same vectors, and the tree is no part of the solution's value.
    """

    @staticmethod
    def _refuse_to_pack(monkeypatch):
        def refuse(poly, shift):
            raise AssertionError("the series was packed again")
        monkeypatch.setattr(laurent, "_pack", refuse)

    def test_first_expansion_packs_nothing(self, pair4d_deg3, monkeypatch):
        field, g_field, cert = pair4d_deg3
        sol = build_series(field, cert, (1, 1, 1, -1), truncation=16)
        self._refuse_to_pack(monkeypatch)
        g_expansion(g_field, sol)
        # handed off: the next expansion has no tree to read
        with pytest.raises(AssertionError, match="packed again"):
            g_expansion(g_field, sol)

    def test_every_route_gives_the_same_vectors(self, pair4d_deg3):
        field, g_field, cert = pair4d_deg3
        sol = build_series(field, cert, (1, 1, 1, -1), truncation=16)
        copy = dataclasses.replace(sol)
        first = g_expansion(g_field, sol)
        second = g_expansion(g_field, sol)
        copied = g_expansion(g_field, copy)
        assert first.vectors == second.vectors == copied.vectors
        assert repr(first.vectors) == repr(second.vectors) == repr(
            copied.vectors)

    def test_a_shared_tree_is_completed_to_each_expansion(self, pair4d_deg3):
        # a shallow copy shares the tree: the short first expansion leaves
        # G's own prefixes at 5 orders, and the full one completes them
        field, g_field, cert = pair4d_deg3
        sol = build_series(field, cert, (1, 1, 1, -1), truncation=16)
        twin = copy.copy(sol)
        assert twin._prefixes is sol._prefixes
        short = g_expansion(g_field, sol, count=5)
        full = g_expansion(g_field, twin)
        reference = _field_orders(
            g_field, [list(row) for row in sol.coefficients], 16)
        assert full.vectors == tuple(
            tuple(reference[i][k] for i in range(sol.dim)) for k in range(17))
        assert short.vectors == full.vectors[:5]

    def test_the_tree_is_no_part_of_the_value(self, pair4d_deg3):
        field, _, cert = pair4d_deg3
        sol = build_series(field, cert, (1, 1, 1, -1), truncation=16)
        copy = dataclasses.replace(sol)
        assert sol._prefixes is not None and copy._prefixes is None
        assert sol == copy
        assert repr(sol) == repr(copy)
        assert "_prefixes" not in repr(sol)


def test_lone_variable_prefixes_are_the_series(pair4d_deg3):
    # the prefix y_l is series[l] itself: extend completes it by no
    # _cauchy and settle takes d_{l,j} as its change by no _dot.  With
    # each lone prefix recomputed as 1 * y_l, the series and G's
    # expansion at N = 32 made 495 _cauchy and 959 _dot calls.  An order
    # of a component with no nonzero term is _ZERO by no _dot (839 calls
    # with an empty _dot for each)
    field, g_field, cert = pair4d_deg3
    with mock.patch.object(laurent._PrefixSeries, "_cauchy",
                           wraps=laurent._PrefixSeries._cauchy) as cauchy, \
            mock.patch.object(laurent, "_dot", wraps=laurent._dot) as dot:
        sol = build_series(field, cert, (1, 1, 1, -1), truncation=32)
        tree = sol._prefixes
        g_expansion(g_field, sol)
    assert (cauchy.call_count, dot.call_count) == (363, 784)
    for l in range(field.dim):
        lone = tuple(int(k == l) for k in range(field.dim))
        assert tree.history[lone] is tree.series[l]
