"""Series recursion against hand-computed coefficients.

The cubic oscillator is small enough to run the recursion on paper:
x = T^-2 (1 + a T^6 + a^2/13 T^12 + ...), y matching, so those numbers
are frozen here as exact fractions.  The obstructed case is an engineered
three-dimensional field whose order-2 row of K - 2I vanishes while y^2
feeds alpha1^2 into it, which forces the inconsistency by inspection.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from kovex.degeneration import g_expansion
from kovex.exactalg import ExactMatrix, MultiPoly
from kovex.kovalevskaya import InexactLocusError
from kovex.laurent import (
    TruncationBelowResonance,
    _field_orders,
    build_series,
    classify,
    qh_coefficient_check,
    residual_order,
    series_json,
)
from kovex.vfmodel import WeightCertificate, fields_from_problem
from kovex.vfparse import parse_problem

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

    def test_one_elimination_per_order(self, pair4d_deg3, monkeypatch):
        field, _, cert = pair4d_deg3
        calls = []
        rref = ExactMatrix.rref

        def counted(matrix):
            calls.append(matrix.nrows)
            return rref(matrix)

        monkeypatch.setattr(ExactMatrix, "rref", counted)
        sol = build_series(field, cert, (1, 1, 1, -1), truncation=32)
        # one solve per order, plus the kernel and its gauge at each
        # resonant order (2, 5 and 8)
        resonant = set(sol.resonance_orders())
        assert resonant == {2, 5, 8}
        assert len(calls) <= 32 + 2 * len(resonant)

    def test_lower_balance_keeps_two_parameters(self, pair4d_deg3):
        field, _, cert = pair4d_deg3
        sol = build_series(field, cert, (3, 27, 0, -3))
        assert sol.resonance_orders() == (8, 10)
        assert str(classify(sol)) == "lower(3)"
        assert qh_coefficient_check(sol) == ()


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
