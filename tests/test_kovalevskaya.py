"""Locus finding, Kovalevskaya matrices and exponent classification."""

from fractions import Fraction

import pytest

from kovex.exactalg import MultiPoly
from kovex.kovalevskaya import (
    NoLocusFound,
    find_loci,
    indicial_system,
    k_exponents,
    kovalevskaya_matrix,
    numeric_exponents,
    verify_locus,
)
from kovex.vfmodel import VectorField, WeightCertificate


def _rational_spectrum(report):
    """Exponents as a sorted multiset of fractions; fails on numeric leftovers."""
    assert report.exponents.is_fully_rational
    out = []
    for root, mult in report.exponents.rational_roots:
        out.extend([root] * mult)
    return sorted(out)


class TestCubic2d:
    def test_structured_search_finds_unique_locus(self, cubic2d):
        field, cert = cubic2d
        search = find_loci(field, cert, newton_starts=0)
        assert [loc.point for loc in search.loci] == [(1, -2)]
        assert search.loci[0].exactness == "exact"
        assert search.loci[0].source == "structured_search"

    def test_newton_multistart_agrees(self, cubic2d):
        field, cert = cubic2d
        search = find_loci(field, cert, newton_starts=16, rng_seed=3)
        assert [loc.point for loc in search.loci if loc.is_exact] == [(1, -2)]

    def test_matrix_value(self, cubic2d):
        field, cert = cubic2d
        k = kovalevskaya_matrix(field, cert, (1, -2))
        assert [[k[(i, j)] for j in range(2)] for i in range(2)] == \
            [[2, 1], [12, 3]]

    def test_exponents_and_classification(self, cubic2d):
        field, cert = cubic2d
        report = k_exponents(field, cert, (1, -2))
        assert _rational_spectrum(report) == [-1, 6]
        assert report.classification == "principal"
        assert report.eigenpair_verified
        assert not report.has_zero_exponent
        assert report.minus_one_eigenvector == (2, -6)

    def test_rejects_non_locus(self, cubic2d):
        field, cert = cubic2d
        with pytest.raises(ValueError, match="indicial"):
            k_exponents(field, cert, (1, 1))

    def test_numeric_exponents_match(self, cubic2d):
        field, cert = cubic2d
        values = numeric_exponents(field, cert, (1.0, -2.0))
        assert values == pytest.approx((-1.0, 6.0))


class TestOneDimensional:
    def test_quadratic_has_locus_minus_one(self):
        field = VectorField(("x",), (MultiPoly.variable("x") ** 2,))
        cert = WeightCertificate((1,), 1)
        search = find_loci(field, cert, newton_starts=0)
        assert [loc.point for loc in search.loci] == [(-1,)]
        report = k_exponents(field, cert, (-1,))
        assert _rational_spectrum(report) == [-1]
        assert report.classification == "principal"

    def test_cubic_without_rational_balance(self):
        # 2x^3 + x = 0 has only the origin over Q; the exact strategies
        # come back empty and must say so.
        field = VectorField(("x",), (MultiPoly.variable("x") ** 3,))
        cert = WeightCertificate((1,), 2)
        with pytest.raises(NoLocusFound):
            find_loci(field, cert, newton_starts=0)


class TestDegenerateWeightMatrix:
    def test_scaling_field_gives_zero_matrix(self):
        # f_i = -a_i x_i makes every point a balance and K identically zero.
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        field = VectorField(("x", "y"), (x * -2, y * -3))
        cert = WeightCertificate((2, 3), 1)
        assert verify_locus(field, cert, (5, 7))
        k = kovalevskaya_matrix(field, cert, (5, 7))
        assert all(k[(i, j)] == 0 for i in range(2) for j in range(2))
        report = k_exponents(field, cert, (5, 7))
        assert _rational_spectrum(report) == [0, 0]
        assert report.has_zero_exponent
        assert not report.eigenpair_verified
        assert report.classification == "non_painleve"


class TestCoupledPair:
    def test_three_loci(self, pair4d_deg1):
        f, _, cert = pair4d_deg1
        search = find_loci(f, cert, newton_starts=0)
        points = {loc.point for loc in search.loci if loc.is_exact}
        assert points == {(1, -2, 0, 0), (0, 0, 1, -2), (1, -2, 1, -2)}

    def test_exponent_multisets(self, pair4d_deg1):
        f, _, cert = pair4d_deg1
        expected = {
            (1, -2, 0, 0): [-1, 2, 3, 6],
            (0, 0, 1, -2): [-1, 2, 3, 6],
            (1, -2, 1, -2): [-1, -1, 6, 6],
        }
        for point, spectrum in expected.items():
            report = k_exponents(f, cert, point)
            assert _rational_spectrum(report) == spectrum

    def test_classification_split(self, pair4d_deg1):
        f, _, cert = pair4d_deg1
        assert k_exponents(f, cert, (1, -2, 0, 0)).classification == "principal"
        lower = k_exponents(f, cert, (1, -2, 1, -2))
        assert lower.classification == "lower"
        # eigenvalue 6 is a double root but the two blocks decouple
        assert lower.semisimple_at_resonances

    def test_user_seed_snaps_to_exact(self, pair4d_deg1):
        f, _, cert = pair4d_deg1
        search = find_loci(f, cert, seeds=[(1.0000000001, -2.0, 1.0, -2.0)],
                           newton_starts=0)
        seeded = [loc for loc in search.loci if loc.source == "user_seed"]
        assert seeded and seeded[0].point == (1, -2, 1, -2)
        assert seeded[0].is_exact


class TestQuinticPair:
    def test_both_loci_found(self, pair4d_deg3):
        f, _, cert = pair4d_deg3
        search = find_loci(f, cert, newton_starts=0)
        points = {loc.point for loc in search.loci if loc.is_exact}
        assert (1, 1, 1, -1) in points
        assert (3, 27, 0, -3) in points

    def test_principal_spectrum(self, pair4d_deg3):
        f, _, cert = pair4d_deg3
        report = k_exponents(f, cert, (1, 1, 1, -1))
        assert _rational_spectrum(report) == [-1, 2, 5, 8]
        assert report.classification == "principal"

    def test_lower_spectrum(self, pair4d_deg3):
        f, _, cert = pair4d_deg3
        report = k_exponents(f, cert, (3, 27, 0, -3))
        assert _rational_spectrum(report) == [-3, -1, 8, 10]
        assert report.classification == "lower"


class TestPuiseuxVariant:
    def test_degree_three_commuting_field(self, pair4d_deg3):
        # G has degree 3, so its balances solve 3*g_i(p) + a_i p_i = 0 and
        # the matrix picks up diag(a_i/3).  At (0,0,0,1) that matrix is
        # upper triangular with diagonal 8/3, -1/3, 10/3, -1.
        _, g, _ = pair4d_deg3
        cert = WeightCertificate((2, 5, 4, 3), 3)
        search = find_loci(g, cert, newton_starts=0)
        exact_points = {loc.point for loc in search.loci if loc.is_exact}
        assert (0, 0, 0, 1) in exact_points
        report = k_exponents(g, cert, (0, 0, 0, 1))
        assert _rational_spectrum(report) == \
            [-1, Fraction(-1, 3), Fraction(8, 3), Fraction(10, 3)]

    def test_minus_one_eigenpair_at_every_balance(self, pair4d_deg3):
        _, g, _ = pair4d_deg3
        cert = WeightCertificate((2, 5, 4, 3), 3)
        search = find_loci(g, cert, newton_starts=0)
        for locus in search.loci:
            if not locus.is_exact:
                continue
            report = k_exponents(g, cert, locus.point)
            assert report.eigenpair_verified
            assert any(r == -1 for r, _ in report.exponents.rational_roots)
