"""Locus finding, Kovalevskaya matrices and exponent classification."""

import dataclasses
import itertools
import math
import operator
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_properties as props
from kovex import exactalg, kovalevskaya
from kovex.exactalg import DEFAULT_TOL, ExactMatrix, MultiPoly, roots_exact_first
from kovex.kovalevskaya import (
    IndicialLocus,
    NoLocusFound,
    find_loci,
    indicial_system,
    k_exponents,
    kovalevskaya_matrix,
    numeric_exponents,
    spectra,
)
from kovex.laurent import build_series
from kovex.vfmodel import (
    DimensionMismatchError,
    VectorField,
    WeightCertificate,
    fields_from_problem,
)
from kovex.vfparse import parse_problem


def _rational_spectrum(report):
    """Exponents as a sorted multiset of fractions; fails on numeric leftovers."""
    assert report.exponents.is_fully_rational
    out = []
    for root, mult in report.exponents.rational_roots:
        out.extend([root] * mult)
    return sorted(out)


def _garbage_roots(coeffs, max_iter):
    """An _aberth whose every root is 7i, which fails its certificate."""
    return [7j] * (len(coeffs) - 1)


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
        assert k == ExactMatrix([[2, 1], [12, 3]])

    def test_exponents_and_classification(self, cubic2d):
        field, cert = cubic2d
        report = k_exponents(field, cert, (1, -2))
        assert _rational_spectrum(report) == [-1, 6]
        assert report.classification == "principal"
        assert report.eigenpair_verified
        assert not report.has_zero_exponent

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
        # 2x^3 + x = 0 has only the origin over Q; the exact solver keeps
        # the factor x^2 + 1/2 as a leaf, and its roots +-i/sqrt 2 are the
        # balances, with no Newton start
        field = VectorField(("x",), (MultiPoly.variable("x") ** 3,))
        cert = WeightCertificate((1,), 2)
        search = find_loci(field, cert, newton_starts=0)
        assert search.strategies == ("structured_search",)
        assert [(loc.exactness, loc.source) for loc in search.loci] == [
            ("numeric", "structured_search")] * 2
        assert sorted(complex(loc.point[0]).imag for loc in search.loci) == (
            pytest.approx([-0.5 ** 0.5, 0.5 ** 0.5], abs=1e-15))
        assert all(abs(complex(loc.point[0]).real) < 1e-15
                   for loc in search.loci)

    def test_cubic_without_rational_balance_when_its_numerics_fail(self):
        # with no certified root of the leaf and no Newton start, the
        # search comes back empty and must say so
        field = VectorField(("x",), (MultiPoly.variable("x") ** 3,))
        cert = WeightCertificate((1,), 2)
        with mock.patch.object(exactalg, "_aberth", _garbage_roots), \
                pytest.raises(NoLocusFound):
            find_loci(field, cert, newton_starts=0)


class TestDegenerateWeightMatrix:
    def test_scaling_field_gives_zero_matrix(self):
        # f_i = -a_i x_i makes every point a balance and K identically zero.
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        field = VectorField(("x", "y"), (x * -2, y * -3))
        cert = WeightCertificate((2, 3), 1)
        assert props.verify_locus(field, cert, (5, 7))
        k = kovalevskaya_matrix(field, cert, (5, 7))
        assert k == ExactMatrix([[0, 0], [0, 0]])
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


def _saturated(eq, zeroed, free_vars):
    """Oracle: eq with the variables of zeroed clamped, by substitution,
    divided by the largest monomial that divides it, embedded in
    free_vars."""
    poly = eq.substitute(zeroed) if zeroed else eq
    if poly:
        low = tuple(map(min, zip(*poly.terms)))
        if any(low):
            poly = MultiPoly(poly.vars, {
                tuple(map(operator.sub, e, low)): c
                for e, c in poly.terms.items()})
    return poly.embed(free_vars)


_CLAMP_NAMES = ("q1", "p1", "q2", "p2")


@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 4), props.NONZERO_Q,
                       max_size=6),
       st.lists(st.booleans(), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_clamp_is_substitute_then_embed(terms, pattern):
    # the names are not in sorted order, so substitute's sorted variables
    # and the free variables differ, and the old route had to embed
    eq = MultiPoly(_CLAMP_NAMES, terms)
    free = [i for i, z in enumerate(pattern) if not z]
    free_vars = tuple(_CLAMP_NAMES[i] for i in free)
    zeroed = {v: 0 for v, z in zip(_CLAMP_NAMES, pattern) if z}
    clamped = exactalg._clamp(eq, free, free_vars)
    oracle = _saturated(eq, zeroed, free_vars)
    assert clamped.vars == oracle.vars == free_vars
    assert list(clamped.terms.items()) == list(oracle.terms.items())


def _rooted_leaves(result, eqs, variables, free_vars, tolerance=DEFAULT_TOL):
    """The points of a pattern's leaves (none when the solve was complete),
    or None when the pattern is left to Newton: the solve is incomplete
    without leaves, or their numerics fail."""
    if not (result.complete or result.leaves):
        return None
    free = [variables.index(v) for v in free_vars]
    return kovalevskaya._leaf_points(result.leaves, eqs, free, len(variables),
                                     tolerance)


def _search_all_patterns(field, cert, *, newton_starts=64, rng_seed=0,
                         tolerance=DEFAULT_TOL):
    """Oracle: the locus search over every zero pattern of the whole field,
    2^m - 1 exact solves, as find_loci ran before it split the field into
    components, with the points of each pattern's leaves.  No user
    seeds."""
    m = field.dim
    eqs = indicial_system(field, cert)
    eval_f = kovalevskaya._compile_system(eqs)
    eval_jac = kovalevskaya._compile_system(
        [eqs[i].diff(v) for i in range(m) for v in field.variables])
    exact, numeric = [], []
    degree = max((eq.total_degree() or 1) for eq in eqs)
    radius = max(kovalevskaya._DEDUP_TOL, tolerance ** 0.5)

    def register_exact(point, source):
        if any(point) and all(p != point for p, _ in exact):
            exact.append((point, source))

    def register_numeric(z, source):
        if float(np.max(np.abs(z))) <= radius:
            return
        snapped = kovalevskaya._snap_point(z)
        if snapped is not None and kovalevskaya._vanishes(
                eqs, field.variables, snapped):
            register_exact(snapped, source)
            return
        scale = max(1.0, float(np.max(np.abs(z))) ** degree)
        if float(np.max(np.abs(eval_f(z)))) > tolerance * scale:
            return
        register_point(tuple(complex(v) for v in z), source)

    def register_point(point, source):
        known = [p for p, _ in exact] + [p for p, _ in numeric]
        if not any(max(abs(x - complex(y)) for x, y in zip(point, p)) <= radius
                   for p in known):
            numeric.append((point, source))

    patterns = [p for p in itertools.product((False, True), repeat=m)
                if not all(p)]
    solved = []
    for pattern in patterns:
        zeroed = {v: 0 for v, z in zip(field.variables, pattern) if z}
        free_vars = [v for v, z in zip(field.variables, pattern) if not z]
        clamped = [_saturated(eq, zeroed, free_vars) for eq in eqs]
        result = exactalg.solve_poly_system(clamped, free_vars)
        for partial in result.points:
            filled = dict(zip(free_vars, partial))
            point = tuple(filled.get(v, Fraction(0)) for v in field.variables)
            if kovalevskaya._vanishes(eqs, field.variables, point):
                register_exact(point, "structured_search")
        # a pattern settled by its leaves takes their rooted points; one
        # whose numerics fail goes to Newton
        rooted = _rooted_leaves(result, eqs, field.variables, free_vars,
                                tolerance)
        solved.append(rooted is not None)
        for point in rooted or ():
            register_point(point, "structured_search")
    for index, (pattern, complete) in enumerate(
            zip(patterns if newton_starts else (), solved)):
        free = np.array([i for i, z in enumerate(pattern) if not z])
        rng = np.random.default_rng([rng_seed, index])
        starts = np.zeros((newton_starts, m), dtype=np.complex128)
        starts[:, free] = (rng.standard_normal((newton_starts, len(free)))
                           + 1j * rng.standard_normal((newton_starts,
                                                       len(free))))
        if not complete:
            for z in kovalevskaya._newton_refine(eval_f, eval_jac, starts,
                                                 free, tolerance):
                register_numeric(z, "newton")
    loci = [IndicialLocus(p, "exact", s) for p, s in exact]
    loci += [IndicialLocus(p, "numeric", s) for p, s in numeric]
    return tuple(sorted(loci, key=lambda loc: (
        loc.exactness != "exact",
        tuple((complex(x).real, complex(x).imag) for x in loc.point))))


# one degree of freedom each, degree 1: (weights, q', p') from two
# coefficients; the quartic's are (a, s) with b = 2/(a s^2), so that its
# balances (+-s, -+s/a) are rational
_BLOCKS = {
    "cubic": ((2, 3), lambda q, p, a, b: (p * a, q * q * b)),
    "quartic": ((1, 2), lambda q, p, a, s: (p * a, q ** 3 * (2 / (a * s * s)))),
    "p4": ((1, 1), lambda q, p, u, v: (q * q * u + q * p * (2 * v),
                                       p * q * (-2 * u) - p * p * v)),
}

# three-variable blocks of weights (1, 1, 1), without coefficients
_BLOCKS_3D = {
    # at its balance (0, 1, 0) the spectrum is -1 and the roots of
    # t^2 - 4t + 7, a complex pair
    "complex3": lambda x, y, z: (y * z * 2 + x * y * 2, -(y * z) - y * y,
                                 x * z * -2 - x * y * 2),
    # its one balance (1, 0, 0) has K = [[-1, 0, 0], [0, 2, 1], [0, 0, 2]]:
    # the resonance 2 is not semisimple
    "jordan3": lambda x, y, z: (-(x * x), x * y + x * z, x * z),
}


def _uncoupled(blocks, kinds=_BLOCKS):
    """The field of uncoupled blocks [(kind, c0, c1), ...] of kinds on q1,
    p1, q2, ...; a kind of _BLOCKS_3D ignores c0 and c1 and takes q_k, p_k,
    r_k."""
    sizes = [3 if kind in _BLOCKS_3D else 2 for kind, _, _ in blocks]
    names = tuple(f"{c}{k + 1}" for k, size in enumerate(sizes)
                  for c in "qpr"[:size])
    comps, weights = [], []
    for k, ((kind, c0, c1), size) in enumerate(zip(blocks, sizes)):
        variables = [MultiPoly.variable(f"{c}{k + 1}", names)
                     for c in "qpr"[:size]]
        if kind in _BLOCKS_3D:
            comps += _BLOCKS_3D[kind](*variables)
            weights += (1, 1, 1)
        else:
            block_weights, components = kinds[kind]
            comps += components(*variables, c0, c1)
            weights += block_weights
    return VectorField(names, tuple(comps)), WeightCertificate(tuple(weights), 1)


def _counted_solves():
    return mock.patch.object(exactalg, "solve_poly_system",
                             wraps=exactalg.solve_poly_system)


class TestComponents:
    @given(st.lists(st.tuples(st.sampled_from(sorted(_BLOCKS)),
                              props.NONZERO_Q, props.NONZERO_Q),
                    min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_product_search_matches_every_pattern(self, blocks):
        field, cert = _uncoupled(blocks)
        found = find_loci(field, cert)
        oracle = _search_all_patterns(field, cert)
        assert ({(loc.point, loc.source) for loc in found.loci if loc.is_exact}
                == {(loc.point, loc.source) for loc in oracle if loc.is_exact})
        per_block = {"cubic": 1, "quartic": 2, "p4": 3}
        expected = math.prod(per_block[kind] + 1 for kind, _, _ in blocks) - 1
        assert len(found.loci) == expected
        assert all(loc.is_exact and props.verify_locus(field, cert, loc.point)
                   for loc in found.loci)

    def test_six_cubic_blocks_solve_one_pattern_each(self):
        # the search over every zero pattern makes 2^12 - 1 = 4095 solves;
        # q' = p, p' = b q^2 with weights (2, 3) balances at (6/b, -12/b),
        # and six different b make six distinct blocks.  Clamping q leaves
        # p + 2q with p alone, clamping p leaves it with 2q alone, so the
        # support rule leaves each block its all-free pattern (3 solves
        # each before the rule)
        field, cert = _uncoupled([("cubic", 1, 6 + k) for k in range(6)])
        assert len(kovalevskaya._components(indicial_system(field, cert))) == 6
        with _counted_solves() as solves:
            search = find_loci(field, cert)
        assert solves.call_count == 6
        assert len(search.loci) == 2 ** 6 - 1
        assert {loc.source for loc in search.loci} == {"structured_search"}
        assert {loc.point for loc in search.loci} == {
            sum(block, ()) for block in itertools.product(
                *[[(0, 0), (Fraction(6, 6 + k), Fraction(-12, 6 + k))]
                  for k in range(6)]) if any(sum(block, ()))}

    def test_six_identical_cubic_blocks_solve_one_pattern_in_all(self):
        # the six blocks have one form: it is searched once, with one
        # solve (3 before the support rule), and the other five read its
        # points from the search's component table
        field, cert = _uncoupled([("cubic", 1, 6)] * 6)
        with _counted_solves() as solves:
            search = find_loci(field, cert)
        assert solves.call_count == 1
        assert {loc.source for loc in search.loci} == {"structured_search"}
        assert {loc.point for loc in search.loci} == {
            sum(block, ()) for block in itertools.product(
                [(0, 0), (1, -2)], repeat=6) if any(sum(block, ()))}

    def test_triangular_coupling_is_one_component(self):
        # block B (cubic) gains p1^2 - q1^4, which lies in the ideal of
        # block A's (quartic) indicial equations p1 + q1, 2 q1^3 + 2 p1:
        # it vanishes at A's balances (1, -1), (-1, 1) and at A = 0, so the
        # loci stay the products, but B's equation now holds q1 and p1.
        # The support rule leaves the supports A, B and both, and the
        # first, the all-free one, is the whole system: its complete solve
        # lists every balance, and the other two are not solved (3 solves
        # before, 15 before the support rule)
        names = ("q1", "p1", "q2", "p2")
        q1, p1, q2, p2 = (MultiPoly.variable(v, names) for v in names)
        field = VectorField(names, (p1, q1 ** 3 * 2, p2,
                                    q2 * q2 * 6 + p1 * p1 - q1 ** 4))
        cert = WeightCertificate((1, 2, 2, 3), 1)
        assert kovalevskaya._components(indicial_system(field, cert)) == [
            [0, 1, 2, 3]]
        with _counted_solves() as solves:
            search = find_loci(field, cert)
        assert solves.call_count == 1
        assert {loc.point for loc in search.loci} == {
            a + b for a in [(0, 0), (1, -1), (-1, 1)]
            for b in [(0, 0), (1, -2)] if any(a + b)}
        assert search.loci == _search_all_patterns(field, cert)

    @pytest.mark.parametrize("case", ["quartic", "pair_deg3_g", "chain"])
    def test_connected_field_keeps_every_locus_and_start(self, pair4d_deg3,
                                                         case):
        # the quartic's balances (+-sqrt 2, -+sqrt 2) are the points of a
        # leaf; the other two searches leave patterns to Newton (the
        # chain's q2 is irrational with block 3 still to solve): the
        # starts and the points they reach are those of the search over
        # every pattern
        if case == "quartic":
            field, cert = _split_quartic(False)
        elif case == "chain":
            field, cert = _chain(3)
        else:
            _, field, _ = pair4d_deg3
            cert = WeightCertificate((2, 5, 4, 3), 3)
        assert len(kovalevskaya._components(indicial_system(field, cert))) == 1
        search = find_loci(field, cert, rng_seed=5)
        assert ("newton" in search.strategies) == (case != "quartic")
        assert search.loci == _search_all_patterns(field, cert, rng_seed=5)
        if case == "quartic":
            assert [(loc.exactness, loc.source) for loc in search.loci] == [
                ("numeric", "structured_search")] * 2

    def test_constant_term_keeps_the_field_whole(self):
        # x' = x^2, y' = 4 - y^2: the indicial equations x^2 + x and
        # -y^2 + y + 4 share no variable, but the second does not vanish
        # at y = 0, so x = -1 alone is no balance and the search may not
        # multiply components: _components keeps the field one component.
        # It finds x in {-1, 0} with each root of y^2 - y - 4
        names = ("x", "y")
        x, y = (MultiPoly.variable(v, names) for v in names)
        field = VectorField(names, (x * x, 4 - y * y))
        cert = WeightCertificate((1, 1), 1)
        assert kovalevskaya._components(indicial_system(field, cert)) == [
            [0, 1]]
        search = find_loci(field, cert)
        assert [loc.exactness for loc in search.loci] == ["numeric"] * 4
        root = 17 ** 0.5
        for a, b in itertools.product((-1, 0), ((1 - root) / 2,
                                                (1 + root) / 2)):
            assert sum(abs(complex(loc.point[0]) - a) < 1e-9
                       and abs(complex(loc.point[1]) - b) < 1e-9
                       for loc in search.loci) == 1

    def test_newton_only_blocks_multiply_with_exact_zeros(self):
        # two quartic blocks with balances (+-sqrt 2, -+sqrt 2) around a
        # cubic one (Newton's points before the exact solver kept their
        # leaves): the search over every pattern found 14 of the 17 loci,
        # some with 1e-15 where a block is zero
        spec = parse_problem(
            "variables = [q1:1, p1:2, q2:2, p2:3, q3:1, p3:2]\n"
            'F.1 = "p1"\nF.2 = "q1^3"\nF.3 = "p2"\nF.4 = "6*q2^2"\n'
            'F.5 = "p3"\nF.6 = "q3^3"\n')
        field, _ = fields_from_problem(spec)
        search = find_loci(field, WeightCertificate(spec.weights, 1))
        assert len(search.loci) == 3 * 2 * 3 - 1
        assert [loc.point for loc in search.loci if loc.is_exact] == [
            (0, 0, 1, -2, 0, 0)]
        root = 2 ** 0.5
        options = [[(0, 0), (root, -root), (-root, root)], [(0, 0), (1, -2)],
                   [(0, 0), (root, -root), (-root, root)]]
        expected = [sum(choice, ()) for choice in itertools.product(*options)]
        for locus in search.loci:
            assert any(all(x == 0 if y == 0 else abs(x - y) < 1e-9
                           for x, y in zip(locus.point, point))
                       for point in expected)
        assert len({tuple(round(complex(x).real, 6) for x in loc.point)
                    for loc in search.loci}) == 17


def _pattern_starts(field, cert, *, newton_starts=64, rng_seed=0):
    """Oracle: (free coordinates, starts) of every pattern the exact solver
    leaves incomplete, in search order; pattern p of a component draws
    from its own generator, default_rng([rng_seed, p])."""
    eqs = indicial_system(field, cert)
    out = []
    for component in kovalevskaya._components(eqs):
        patterns = [p for p in itertools.product((False, True),
                                                 repeat=len(component))
                    if not all(p)]
        for index, pattern in enumerate(patterns):
            free = [i for i, z in zip(component, pattern) if not z]
            free_vars = [field.variables[i] for i in free]
            zeroed = {v: 0 for v in field.variables if v not in free_vars}
            clamped = [_saturated(eqs[i], zeroed, free_vars)
                       for i in component]
            result = exactalg.solve_poly_system(clamped, free_vars)
            if _rooted_leaves(result, [eqs[i] for i in component],
                              field.variables, free_vars) is not None:
                continue
            rng = np.random.default_rng([rng_seed, index])
            starts = np.zeros((newton_starts, field.dim), dtype=np.complex128)
            starts[:, free] = (
                rng.standard_normal((newton_starts, len(free)))
                + 1j * rng.standard_normal((newton_starts, len(free))))
            out.append((free, starts))
    return out


def _split_quartic(cubic: bool):
    """q' = p, p' = q^3 (balances (+-sqrt 2, -+sqrt 2), the points of one
    leaf), after the cubic block q1' = p1, p1' = 6 q1^2 if cubic."""
    if cubic:
        text = ("variables = [q1:2, p1:3, q2:1, p2:2]\n"
                'F.1 = "p1"\nF.2 = "6*q1^2"\nF.3 = "p2"\nF.4 = "q2^3"\n')
    else:
        text = 'variables = [q2:1, p2:2]\nF.1 = "p2"\nF.2 = "q2^3"\n'
    spec = parse_problem(text)
    return fields_from_problem(spec)[0], WeightCertificate(spec.weights, 1)


def _chain_blocks(k, q="q", p="p"):
    """The declarations and right-hand sides of the chain: block i is
    q_i' = p_i, p_i' = 6 q_i^2 + q_(i-1)^2, weights (2, 3)."""
    decls, forces = [], []
    for i in range(1, k + 1):
        extra = f" + {q}{i - 1}^2" if i > 1 else ""
        decls.append(f"{q}{i}:2, {p}{i}:3")
        forces += [f"{p}{i}", f"6*{q}{i}^2{extra}"]
    return decls, forces


def _field_of_blocks(decls, forces):
    lines = ["variables = [" + ", ".join(decls) + "]"]
    lines += [f'F.{j} = "{force}"' for j, force in enumerate(forces, 1)]
    spec = parse_problem("\n".join(lines) + "\n")
    return fields_from_problem(spec)[0], WeightCertificate(spec.weights, 1)


def _chain(k, cubic=False):
    """The chain of k blocks, one component with 2^k - 1 balances, most of
    them irrational, after the cubic block u' = v, v' = 6 u^2 if cubic.
    At k = 3 the all-free pattern needs Newton: q2 is a root of
    6x^2 - 6x + 1 and block 3 is left to solve over it."""
    decls, forces = _chain_blocks(k)
    if cubic:
        decls, forces = ["u:2, v:3"] + decls, ["v", "6*u^2"] + forces
    return _field_of_blocks(decls, forces)


class TestNewtonOnDemand:
    """find_loci builds its Newton machinery only when a pattern needs it,
    and each pattern draws its starts from a generator of its own."""

    @pytest.mark.parametrize("rng_seed", range(4))
    @pytest.mark.parametrize("case", ["split", "chain"])
    def test_starts_are_the_pattern_draws(self, case, rng_seed):
        # split: the cubic block's patterns are settled exactly, and the
        # chain at k = 3, a second component, needs starts on its
        # all-free pattern; chain: one component whose incomplete
        # patterns lie between settled ones
        field, cert = _chain(3, cubic=case == "split")
        expected = _pattern_starts(field, cert, rng_seed=rng_seed)
        with mock.patch.object(kovalevskaya, "_newton_refine",
                               wraps=kovalevskaya._newton_refine) as newton:
            find_loci(field, cert, rng_seed=rng_seed)
        assert newton.call_count == len(expected) > 0
        for call, (free, starts) in zip(newton.call_args_list, expected):
            assert list(call.args[3]) == free
            assert np.array_equal(call.args[2], starts)

    @pytest.mark.parametrize("rng_seed", range(4))
    def test_a_component_searches_as_if_it_stood_alone(self, rng_seed):
        # the chain gets the same starts and the same points alone and
        # after a cubic block, and the split field gets every product
        loci, starts = {}, {}
        for cubic in (False, True):
            field, cert = _chain(3, cubic)
            with mock.patch.object(kovalevskaya, "_newton_refine",
                                   wraps=kovalevskaya._newton_refine) as newton:
                loci[cubic] = find_loci(field, cert, rng_seed=rng_seed).loci
            starts[cubic] = [call.args[2][:, -6:]
                             for call in newton.call_args_list]
        assert len(starts[True]) == len(starts[False]) > 0
        assert all(np.array_equal(a, b)
                   for a, b in zip(starts[True], starts[False]))
        assert len(loci[True]) == 2 * (len(loci[False]) + 1) - 1
        alone = [loc for loc in loci[True] if not any(loc.point[:2])]
        assert [loc.exactness for loc in alone] == [
            loc.exactness for loc in loci[False]]
        radius = kovalevskaya._merge_radius(DEFAULT_TOL)
        for a, b in zip(alone, loci[False]):
            if a.is_exact:
                assert a.point[2:] == b.point
            else:
                assert max(abs(complex(x) - complex(y))
                           for x, y in zip(a.point[2:], b.point)) <= radius

    def test_settled_search_compiles_and_draws_nothing(self):
        # two cubic blocks and a p4 block: every pattern is settled exactly
        field, cert = _uncoupled([("cubic", 1, 6), ("p4", 2, 3),
                                  ("cubic", 3, 5)])
        with mock.patch.object(kovalevskaya, "_compile_system",
                               side_effect=AssertionError), \
                mock.patch.object(np.random, "default_rng",
                                  side_effect=AssertionError):
            search = find_loci(field, cert)
        assert len(search.loci) == 2 * 4 * 2 - 1
        assert "newton" not in search.strategies


class _QuadraticFound(kovalevskaya._Found):
    """Reference: a numeric point is compared with every locus found, each
    converted to complex at every comparison."""

    def add_exact(self, point, source):
        if any(point) and point not in self._exact:
            self._exact.add(point)
            self.loci.append(kovalevskaya.IndicialLocus(point, "exact",
                                                        source))

    def add_numeric(self, point, source):
        if not any(max(abs(x - complex(y)) for x, y in zip(point,
                                                              known.point))
                   <= self.radius for known in self.loci):
            self.loci.append(kovalevskaya.IndicialLocus(point, "numeric",
                                                        source))


@st.composite
def _clouds(draw):
    """(radius, points): a few base points and, in random order, points
    within about 1.5 radius of them (merged or not), pairs that straddle a
    bucket edge of _Found (width 2 m radius, on the sum of the real and
    imaginary parts), exact points, and base points with one coordinate
    too large for a bucket or not finite, each followed by its base.  An
    exact point is a tuple of Fractions, a numeric one of complex."""
    m = draw(st.integers(1, 4))
    radius = draw(st.sampled_from([1e-8, 1e-5, 1e-2, 0.5]))
    width = 2 * m * radius
    part = st.floats(-4, 4)
    base = st.tuples(*[st.builds(complex, part, part)] * m)
    bases = draw(st.lists(base, min_size=1, max_size=4))
    jitter = st.floats(-1.5 * radius, 1.5 * radius)
    near = st.floats(-0.7 * radius, 0.7 * radius)
    points = []
    for kind in draw(st.lists(st.sampled_from(
            ["exact", "base", "near", "edge", "wild"]), min_size=1,
            max_size=24)):
        b = draw(st.sampled_from(bases))
        if kind == "exact":
            points.append(tuple(Fraction(x.real).limit_denominator(8)
                                for x in b))
        elif kind == "base":
            points.append(b)
        elif kind == "near":
            points.append(tuple(complex(x.real + draw(jitter),
                                        x.imag + draw(jitter)) for x in b))
        elif kind == "edge":
            # move b's sum onto the next bucket edge, less a part of the
            # radius, and add a point within radius on the other side
            total = sum(x.real + x.imag for x in b)
            edge = (math.floor(total / width) + 1) * width
            shift = edge - total - draw(st.floats(0, 0.6)) * radius
            a = (b[0] + shift,) + b[1:]
            points.append(a)
            points.append(tuple(complex(x.real + draw(near),
                                        x.imag + draw(near)) for x in a))
        else:
            # then b again: a nan past the first coordinate is skipped by
            # max, so that point is within radius of b
            wild = draw(st.sampled_from([1e300, math.inf, math.nan]))
            j = draw(st.integers(0, m - 1))
            points += [b[:j] + (complex(wild, 0),) + b[j + 1:], b]
    return radius, points


@given(_clouds())
@settings(max_examples=200, deadline=None)
def test_bucketed_merge_keeps_what_the_quadratic_merge_keeps(cloud):
    radius, points = cloud
    found, reference = kovalevskaya._Found(radius), _QuadraticFound(radius)
    for k, point in enumerate(points):
        exact = isinstance(point[0], Fraction)
        for merge in (found, reference):
            (merge.add_exact if exact else merge.add_numeric)(point, str(k))
    # the same points, in the same order and the same objects
    assert len(found.loci) == len(reference.loci)
    assert all(a.point is b.point and a == b
               for a, b in zip(found.loci, reference.loci))


@st.composite
def _coupled_chains(draw):
    """Block i is q_i' = p_i, p_i' = a_i q_i^2 + b_i q_(i-1)^2 with weights
    (2, 3) and random nonzero a_i, b_i, for k <= 3 blocks: one component."""
    k = draw(st.integers(1, 3))
    names = tuple(f"{c}{i}" for i in range(1, k + 1) for c in "qp")
    q = [MultiPoly.variable(f"q{i}", names) for i in range(1, k + 1)]
    p = [MultiPoly.variable(f"p{i}", names) for i in range(1, k + 1)]
    comps = []
    for i in range(k):
        force = q[i] * q[i] * draw(props.NONZERO_Q)
        if i:
            force = force + q[i - 1] * q[i - 1] * draw(props.NONZERO_Q)
        comps += [p[i], force]
    return VectorField(names, tuple(comps)), WeightCertificate((2, 3) * k, 1)


@st.composite
def _constant_fields(draw):
    """x' = a x^2 + b y^2, y' = c - d y^2 with weights (1, 1): the constant
    c breaks the weight law and keeps the field one component, and its
    monomial is alive under every pattern."""
    names = ("x", "y")
    x, y = (MultiPoly.variable(v, names) for v in names)
    a, b, c, d = (draw(props.NONZERO_Q) for _ in range(4))
    field = VectorField(names, (x * x * a + y * y * b, y * y * -d + c))
    return field, WeightCertificate((1, 1), 1)


@st.composite
def _p4_and_chains(draw):
    """Products of up to three parts, each a p4 block (weights 1, 1; a
    component the rule leaves three patterns) or a chain of up to three
    blocks with random coefficients, as in _coupled_chains."""
    parts = draw(st.lists(st.one_of(
        st.tuples(st.just("p4"), props.NONZERO_Q, props.NONZERO_Q),
        st.tuples(st.just("chain"), st.lists(
            st.tuples(props.NONZERO_Q, props.NONZERO_Q),
            min_size=1, max_size=3))), min_size=1, max_size=3))
    sizes = [2 if kind == "p4" else 2 * len(args[0])
             for kind, *args in parts]
    names = tuple(f"x{j}" for j in range(sum(sizes)))
    x = [MultiPoly.variable(v, names) for v in names]
    comps, weights, start = [], [], 0
    for (kind, *args), size in zip(parts, sizes):
        if kind == "p4":
            q, p = x[start:start + 2]
            u, v = args
            comps += [q * q * u + q * p * (2 * v),
                      p * q * (-2 * u) - p * p * v]
            weights += [1, 1]
        else:
            for i, (a, b) in enumerate(args[0]):
                q, p = x[start + 2 * i:start + 2 * i + 2]
                force = q * q * a
                if i:
                    force = force + x[start + 2 * i - 2] ** 2 * b
                comps += [p, force]
                weights += [2, 3]
        start += size
    return VectorField(names, tuple(comps)), WeightCertificate(tuple(weights),
                                                               1)


def _one_component(case):
    field, cert = case[:2]
    return len(kovalevskaya._split(indicial_system(field, cert), cert,
                                   kovalevskaya._ComponentTable())) == 1


class TestSupportRule:
    """A pattern in which some equation keeps one term, all of its
    variables free, is never solved: that equation cannot vanish where the
    free coordinates are all nonzero."""

    @given(st.one_of(props.graded_fields().filter(_one_component),
                     _coupled_chains(), _constant_fields()))
    @settings(max_examples=60, deadline=None)
    def test_skipped_supports_hold_no_locus(self, case):
        # on one component the search's patterns, starts and loci are
        # those of the search over every pattern, skipped ones included
        field, cert = case[:2]
        try:
            loci = find_loci(field, cert).loci
        except NoLocusFound:
            loci = ()
        assert loci == _search_all_patterns(field, cert)

    def test_the_chain_solves_one_support_per_suffix(self):
        # of the chain's 2^16 - 1 = 65,535 patterns at k = 8 (each solved
        # before the rule), only the supports of the 8 suffixes of blocks
        # survive: p_i + 2 q_i keeps one term unless block i is clamped or
        # free as a whole, and a free block i leaves
        # 6 q_(i+1)^2 + q_i^2 + 3 p_(i+1) with q_i^2 alone unless block
        # i + 1 is free too
        field, cert = _chain(8)
        with _counted_solves() as solves:
            search = find_loci(field, cert)
        assert [call.args[1] for call in solves.call_args_list] == [
            field.variables[2 * j:] for j in range(8)]
        assert any(locus.is_exact for locus in search.loci)

    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(st.integers(0, 2 ** n - 1),
                                      max_size=4), min_size=1, max_size=8))))
    @settings(max_examples=300, deadline=None)
    def test_the_enumeration_is_the_rule_on_every_index(self, case):
        n, supports = case
        assert (list(exactalg._surviving_patterns(supports, n))
                == _rule_patterns(supports, n))

    @given(st.one_of(props.scaled_problems(), _p4_and_chains()))
    @settings(max_examples=30, deadline=None)
    def test_the_search_is_every_rule_pattern_solved(self, case):
        # the settled whole system that ends a component and the
        # enumeration of its supports leave the loci, their order and
        # their sources those of a solve of every pattern the rule leaves
        field, cert = case[:2]
        try:
            loci = find_loci(field, cert).loci
        except NoLocusFound:
            loci = ()
        assert loci == _rule_search(field, cert)[0]

    @pytest.mark.parametrize("k", [3, 4])
    def test_newton_draws_with_the_rule_index(self, k):
        # each open pattern of the chain draws its starts from the
        # generator of its index among all 2^(2k) patterns: the all-free
        # one at k = 3, and at k = 4 also the suffix of blocks 2 to 4,
        # index 0b11000000 = 192
        field, cert = _chain(k)
        with mock.patch.object(kovalevskaya._Newton, "starts", autospec=True,
                               side_effect=kovalevskaya._Newton.starts) as drawn:
            find_loci(field, cert)
        opened = _rule_search(field, cert)[1]
        assert [index for _, index in opened] == [0, 192][:k - 2]
        assert [(list(call.args[1]), call.args[2])
                for call in drawn.call_args_list] == opened


def _rule_patterns(supports, n):
    """Oracle: every pattern index of n coordinates but the all-zero one
    that the support rule leaves, tested one by one."""
    return [index for index in range(2 ** n - 1)
            if not any([s & index for s in support].count(0) == 1
                       for support in supports)]


def _rule_search(field, cert, rng_seed=0, tolerance=DEFAULT_TOL):
    """Oracle: the loci of the search that solves, on each component,
    every pattern the support rule leaves (_rule_patterns), and the (free
    coordinates, index) of each pattern it hands to Newton, in order."""
    m = field.dim
    eqs = indicial_system(field, cert)
    newton = kovalevskaya._Newton(eqs, field.variables, 64, rng_seed,
                                  tolerance)
    radius = kovalevskaya._merge_radius(tolerance)
    split = kovalevskaya._split(eqs, cert, kovalevskaya._ComponentTable())
    parts, opened = [], []
    for component, _ in split:
        n = len(component)
        local = [eqs[i] for i in component]
        supports = [[sum(1 << (n - 1 - k) for k, j in enumerate(component)
                         if exps[j]) for exps in eq.terms] for eq in local]
        part = kovalevskaya._Found(radius)
        incomplete = []
        for index in _rule_patterns(supports, n):
            free = [j for k, j in enumerate(component)
                    if not index >> (n - 1 - k) & 1]
            free_vars = tuple(field.variables[j] for j in free)
            result = exactalg.solve_poly_system(
                [exactalg._clamp(eq, free, free_vars) for eq in local],
                free_vars)
            for point in result.points:
                part.add_exact(exactalg._embed(point, free, m),
                               "structured_search")
            rooted = kovalevskaya._leaf_points(result.leaves, local, free, m,
                                               tolerance)
            if rooted is None or not (result.complete or result.leaves):
                incomplete.append((free, index))
                continue
            for point in rooted:
                part.add_numeric(point, "structured_search")
        for free, index in incomplete:
            newton.refine(part, newton.starts(free, index), free, "newton")
        opened += incomplete
        parts.append(part.loci)
    found = kovalevskaya._Found(radius)
    for choice in itertools.product(*([None] + loci for loci in parts)):
        chosen = [locus for locus in choice if locus is not None]
        if not chosen:
            continue
        point = [Fraction(0)] * m
        for locus in chosen:
            point = [x if x != 0 else y for x, y in zip(point, locus.point)]
        source = ("newton" if any(locus.source == "newton"
                                  for locus in chosen)
                  else "structured_search")
        if all(locus.is_exact for locus in chosen):
            found.add_exact(tuple(point), source)
        else:
            found.add_numeric(tuple(map(complex, point)), source)
    loci = sorted(found.loci, key=lambda loc: (
        not loc.is_exact,
        loc.point if loc.is_exact else
        tuple((complex(x).real, complex(x).imag) for x in loc.point)))
    return tuple(loci), opened


def _whole_matrix_report(field, cert, point):
    """Oracle: the report computed on the whole m x m K(c), which is not
    split into blocks."""
    assert props.verify_locus(field, cert, point)
    matrix = kovalevskaya_matrix(field, cert, point)
    roots = roots_exact_first(matrix.charpoly())
    vector = tuple(Fraction(a) * c for a, c in zip(cert.weights, point))
    verified = (any(vector)
                and matrix.matvec(vector) == tuple(-v for v in vector))
    gamma = cert.degree
    semisimple = all(
        mult == 1 or len(matrix.shifted(r).kernel()) == mult
        for r, mult in roots.rational_roots
        if r > 0 and (r * gamma).denominator == 1)
    scaled = [r * gamma for r, _ in roots.rational_roots]
    minus_one = sum(mult for r, mult in roots.rational_roots if r == -1)
    if (not roots.is_fully_rational or any(s.denominator != 1 for s in scaled)
            or minus_one == 0):
        classification = "non_painleve"
    elif minus_one == 1 and all(r >= 0 for r, _ in roots.rational_roots
                                if r != -1):
        classification = "principal" if semisimple else "non_painleve"
    else:
        classification = "lower"
    return kovalevskaya.KExponentReport(
        exponents=roots,
        eigenpair_verified=verified,
        has_zero_exponent=any(r == 0 for r, _ in roots.rational_roots),
        classification=classification,
        semisimple_at_resonances=semisimple,
    )


def _assert_spectra_match_whole_matrix(field, cert):
    """spectra at every exact locus equals the oracle, field by field;
    returns the exact loci."""
    pairs = [(locus, report) for locus, report
             in spectra(find_loci(field, cert, newton_starts=0))
             if locus.is_exact]
    for locus, report in pairs:
        oracle = _whole_matrix_report(field, cert, locus.point)
        for name in (f.name for f in dataclasses.fields(report)):
            assert getattr(report, name) == getattr(oracle, name), (
                locus.point, name)
    return [locus for locus, _ in pairs]


class TestBlockSpectra:
    @given(st.lists(st.tuples(st.sampled_from(sorted(_BLOCKS)
                                              + sorted(_BLOCKS_3D)),
                              props.NONZERO_Q, props.NONZERO_Q),
                    min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_spectra_match_the_whole_matrix(self, blocks):
        # repeated blocks put an irrational pair at multiplicity 2 (Yun on
        # the product of the block residuals) and split a positive
        # resonance's algebraic multiplicity across blocks, semisimple
        # (p4) or not (jordan3)
        _assert_spectra_match_whole_matrix(*_uncoupled(blocks))

    def test_two_complex3_blocks_and_a_cubic(self):
        field, cert = _uncoupled([("complex3", 1, 1), ("complex3", 1, 1),
                                   ("cubic", 1, 6)])
        exact = _assert_spectra_match_whole_matrix(field, cert)
        assert len(exact) == 17
        report = k_exponents(field, cert, (0, 1, 0, 0, 1, 0, 0, 0))
        assert report.exponents.residual_factor == (1, -8, 30, -56, 49)
        assert [mult for _, mult, _ in report.exponents.numeric_roots] == [2, 2]
        assert report.exponents.rational_roots == ((-1, 2), (2, 1), (3, 1))

    def test_jordan_block_is_not_semisimple(self):
        field, cert = _uncoupled([("jordan3", 1, 1), ("cubic", 1, 6)])
        report = k_exponents(field, cert, (1, 0, 0, 0, 0))
        assert report.exponents.rational_roots == ((-1, 1), (2, 3), (3, 1))
        assert not report.semisimple_at_resonances
        assert report.classification == "non_painleve"

    def test_interleaved_components_put_their_shares_in_place(self):
        # the components [q, p], [u] and [v] are interleaved in the
        # field's order q, u, v, p, and each locus's report is that of the
        # whole matrix
        spec = parse_problem('variables = [q:2, u:1, v:1, p:3]\n'
                             'F.1 = "p"\nF.2 = "u^2"\nF.3 = "2*v^2"\n'
                             'F.4 = "6*q^2"\n')
        field, _ = fields_from_problem(spec)
        cert = WeightCertificate(spec.weights, 1)
        exact = _assert_spectra_match_whole_matrix(field, cert)
        assert len(exact) == 7

    def test_a_field_with_a_constant_term_is_one_block(self):
        # x' = x^2, y' = 2 - y^2: the constant term keeps the search from
        # splitting the field, and the spectra read the same single block
        names = ("x", "y")
        x, y = (MultiPoly.variable(v, names) for v in names)
        field = VectorField(names, (x * x, 2 - y * y))
        cert = WeightCertificate((1, 1), 1)
        search = find_loci(field, cert, newton_starts=0)
        assert [component for component, _ in search._split] == [[0, 1]]
        pairs = spectra(search)
        assert [locus.point for locus, _ in pairs] == [
            (-1, -1), (-1, 2), (0, -1), (0, 2)]
        assert [report.classification for _, report in pairs] == [
            "principal", "lower", "non_painleve", "non_painleve"]
        for locus, report in pairs:
            assert report == _whole_matrix_report(field, cert, locus.point)

    @staticmethod
    def _charpolys(blocks):
        """The charpolys spectra takes at every locus of the uncoupled
        blocks, one per ExactMatrix.resolvent call it is read off; each
        block is at its zero or at its balance."""
        field, cert = _uncoupled(blocks)
        search = find_loci(field, cert)
        assert len(search.loci) == 2 ** len(blocks) - 1
        with mock.patch.object(ExactMatrix, "resolvent", autospec=True,
                               side_effect=ExactMatrix.resolvent) as charpoly:
            pairs = spectra(search)
        assert all(report.classification == (
            "principal" if sum(map(bool, locus.point)) == 2 else "lower")
            for locus, report in pairs)
        return charpoly.call_count

    def test_eight_cubic_blocks_take_two_charpolys_each(self):
        # 255 loci; eight different b make eight distinct blocks
        assert self._charpolys([("cubic", 1, 6 + k) for k in range(8)]) == 16

    def test_eight_identical_cubic_blocks_take_two_charpolys_in_all(self):
        # eight equal blocks have one form, whose two block spectra the
        # component table computes once
        assert self._charpolys([("cubic", 1, 6)] * 8) == 2

    @staticmethod
    def _searches():
        return mock.patch.object(exactalg, "_positive_rational_roots",
                                 wraps=exactalg._positive_rational_roots)

    def test_ten_distinct_cubic_blocks_search_no_root(self):
        # at a balance -1 divides out and leaves 6 to read off; at zero the
        # weights 2 and 3 divide out: no block searches
        field, cert = _uncoupled([("cubic", 1, 6 + k) for k in range(1, 11)])
        search = find_loci(field, cert)
        with self._searches() as searches:
            pairs = spectra(search)
        assert len(pairs) == 1023
        assert searches.call_count == 0
        assert {report.exponents.multiset() for _, report in pairs} == {
            (-1,) * n + (2,) * (10 - n) + (3,) * (10 - n) + (6,) * n
            for n in range(1, 11)}

    def test_coupled_block_searches_the_cubic_left_after_minus_one(
            self, pair4d_deg3):
        field, _, cert = pair4d_deg3
        with self._searches() as searches:
            block = kovalevskaya._block(field, cert, [0, 1, 2, 3],
                                        (1, 1, 1, -1), None)
        assert block.exact_roots == (((-1, 1), (2, 1), (5, 1), (8, 1)), (1,))
        # (t - 2)(t - 5)(t - 8), ascending
        assert [call.args for call in searches.call_args_list] == [
            ([-80, 66, -15, 1], 1)]

    def test_failed_eigenpair_keeps_the_exact_spectrum(self):
        # (1/2, 7) is no balance of q' = p, p' = 6 q^2: K = [[2, 1], [6, 3]]
        # has the spectrum {0, 5}, so the candidate -1 does not divide
        field, cert = _uncoupled([("cubic", 1, 6)])
        point = (Fraction(1, 2), Fraction(7))
        block = kovalevskaya._block(field, cert, [0, 1], point, None)
        assert not block.eigenpair
        assert block.exact_roots == exactalg._exact_roots(
            kovalevskaya_matrix(field, cert, point).charpoly())
        assert block.exact_roots == (((0, 1), (5, 1)), (1,))


class TestLengths:
    """A point or a certificate whose length is not the field's dimension
    is refused by name: it is neither read in part (a longer point, a
    longer certificate) nor met with a bare KeyError or IndexError."""

    def test_build_series_refuses_a_point_with_a_coordinate_too_many(
            self, cubic2d):
        field, cert = cubic2d
        with pytest.raises(ValueError,
                           match="^point has 3 coordinates, field has 2$"):
            build_series(field, cert, (1, -2, 99))

    def test_k_exponents_refuses_a_point_with_a_coordinate_too_few(
            self, cubic2d):
        field, cert = cubic2d
        with pytest.raises(ValueError,
                           match="^point has 1 coordinates, field has 2$"):
            k_exponents(field, cert, (1,))

    def test_kovalevskaya_matrix_refuses_a_point_with_a_coordinate_too_few(
            self, cubic2d):
        field, cert = cubic2d
        with pytest.raises(ValueError,
                           match="^point has 1 coordinates, field has 2$"):
            kovalevskaya_matrix(field, cert, (1,))

    @pytest.mark.parametrize("weights", [(2,), (2, 3, 5)])
    def test_a_certificate_of_another_length_is_a_dimension_mismatch(
            self, cubic2d, weights):
        # (2, 3, 5) on x' = y, y' = 6 x^2 gave the (1, -2) balance, its
        # third weight ignored, and (2,) an IndexError
        field, _ = cubic2d
        cert = WeightCertificate(weights, 1)
        with pytest.raises(DimensionMismatchError):
            indicial_system(field, cert)
        with pytest.raises(DimensionMismatchError):
            find_loci(field, cert)
        with pytest.raises(DimensionMismatchError):
            k_exponents(field, cert, (1, -2))
