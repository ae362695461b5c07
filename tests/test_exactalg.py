"""Exact-arithmetic layer: frozen oracles plus algebraic invariants."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kovex.exactalg import (
    ExactMatrix,
    MultiPoly,
    NumericNonConvergence,
    poly_eval,
    rational_roots,
    roots_exact_first,
    snap_rational,
)

F = Fraction


def P(expr_terms, vars):
    return MultiPoly(vars, expr_terms)


# ---------------------------------------------------------------------------
# polynomials


class TestMultiPoly:
    def test_binomial_square(self):
        x = MultiPoly.variable("x", ("x", "y"))
        y = MultiPoly.variable("y", ("x", "y"))
        assert (x + y) ** 2 == P({(2, 0): 1, (1, 1): 2, (0, 2): 1}, ("x", "y"))

    def test_zero_coefficients_dropped(self):
        p = P({(1,): 1}, ("x",)) - P({(1,): 1}, ("x",))
        assert not p
        assert p.terms == {}

    def test_variable_merge_is_sorted_union(self):
        p = MultiPoly.variable("x") + MultiPoly.variable("a")
        assert p.vars == ("a", "x")
        assert p == P({(1, 0): 1, (0, 1): 1}, ("a", "x"))

    def test_diff(self):
        p = P({(3, 1): 2, (0, 2): 5}, ("x", "y"))
        assert p.diff("x") == P({(2, 1): 6}, ("x", "y"))
        assert p.diff("y") == P({(3, 0): 2, (0, 1): 10}, ("x", "y"))
        assert p.diff("z") == 0

    def test_evaluate_exact(self):
        p = P({(2, 0): 1, (0, 1): -2}, ("x", "y"))
        assert p.evaluate({"x": F(1, 2), "y": F(3)}) == F(1, 4) - 6

    def test_evaluate_complex(self):
        p = P({(2,): 1, (0,): 1}, ("x",))
        assert p.evaluate({"x": 1j}) == 0

    def test_evaluate_missing_variable(self):
        p = P({(1, 1): 1}, ("x", "y"))
        with pytest.raises(KeyError):
            p.evaluate({"x": 1})

    def test_substitute_polynomial(self):
        # x^2 with x -> y + 1
        p = P({(2,): 1}, ("x",))
        q = p.substitute({"x": MultiPoly.variable("y") + 1})
        assert q == P({(2,): 1, (1,): 2, (0,): 1}, ("y",))

    def test_substitute_unknown_variable_rejected(self):
        p = P({(1,): 1}, ("x",))
        with pytest.raises(KeyError):
            p.substitute({"z": 1})

    def test_quasi_homogeneous_degree(self):
        # 6*x^2 has weighted degree 4 for weight (2, 3); y has 3
        f2 = P({(2, 0): 6}, ("x", "y"))
        f1 = P({(0, 1): 1}, ("x", "y"))
        assert f2.quasi_homogeneous_degree([2, 3]) == 4
        assert f1.quasi_homogeneous_degree([2, 3]) == 3
        mixed = f1 + f2
        assert mixed.quasi_homogeneous_degree([2, 3]) is None

    def test_truediv_by_scalar(self):
        p = P({(1,): 3}, ("x",))
        assert p / 3 == P({(1,): 1}, ("x",))
        with pytest.raises(ZeroDivisionError):
            p / 0

    def test_str_is_deterministic(self):
        p = P({(2, 0): -1, (0, 0): F(3, 2), (1, 1): 1}, ("x", "y"))
        assert str(p) == "-x^2 + x*y + 3/2"
        assert str(MultiPoly.zero(("x",))) == "0"

    def test_rejects_float_coefficients(self):
        with pytest.raises(TypeError):
            MultiPoly(("x",), {(1,): 0.5})

    def test_public_constructor_still_validates(self):
        # arithmetic skips validation internally; direct construction
        # must not
        with pytest.raises(ValueError, match="duplicate"):
            MultiPoly(("x", "x"), {(1, 0): 1})
        with pytest.raises(ValueError, match="negative"):
            MultiPoly(("x", "y"), {(1, -1): 1})
        with pytest.raises(ValueError, match="does not match"):
            MultiPoly(("x", "y"), {(1,): 1})
        with pytest.raises(ValueError, match="does not match"):
            MultiPoly(("x",), {(1, 0): 1})


@st.composite
def small_polys(draw):
    vars = ("u", "v")
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        e = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[e] = F(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
    return MultiPoly(vars, terms)


@settings(max_examples=100)
@given(small_polys(), small_polys(), small_polys())
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p + MultiPoly.zero() == p


@settings(max_examples=100)
@given(small_polys(), small_polys(),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_arithmetic_results_are_already_clean(p, q, c):
    # results bypass the validating constructor, so re-validating them
    # must change nothing: no zero coefficients, exact values, exponent
    # tuples aligned with vars
    for r in (p + q, p - q, -p, p * q, p * c, c * p, p.embed(("a", "u", "v"))):
        revalidated = MultiPoly(r.vars, r.terms)
        assert list(revalidated.terms.items()) == list(r.terms.items())
        assert all(type(v) is Fraction for v in r.terms.values())


@settings(max_examples=100)
@given(small_polys(),
       st.fractions(min_value=-5, max_value=5, max_denominator=20),
       st.fractions(min_value=-5, max_value=5, max_denominator=20))
def test_substitute_matches_evaluate(p, a, b):
    point = {"u": a, "v": b}
    collapsed = p.substitute(point)
    assert collapsed.vars == ()
    assert collapsed.constant_term() == p.evaluate(point)


@settings(max_examples=100)
@given(small_polys())
def test_substitute_identity(p):
    assert p.substitute({v: MultiPoly.variable(v) for v in p.vars}) == p


UVW = ("u", "v", "w")


@st.composite
def uvw_polys(draw, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, 3)) for _ in UVW)
        terms[e] = F(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
    return MultiPoly(UVW, terms)


@st.composite
def substitutions(draw):
    """Per variable: left alone, a scalar (zero half the time), or a
    polynomial that may use the substituted variables again."""
    mapping = {}
    for v in UVW:
        kind = draw(st.sampled_from(["keep", "zero", "scalar", "poly"]))
        if kind == "zero":
            mapping[v] = draw(st.sampled_from([0, F(0)]))
        elif kind == "scalar":
            mapping[v] = draw(st.one_of(
                st.integers(-3, 3),
                st.fractions(min_value=-3, max_value=3, max_denominator=4)))
        elif kind == "poly":
            mapping[v] = draw(uvw_polys(max_terms=3))
    return mapping


@settings(max_examples=200)
@given(uvw_polys(), substitutions())
def test_substitute_matches_evaluating_on_polynomials(p, mapping):
    # evaluate() at polynomial values multiplies whole polynomials, the
    # way substitute() once did; both substitute simultaneously
    result = p.substitute(mapping)
    expected = p.evaluate({v: mapping.get(v, MultiPoly.variable(v, UVW))
                           for v in UVW})
    assert result == expected
    assert all(type(c) is Fraction and c for c in result.terms.values())
    assert all(len(e) == len(result.vars) for e in result.terms)
    assert list(result.vars) == sorted(result.vars)
    reachable = {v for v in UVW if v not in mapping}
    for value in mapping.values():
        if isinstance(value, MultiPoly):
            reachable.update(value.vars)
    assert set(result.vars) <= reachable


# ---------------------------------------------------------------------------
# matrices


class TestExactMatrix:
    def test_charpoly_oracle(self):
        # frozen: det(tI - [[2,1],[12,3]]) = t^2 - 5t - 6
        m = ExactMatrix([[2, 1], [12, 3]])
        assert m.charpoly() == [F(1), F(-5), F(-6)]

    def test_charpoly_diagonal(self):
        m = ExactMatrix([[3, 0], [0, -1]])
        assert m.charpoly() == [F(1), F(-2), F(-3)]

    def test_rref_pivots(self):
        m = ExactMatrix([[0, 2, 1], [0, 4, 2]])
        reduced, pivots = m.rref()
        assert pivots == (1,)
        assert reduced.data[0] == (F(0), F(1), F(1, 2))
        assert reduced.data[1] == (F(0), F(0), F(0))

    def test_kernel_of_rank_one(self):
        m = ExactMatrix([[1, 2], [2, 4]])
        assert m.kernel() == ((F(-2), F(1)),)

    def test_kernel_of_invertible_is_empty(self):
        assert ExactMatrix([[2, 1], [12, 3]]).kernel() == ()

    def test_solve_singular_consistent(self):
        m = ExactMatrix([[1, 2], [2, 4]])
        particular, residue = m.solve_singular([1, 2])
        assert particular == (F(1), F(0))
        assert residue == (F(0),)
        assert m.matvec(particular) == (F(1), F(2))

    def test_solve_singular_inconsistent(self):
        m = ExactMatrix([[1, 2], [2, 4]])
        _, residue = m.solve_singular([1, 3])
        assert len(residue) == 1 and residue[0] != 0

    def test_solve_regular(self):
        m = ExactMatrix([[2, 1], [12, 3]])
        particular, residue = m.solve_singular([1, 0])
        assert residue == ()
        assert m.matvec(particular) == (F(1), F(0))

    def test_solve_singular_polynomial_rhs_names_the_bad_monomial(self):
        # a*(1, 2) is consistent, b*(1, 3) is not.  Per monomial e, the
        # residue must flag exactly the inconsistent ones and the particular
        # part must match a row reduction of [A | b_e] done here.
        m = ExactMatrix([[1, 2], [2, 4]])
        a = MultiPoly.variable("a", ("a", "b"))
        b = MultiPoly.variable("b", ("a", "b"))
        rhs = [a + b, a * 2 + b * 3]
        particular, residue = m.solve_singular(rhs)
        assert len(residue) == 1
        assert set(residue[0].terms) == {(0, 1)}
        for e in ((1, 0), (0, 1)):
            values = [p.terms.get(e, F(0)) for p in rhs]
            reduced, pivots = ExactMatrix(
                [list(row) + [v] for row, v in zip(m.data, values)]).rref()
            assert (m.ncols in pivots) == (e in residue[0].terms)
            if m.ncols in pivots:
                continue
            expected = [F(0)] * m.ncols
            for row, pc in enumerate(pivots):
                expected[pc] = reduced.data[row][m.ncols]
            assert [p.terms.get(e, F(0)) for p in particular] == expected

    def test_matmul(self):
        a = ExactMatrix([[1, 2], [3, 4]])
        b = ExactMatrix([[0, 1], [1, 0]])
        assert a * b == ExactMatrix([[2, 1], [4, 3]])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2], [3]])


@st.composite
def small_matrices(draw, n_max=4):
    n = draw(st.integers(1, n_max))
    rows = [[draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(n)]
    return ExactMatrix(rows)


@settings(max_examples=100)
@given(small_matrices())
def test_charpoly_matches_det_and_trace(m):
    # the constant term is (-1)^n det, taken from the Faddeev-LeVerrier oracle
    coeffs = m.charpoly()
    assert coeffs[0] == 1
    assert coeffs[1] == -m.trace()
    assert coeffs[-1] == _faddeev_leverrier(m)[-1]


@settings(max_examples=100)
@given(small_matrices(), st.data())
def test_solve_singular_residual_is_exactly_zero(m, data):
    x0 = [data.draw(st.integers(-5, 5)) for _ in range(m.ncols)]
    b = m.matvec(x0)
    particular, residue = m.solve_singular(b)
    assert not any(residue)  # constructed consistent
    assert len(residue) == m.nrows - m.rank()
    assert m.matvec(particular) == b
    for k in m.kernel():
        assert m.matvec(k) == tuple([F(0)] * m.nrows)


@settings(max_examples=100)
@given(small_matrices())
def test_root_multiset_matches_trace_and_det(m):
    rs = roots_exact_first(m.charpoly())
    roots = rs.multiset()
    assert len(roots) == m.nrows
    assert (sum(type(r) is Fraction for r in roots)
            == sum(mult for _, mult in rs.rational_roots))
    assert list(roots) == sorted(roots, key=lambda r: (complex(r).real,
                                                       complex(r).imag))
    assert math.isclose(sum(r.real for r in roots), float(m.trace()), abs_tol=1e-6)
    assert abs(sum(r.imag for r in roots)) < 1e-6
    prod = complex(1)
    for r in roots:
        prod *= r
    det = (-1) ** m.nrows * _faddeev_leverrier(m)[-1]
    assert abs(prod - complex(det)) < 1e-5 * max(1.0, abs(float(det)))


def _faddeev_leverrier(m):
    """Oracle: det(tI - A), descending, by Faddeev-LeVerrier.

    n dense matrix products over Q; the divisions by the step index are
    exact.  It shares no step with the Hessenberg reduction under test.
    """
    n = m.nrows
    coeffs = [F(1)]
    power = ExactMatrix.identity(n)
    for k in range(1, n + 1):
        power = m * power
        ck = -power.trace() / k
        coeffs.append(ck)
        power = power + ExactMatrix.identity(n) * ck
    return coeffs


@st.composite
def charpoly_matrices(draw):
    """Up to 8x8: dense, sparse, block-diagonal, or with columns zeroed
    below the diagonal.  Column 0 is reduced first, on the entries drawn
    here, so zeroing its subdiagonal entry forces a row and column swap
    (when an entry below it is nonzero) and zeroing all of it leaves no
    pivot; later columns meet both cases after earlier steps too."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(
        ["dense", "sparse", "block_diagonal", "zero_subdiagonal"]))
    entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if kind == "sparse":
        rows = [[x if draw(st.integers(0, 3)) == 0 else F(0) for x in row]
                for row in rows]
    elif kind == "block_diagonal":
        cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
        block = [sum(c <= i for c in cuts) for i in range(n)]
        rows = [[x if block[i] == block[j] else F(0)
                 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    elif kind == "zero_subdiagonal" and n > 1:
        for c in draw(st.sets(st.integers(0, n - 2))):
            below = [c + 1] if draw(st.booleans()) else range(c + 1, n)
            for i in below:
                rows[i][c] = F(0)
    return ExactMatrix(rows)


@settings(max_examples=150, deadline=None)
@given(charpoly_matrices())
# a swap in column 0; no pivot in column 0, then column 1 to reduce;
# a nilpotent matrix; two 2x2 blocks
@example(ExactMatrix([[1, 2, 3], [0, 4, 5], [6, 7, 8]]))
@example(ExactMatrix([[1, 2, 3, 4], [0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 9]]))
@example(ExactMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]))
@example(ExactMatrix([[2, 1, 0, 0], [12, 3, 0, 0], [0, 0, 2, 1], [0, 0, 12, 3]]))
def test_charpoly_matches_faddeev_leverrier(m):
    coeffs = m.charpoly()
    assert coeffs == _faddeev_leverrier(m)
    assert all(type(c) is Fraction for c in coeffs)


# ---------------------------------------------------------------------------
# root isolation


class TestRoots:
    def test_oracle_charpoly_roots(self):
        rs = roots_exact_first([F(1), F(-5), F(-6)])
        assert rs.rational_roots == ((F(-1), 1), (F(6), 1))
        assert rs.is_fully_rational
        assert rs.numeric_roots == ()

    def test_zero_root_multiplicity(self):
        # x^3 - x^2 = x^2 (x - 1)
        rs = roots_exact_first([1, -1, 0, 0])
        assert rs.rational_roots == ((F(0), 2), (F(1), 1))

    def test_repeated_rational_root(self):
        # (x - 2)^2 (x + 3)
        rs = roots_exact_first([1, -1, -8, 12])
        assert rs.rational_roots == ((F(-3), 1), (F(2), 2))

    def test_non_monic_input(self):
        rs = roots_exact_first([2, -10, -12])
        assert rs.rational_roots == ((F(-1), 1), (F(6), 1))

    def test_fractional_root(self):
        # (2x - 1)(x + 2) = 2x^2 + 3x - 2
        rs = roots_exact_first([2, 3, -2])
        assert rs.rational_roots == ((F(-2), 1), (F(1, 2), 1))

    def test_irrational_pair(self):
        rs = roots_exact_first([1, 0, -2])
        assert rs.rational_roots == ()
        assert rs.residual_factor == (F(1), F(0), F(-2))
        assert not rs.is_fully_rational
        [(r1, m1, e1), (r2, m2, e2)] = rs.numeric_roots
        assert m1 == m2 == 1
        assert max(e1, e2) <= 1e-12
        assert abs(r1 + math.sqrt(2)) < 1e-9
        assert abs(r2 - math.sqrt(2)) < 1e-9

    def test_mixed_rational_and_irrational(self):
        # (x - 1)(x^2 - 2)
        rs = roots_exact_first([1, -1, -2, 2])
        assert rs.rational_roots == ((F(1), 1),)
        assert len(rs.numeric_roots) == 2

    def test_complex_pair(self):
        rs = roots_exact_first([1, 0, 1])
        [(r1, _, _), (r2, _, _)] = rs.numeric_roots
        assert abs(r1 + 1j) < 1e-9
        assert abs(r2 - 1j) < 1e-9

    def test_repeated_irrational_root(self):
        # (x^2 - 2)^2: Yun decomposition should report multiplicity 2
        rs = roots_exact_first([1, 0, -4, 0, 4])
        assert rs.rational_roots == ()
        assert sorted(m for _, m, _ in rs.numeric_roots) == [2, 2]
        assert len(rs.multiset()) == 4

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            roots_exact_first([0, 1, 1])

    def test_values_order(self):
        # multiset(): roots repeated by multiplicity, sorted by (re, im),
        # rational ones kept exact
        r2 = math.sqrt(2)
        cases = [
            ([1, -1, -2, 2], [-r2, F(1), r2]),            # (x - 1)(x^2 - 2)
            ([1, -1, -8, 12], [F(-3), F(2), F(2)]),       # (x + 3)(x - 2)^2
            ([1, 0, -4, 0, 4], [-r2, -r2, r2, r2]),       # (x^2 - 2)^2
            ([1, 1, 1, 1], [F(-1), -1j, 1j]),             # (x + 1)(x^2 + 1)
        ]
        for coeffs, expected in cases:
            values = roots_exact_first(coeffs).multiset()
            assert len(values) == len(expected)
            for got, want in zip(values, expected):
                if isinstance(want, Fraction):
                    assert type(got) is Fraction and got == want
                else:
                    assert not isinstance(got, Fraction)
                    assert abs(got - want) < 1e-9


@settings(max_examples=100)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                min_size=1, max_size=5))
def test_rational_root_completeness_on_linear_products(roots):
    # expand prod (x - r_i) exactly, then demand every root back with multiplicity
    coeffs = [F(1)]
    for r in roots:
        coeffs = [a - b * r for a, b in zip(coeffs + [F(0)], [F(0)] + coeffs)]
    rs = roots_exact_first(coeffs)
    assert rs.is_fully_rational
    expected = {}
    for r in roots:
        expected[r] = expected.get(r, 0) + 1
    assert dict(rs.rational_roots) == expected


def _divisors(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _rational_root(coeffs):
    """Oracle: one rational root of a monic rational polynomial, or None.

    Clears denominators and tries each p/q with p | a0 and q | lead, as
    the rational root theorem allows, so the search is complete; its cost
    grows with the number of divisors of the constant term, which limits
    it to small coefficients.
    """
    denom_lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom_lcm) for c in coeffs]
    a0 = ints[-1]
    if a0 == 0:
        return F(0)
    candidates = sorted({
        sign * F(p, q)
        for p in _divisors(a0)
        for q in _divisors(ints[0])
        for sign in (1, -1)
    })
    for r in candidates:
        if poly_eval(coeffs, r) == 0:
            return r
    return None


def _oracle_roots(coeffs):
    """Every distinct rational root, ascending: trial division and deflation."""
    monic = [F(c) / F(coeffs[0]) for c in coeffs]
    found = set()
    while len(monic) > 1:
        root = _rational_root(monic)
        if root is None:
            break
        found.add(root)
        quotient = [monic[0]]
        for c in monic[1:-1]:
            quotient.append(c + quotient[-1] * root)
        monic = quotient
    return sorted(found)


def _expand(lead, factors):
    """Descending coefficients of lead * prod(factors), factors descending."""
    coeffs = [F(lead)]
    for factor in factors:
        out = [F(0)] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = out
    return coeffs


RATIONALS = st.fractions(min_value=-12, max_value=12, max_denominator=6)
# factors without a rational root: x^2 + b (b > 0), x^2 - 2 t^2 (t != 0)
# and x^3 - 3 t^3 (t != 0)
ROOTLESS = st.one_of(
    st.fractions(min_value=0, max_value=9, max_denominator=4).filter(bool)
    .map(lambda b: [F(1), F(0), b]),
    st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
    .map(lambda t: [F(1), F(0), -2 * t * t]),
    st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)
    .map(lambda t: [F(1), F(0), F(0), -3 * t ** 3]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(RATIONALS, max_size=4), st.lists(ROOTLESS, max_size=2),
       st.fractions(min_value=-7, max_value=7, max_denominator=3).filter(bool))
def test_rational_roots_match_trial_division(roots, rootless, lead):
    coeffs = _expand(lead, [[F(1), -r] for r in roots] + rootless)
    found = rational_roots(coeffs)
    assert found == _oracle_roots(coeffs)
    assert found == sorted(set(roots))


class TestRationalRoots:
    @pytest.mark.parametrize("roots", [
        [F(1, 2)],                          # the first bisection point
        [F(1), F(2), F(4), F(64)],          # dyadic points at every scale
        [F(-1, 2), F(-1), F(-8)],           # the same, mirrored
        [F(-3), F(-1, 7), F(5, 3)],
        [F(2), F(2), F(2), F(-1, 3), F(-1, 3)],   # repeated roots
        [F(1, 1000), F(1, 1001)],           # 1/lead apart, the least possible
        [F(0), F(0), F(3)],
        [F(2, 9)],                          # below 1 with an odd lead: the
        [F(-4, 27), F(2, 9)],               # search starts on (0, 1) itself
    ])
    def test_pinned_roots(self, roots):
        coeffs = _expand(3, [[F(1), -r] for r in roots])
        assert rational_roots(coeffs) == sorted(set(roots))
        expected = {r: roots.count(r) for r in roots}
        assert dict(roots_exact_first(coeffs).rational_roots) == expected

    def test_irrational_root_closer_than_one_over_lead_squared(self):
        # x^2 - 1000x + 2990 has a root 0.001 below 3 (lead 1)
        coeffs = _expand(1, [[F(1), F(-3)], [F(1), F(-1000), F(2990)]])
        assert rational_roots(coeffs) == [F(3)]
        rs = roots_exact_first(coeffs)
        assert rs.rational_roots == ((F(3), 1),)
        assert len(rs.numeric_roots) == 2

    @pytest.mark.parametrize("coeffs", [
        [1, 0, 1],                  # complex pair
        [1, 0, -2],                 # irrational pair
        [4, 0, -3, 0, 1, 0, 7],     # no real root at all
        [1, -1, -1],                # golden ratio, straddles dyadic points
        [F(1, 3), F(5, 7), F(-2, 11)],
    ])
    def test_no_rational_root(self, coeffs):
        assert rational_roots(coeffs) == []
        assert roots_exact_first(coeffs).rational_roots == ()

    def test_large_constant_term(self):
        # (x - p/q)(x + q/p) with 13-digit primes: trial division would
        # need about 10^6.5 divisions per candidate side
        p, q = 1000000000039, 999999999989
        coeffs = _expand(1, [[F(1), F(-p, q)], [F(1), F(q, p)]])
        assert rational_roots(coeffs) == [F(-q, p), F(p, q)]


class TestSnapRational:
    def test_exact_halves(self):
        assert snap_rational(0.5) == F(1, 2)

    def test_near_third(self):
        assert snap_rational(1 / 3) == F(1, 3)

    def test_pi_does_not_snap(self):
        assert snap_rational(math.pi) is None

    def test_complex_with_tiny_imaginary_part(self):
        assert snap_rational(0.25 + 1e-14j) == F(1, 4)

    def test_complex_with_large_imaginary_part(self):
        assert snap_rational(1.0 + 0.5j) is None

    def test_infinity(self):
        assert snap_rational(math.inf) is None


def test_poly_eval_is_exact_for_fractions():
    assert poly_eval([F(1), F(-5), F(-6)], F(6)) == 0
    assert poly_eval([F(1), F(-5), F(-6)], F(-1)) == 0
