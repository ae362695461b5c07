"""Exact-arithmetic layer: frozen oracles plus algebraic invariants."""

import cmath
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kovex import exactalg
from kovex.exactalg import (
    ExactMatrix,
    MultiPoly,
    NumericNonConvergence,
    poly_eval,
    roots_exact_first,
    snap_rational,
    solve_poly_system,
)
from kovex.laurent import _IntPoly, _regular_solve
from kovex.vfmodel import off_weight

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
        weights = {"x": 2, "y": 3}
        f2 = P({(2, 0): 6}, ("x", "y"))
        f1 = P({(0, 1): 1}, ("x", "y"))
        assert off_weight(f2, weights, 4) == ()
        assert off_weight(f2, weights, 3) == ((2, 0),)
        assert off_weight(f1, weights, 3) == ()
        mixed = f1 + f2
        assert off_weight(mixed, weights, 3) == ((2, 0),)
        assert off_weight(mixed, weights, 4) == ((0, 1),)
        # sorted, whatever order the terms were built in
        assert off_weight(P({(2, 0): 6, (0, 1): 1}, ("x", "y")), weights,
                          5) == ((0, 1), (2, 0))
        # only the variables the polynomial has are looked up
        assert off_weight(P({(3,): 1}, ("x",)), weights, 6) == ()

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

    def test_charpoly_needs_a_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            ExactMatrix([[1, 2, 3], [4, 5, 6]]).charpoly()

    def test_rref_pivots(self):
        m = ExactMatrix([[0, 2, 1], [0, 4, 2]])
        reduced, pivots = m.rref()
        assert pivots == (1,)
        assert reduced.data[0] == (F(0), F(1), F(1, 2))
        assert reduced.data[1] == (F(0), F(0), F(0))

    def test_shifted_subtracts_from_the_diagonal_only(self):
        m = ExactMatrix([[2, 1], [12, 3]])
        assert m.shifted(F(1, 2)) == ExactMatrix([[F(3, 2), 1], [12, F(5, 2)]])
        assert m.shifted(-3) == ExactMatrix([[5, 1], [12, 6]])
        assert m.shifted(0) == m
        with pytest.raises(TypeError):
            m.shifted(0.5)

    def test_kernel_of_rank_one(self):
        m = ExactMatrix([[1, 2], [2, 4]])
        assert m.kernel() == ((F(-2), F(1)),)

    def test_kernel_of_invertible_is_empty(self):
        assert ExactMatrix([[2, 1], [12, 3]]).kernel() == ()

    def test_solve_singular_consistent(self):
        m = ExactMatrix([[1, 2], [2, 4]])
        particular, residue, kernel = m.solve_singular([1, 2])
        assert particular == (F(1), F(0))
        assert residue == (F(0),)
        assert kernel == ((F(-2), F(1)),)
        assert m.matvec(particular) == (F(1), F(2))

    def test_solve_singular_inconsistent(self):
        m = ExactMatrix([[1, 2], [2, 4]])
        _, residue, _ = m.solve_singular([1, 3])
        assert len(residue) == 1 and residue[0] != 0

    def test_solve_regular(self):
        m = ExactMatrix([[2, 1], [12, 3]])
        particular, residue, kernel = m.solve_singular([1, 0])
        assert residue == () and kernel == ()
        assert m.matvec(particular) == (F(1), F(0))

    def test_solve_singular_polynomial_rhs_names_the_bad_monomial(self):
        # a*(1, 2) is consistent, b*(1, 3) is not.  Per monomial e, the
        # residue must flag exactly the inconsistent ones and the particular
        # part must match a row reduction of [A | b_e] done here.
        m = ExactMatrix([[1, 2], [2, 4]])
        a = MultiPoly.variable("a", ("a", "b"))
        b = MultiPoly.variable("b", ("a", "b"))
        rhs = [a + b, a * 2 + b * 3]
        particular, residue, _ = m.solve_singular(rhs)
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
    # the constant term is (-1)^n det, taken from the elimination oracle
    coeffs = m.charpoly()
    assert coeffs[0] == 1
    assert coeffs[1] == -_trace(m)
    assert coeffs[-1] == (-1) ** m.nrows * _det(m.data)


@settings(max_examples=100)
@given(small_matrices(), st.data())
def test_solve_singular_residual_is_exactly_zero(m, data):
    x0 = [data.draw(st.integers(-5, 5)) for _ in range(m.ncols)]
    b = m.matvec(x0)
    particular, residue, kernel = m.solve_singular(b)
    assert not any(residue)  # constructed consistent
    assert m.matvec(particular) == b
    assert kernel == m.kernel()
    for k in kernel:
        assert m.matvec(k) == tuple([F(0)] * m.nrows)
    assert len(residue) == m.nrows - m.ncols + len(kernel)


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
    assert math.isclose(sum(r.real for r in roots), float(_trace(m)), abs_tol=1e-6)
    assert abs(sum(r.imag for r in roots)) < 1e-6
    prod = complex(1)
    for r in roots:
        prod *= r
    det = _det(m.data)
    assert abs(prod - complex(det)) < 1e-5 * max(1.0, abs(float(det)))


def _trace(m):
    return sum((m.data[i][i] for i in range(m.nrows)), F(0))


def _det(rows):
    """Oracle: the determinant by Gaussian elimination over Q.

    Each column swaps in its first nonzero pivot and clears the entries
    below it in Fraction arithmetic, the way _fraction_rref does; it shares
    no step with the Faddeev-LeVerrier recurrence behind charpoly and
    resolvent.
    """
    rows = [[F(x) for x in row] for row in rows]
    n = len(rows)
    det = F(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        pv = rows[c][c]
        det *= pv
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def _charpoly_values(m):
    """Oracle: det(tI - A) at t = 0, 1, ..., n by _det.  Two monic
    polynomials of degree n that agree at n + 1 points are equal."""
    return [_det([[t * (i == k) - x for k, x in enumerate(row)]
                  for i, row in enumerate(m.data)])
            for t in range(m.nrows + 1)]


def _values_at(coeffs, points):
    """A descending coefficient list evaluated at each point, term by term."""
    top = len(coeffs) - 1
    return [sum(c * F(t) ** (top - k) for k, c in enumerate(coeffs))
            for t in points]


def _fraction_rref(m):
    """Oracle: Gauss-Jordan elimination over Q, reduced row echelon form
    and pivot columns.

    Every step divides the pivot row by its pivot and clears the column in
    Fraction arithmetic; it shares no step with the fraction-free
    elimination of ExactMatrix.rref.
    """
    rows = [list(r) for r in m.data]
    pivots = []
    r = 0
    for c in range(m.ncols):
        if r == m.nrows:
            break
        pivot_row = next((i for i in range(r, m.nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return ExactMatrix(rows), tuple(pivots)


@st.composite
def rref_matrices(draw):
    """Up to 6x8, wide, tall or square: dense, rank-deficient (some rows
    combinations of earlier ones) or with whole columns zero."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["dense", "rank_deficient", "zero_columns"]))
    entries = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "rank_deficient" and nrows > 1:
        for i in sorted(draw(st.sets(st.integers(1, nrows - 1), min_size=1))):
            k = draw(st.integers(0, i - 1))
            a, b = draw(entries), draw(entries)
            rows[i] = [a * x + b * y for x, y in zip(rows[k], rows[0])]
    elif kind == "zero_columns":
        for c in draw(st.sets(st.integers(0, ncols - 1), min_size=1)):
            for row in rows:
                row[c] = F(0)
    return ExactMatrix(rows)


@settings(max_examples=200, deadline=None)
@given(rref_matrices())
# the zero matrix; a wide and a tall rank-1 matrix; a pivot-free leading
# column followed by a row swap; [K - 2I | I] of the cubic oscillator
@example(ExactMatrix([[0, 0, 0], [0, 0, 0]]))
@example(ExactMatrix([[1, 2, 3, 4, 5], [F(1, 2), 1, F(3, 2), 2, F(5, 2)]]))
@example(ExactMatrix([[2], [-4], [6], [F(1, 3)]]))
@example(ExactMatrix([[0, 0, 3], [0, 2, 1], [0, 4, 2]]))
@example(ExactMatrix([[-2, -1, 1, 0], [-12, -5, 0, 1]]))
def test_rref_matches_fraction_gauss_jordan(m):
    reduced, pivots = m.rref()
    assert (reduced, pivots) == _fraction_rref(m)
    assert all(type(x) is Fraction for row in reduced.data for x in row)


@st.composite
def charpoly_matrices(draw):
    """Up to 8x8: dense, sparse, block-diagonal, or with columns zeroed
    below the diagonal.  Sparse matrices give the oracle zero pivots to
    swap past; block-diagonal and partly triangular ones give
    characteristic polynomials with repeated or rational factors, whose
    roots among t = 0..n make tI - A singular where the oracle evaluates
    it."""
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
# a zero under the first diagonal entry; a first column zero below the
# diagonal; a nilpotent matrix; two 2x2 blocks
@example(ExactMatrix([[1, 2, 3], [0, 4, 5], [6, 7, 8]]))
@example(ExactMatrix([[1, 2, 3, 4], [0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 9]]))
@example(ExactMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]))
@example(ExactMatrix([[2, 1, 0, 0], [12, 3, 0, 0], [0, 0, 2, 1], [0, 0, 12, 3]]))
def test_charpoly_matches_elimination_at_n_plus_one_points(m):
    coeffs = m.charpoly()
    assert len(coeffs) == m.nrows + 1 and coeffs[0] == 1
    assert _values_at(coeffs, range(m.nrows + 1)) == _charpoly_values(m)
    assert all(type(c) is Fraction for c in coeffs)


@st.composite
def resolvent_cases(draw):
    """A rational m x m matrix (m <= 5) with a non-integer entry, an
    integer shift j and a right-hand side of _IntPoly entries.  Half the
    cases are upper triangular with j on the diagonal, so A - jI is
    singular."""
    n = draw(st.integers(1, 5))
    j = draw(st.integers(-6, 6))
    entries = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    rows[0][-1] = F(2 * draw(st.integers(-5, 5)) + 1, 2 * draw(st.integers(1, 3)))
    if n > 1 and draw(st.booleans()):
        rows = [[x if k >= i else F(0) for k, x in enumerate(row)]
                for i, row in enumerate(rows)]
        rows[-1][-1] = F(j)
    rhs = [_IntPoly.reduced(draw(st.dictionaries(st.integers(0, 7),
                                                 st.integers(-9, 9),
                                                 max_size=3)),
                            draw(st.integers(1, 6))) for _ in range(n)]
    return ExactMatrix(rows), j, rhs


def _poly_matmul(a, b):
    """Product of matrices whose entries are descending coefficient lists,
    each row of a and each column of b of one length per factor."""
    def times(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for k, y in enumerate(q):
                out[i + k] += x * y
        return out

    return [[[sum(c) for c in zip(*(times(x, y) for x, y in zip(row, col)))]
             for col in zip(*b)] for row in a]


@settings(max_examples=150, deadline=None)
@given(resolvent_cases())
def test_resolvent_inverts_every_regular_shift(case):
    m, j, rhs = case
    n = m.nrows
    s, chi, adj = m.resolvent()
    scaled = [[x * s for x in row] for row in m.data]
    assert all(x.denominator == 1 for row in scaled for x in row)
    # (tI - sA) adj(tI - sA) = chi(t) I as polynomials in t
    pencil = [[[int(i == k), -x] for k, x in enumerate(row)]
              for i, row in enumerate(scaled)]
    assert _poly_matmul(pencil, adj) == [
        [chi if i == k else [0] * (n + 1) for k in range(n)] for i in range(n)]
    # det(tI - A) = s^-n chi(s t)
    scaled_values = _values_at(chi, [s * t for t in range(n + 1)])
    assert [v / s ** n for v in scaled_values] == _charpoly_values(m)
    particular, _, kernel = m.shifted(j).solve_singular(rhs)
    solved = _regular_solve((s, chi, adj), j, rhs)
    if kernel:
        assert solved is None
    else:
        assert ([(p.terms, p.den) for p in solved]
                == [(p.terms, p.den) for p in particular])


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
        # (x^2 - 2)^3 (x - 1): the residual keeps the irrational power
        rs = roots_exact_first(_expand(1, [[1, 0, -2]] * 3 + [[1, -1]]))
        assert rs.rational_roots == ((F(1), 1),)
        assert rs.residual_factor == tuple(_expand(1, [[1, 0, -2]] * 3))
        assert sorted(m for _, m, _ in rs.numeric_roots) == [3, 3]

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

    def test_solver_keeps_rational_roots_when_the_numerics_fail(
            self, monkeypatch):
        # (x - 1)(x^2 - 2) with Aberth returning garbage: roots_exact_first
        # refuses the residual's roots, but the exact solver needs only the
        # rational root and the news that an irrational residual is left
        monkeypatch.setattr(exactalg, "_aberth",
                            lambda coeffs, max_iter: [7j] * (len(coeffs) - 1))
        with pytest.raises(NumericNonConvergence):
            roots_exact_first([1, -1, -2, 2])
        x = MultiPoly.variable("x")
        result = solve_poly_system([(x - 1) * (x * x - 2)], ("x",))
        assert result.points == ((1,),)
        assert result.complete is False


class TestLeaves:
    """An irrational factor in the last variable of a branch is kept as a
    leaf: its squarefree part, cut down by the other equations, with each
    other coordinate a polynomial in its root.  No floating point runs."""

    def test_linear_eliminations_compose_into_the_root(self):
        # q + a p = 0, b q^3 + 2p = 0: q := -a p leaves -a^3 b p^3 + 2p,
        # whose root 0 is rational and whose p^2 = 2 / (a^3 b) is a leaf
        # with q = -a p
        names = ("q", "p")
        q, p = (MultiPoly.variable(v, names) for v in names)
        a, b = F(3, 10 ** 30), F(10 ** 30, 3)
        with mock.patch.object(exactalg, "_aberth",
                               side_effect=AssertionError):
            result = solve_poly_system([p * a + q, q ** 3 * b + p * 2],
                                       names)
        assert result.points == ((0, 0),)
        assert result.complete is False
        assert result.leaves == (exactalg.Leaf(
            (1, 0, -2 / (a ** 3 * b)), ((-a, 0), (1, 0))),)

    def test_the_factor_is_squarefree_and_shared(self):
        x = MultiPoly.variable("x")
        result = solve_poly_system(
            [(x * x - 2) ** 2 * (x - 1), (x * x - 2) * (x * x - 3)], ("x",))
        assert result.points == ()
        assert [leaf.factor for leaf in result.leaves] == [(1, 0, -2)]
        # no root of x^2 - 2 solves x^2 - 3: provably no solution at all
        result = solve_poly_system([x * x - 2, x * x - 3], ("x",))
        assert result == exactalg.ExactSolveResult((), True, ())

    def test_rational_roots_above_a_leaf_are_constants(self):
        # x = 1 or 2, then y^2 = x + 1: the leaves y^2 - 2 and y^2 - 3
        # with x constant
        names = ("x", "y")
        x, y = (MultiPoly.variable(v, names) for v in names)
        result = solve_poly_system([(x - 1) * (x - 2), y * y - x - 1], names)
        assert result.points == ()
        assert result.leaves == (exactalg.Leaf((1, 0, -2), ((1,), (1, 0))),
                                 exactalg.Leaf((1, 0, -3), ((2,), (1, 0))))

    def test_an_irrational_factor_with_a_variable_left_is_no_leaf(self):
        # q^2 = 2 with p still to solve over it and no linear elimination
        # (p^2 - q p - 1 has no variable with a constant coefficient) is a
        # tower, left open
        names = ("q", "p")
        q, p = (MultiPoly.variable(v, names) for v in names)
        result = solve_poly_system([q * q - 2, p * p - q * p - 1], names)
        assert result == exactalg.ExactSolveResult((), False, ())

    @pytest.mark.parametrize("names", [("q", "p"), ("p", "q")])
    @pytest.mark.parametrize("a, b", [(3, 5), (F(-1, 2), 7), (1, 1)])
    def test_an_elimination_goes_before_an_irrational_branch(self, names,
                                                             a, b):
        # b q^2 + 2 is univariate with an irrational residual and p left,
        # so branching on it loses the factor; eliminating q := -a p (or
        # p := -q / a) first leaves it in the last variable, a leaf whose
        # two roots are the system's two solutions
        q, p = (MultiPoly.variable(v, names) for v in ("q", "p"))
        eqs = [p * a + q, q * q * b + 2]
        result = solve_poly_system(eqs, names)
        assert result.points == ()
        (leaf,) = result.leaves
        assert len(leaf.factor) == 3 and leaf.factor[1] == 0
        values = dict(zip(names, leaf.coordinates))
        assert all(exactalg._at_leaf(eq, values, leaf.factor) == [0]
                   for eq in eqs)
        # its roots +-t give q = +-sqrt(-2 / b), p = -q / a, both solutions
        t = cmath.sqrt(-leaf.factor[2])
        points = {tuple(complex(exactalg.poly_eval(values[v], s)) for v in
                        ("q", "p")) for s in (t, -t)}
        root = cmath.sqrt(F(-2) / b)
        assert len(points) == 2
        for want in ((root, -root / a), (-root, root / a)):
            assert any(max(abs(x - complex(y)) for x, y in zip(got, want))
                       < 1e-12 for got in points)

    def test_an_elimination_keeps_a_tower_as_a_leaf(self):
        # q^2 = 2 and p^2 = q: q := p^2 leaves p^4 - 2, a leaf of four
        # solutions with q = p^2
        names = ("q", "p")
        q, p = (MultiPoly.variable(v, names) for v in names)
        result = solve_poly_system([q * q - 2, p * p - q], names)
        assert result == exactalg.ExactSolveResult((), False, (
            exactalg.Leaf((1, 0, 0, 0, -2), ((1, 0, 0), (1, 0))),))


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
    rational, residual = exactalg._exact_roots(coeffs)
    assert [r for r, _ in rational] == _oracle_roots(coeffs)
    assert dict(rational) == {r: roots.count(r) for r in roots}
    # prod (x - r)^m times the residual rebuilds the monic input
    factors = [[F(1), -r] for r, m in rational for _ in range(m)]
    assert _expand(1, factors + [list(residual)]) == [
        c / coeffs[0] for c in coeffs]


@settings(max_examples=100, deadline=None)
@given(st.lists(RATIONALS, max_size=5), st.lists(ROOTLESS, max_size=1),
       st.fractions(min_value=-7, max_value=7, max_denominator=3).filter(bool),
       st.data())
def test_candidates_never_change_the_roots(roots, rootless, lead, data):
    # a candidate is tested by exact division, never assumed: true roots,
    # non-roots, 0, repeats and near misses all leave the result as it is
    coeffs = _expand(lead, [[F(1), -r] for r in roots] + rootless)
    near = F(1, 10 ** 30)
    candidate = st.one_of(
        RATIONALS, st.just(F(0)),
        *([st.sampled_from(roots),
           st.sampled_from(roots).map(lambda r: r + near),
           st.sampled_from(roots).map(lambda r: r - near)] if roots else []))
    candidates = data.draw(st.lists(candidate, max_size=6))
    assert (exactalg._exact_roots(coeffs, candidates)
            == exactalg._exact_roots(coeffs))


def _fraction_keyed_merge(factors):
    """Reference: the merge of the factors' rational roots keyed on the
    Fractions themselves."""
    counts = {}
    for rational, _ in factors:
        for r, multiplicity in rational:
            counts[r] = counts.get(r, 0) + multiplicity
    return tuple(sorted(counts.items()))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(RATIONALS, max_size=4),
                          st.lists(ROOTLESS, max_size=1)),
                min_size=1, max_size=4))
def test_roots_of_product_is_the_roots_of_the_product(blocks):
    # each block's root tuple is its _exact_roots, as a spectrum's blocks
    # hand them over: shared roots, repeats and zero included
    polys = [_expand(1, [[F(1), -r] for r in roots] + rootless)
             for roots, rootless in blocks]
    factors = [exactalg._exact_roots(poly) for poly in polys]
    merged = exactalg.roots_of_product(factors)
    assert merged.rational_roots == _fraction_keyed_merge(factors)
    assert merged == roots_exact_first(
        _expand(1, [list(poly) for poly in polys]))


class TestRationalRoots:
    def test_linear_root_is_read_off(self):
        # 60-digit coefficients: the root of a degree-1 polynomial is read
        # off exactly, with no search
        a = 10 ** 59 + 151
        b = -(7 * 10 ** 59 + 33)
        with mock.patch.object(exactalg, "_positive_rational_roots") as search:
            assert exactalg._exact_roots([a, b]) == (((F(-b, a), 1),), (F(1),))
        assert search.call_count == 0


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
        [F(2, 999983)] * 4 + [F(3)] * 2,    # a multiple root under a large lead
        # 1/2 is a bisection point, divided out of (1/2, 1), where the
        # simple root right of it is found by the sign of the stripped
        # interval's constant term; with 5 the polynomial is positive there
        [F(1, 2), F(700001, 1000003), F(5)],
    ])
    def test_pinned_roots(self, roots):
        coeffs = _expand(3, [[F(1), -r] for r in roots])
        expected = {r: roots.count(r) for r in roots}
        assert exactalg._exact_roots(coeffs) == (tuple(sorted(expected.items())),
                                                  (F(1),))
        assert dict(roots_exact_first(coeffs).rational_roots) == expected

    def test_isolated_root_takes_no_more_shifts(self):
        # the root of 3x - 677773639/3372764228 x^2 other than 0 is isolated
        # by one Descartes test, and its candidates k/lead are searched by
        # the sign of p; bisecting down to one candidate would take 106
        # shifts
        coeffs = [F(-677773639, 3372764228), F(3), F(0)]
        with mock.patch.object(exactalg, "_shift_by_one",
                               wraps=exactalg._shift_by_one) as shifts:
            rational, _ = exactalg._exact_roots(coeffs)
        assert rational == ((F(0), 1), (F(10118292684, 677773639), 1))
        assert shifts.call_count <= 2

    def test_irrational_root_closer_than_one_over_lead_squared(self):
        # x^2 - 1000x + 2990 has a root 0.001 below 3 (lead 1)
        coeffs = _expand(1, [[F(1), F(-3)], [F(1), F(-1000), F(2990)]])
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
        assert exactalg._exact_roots(coeffs)[0] == ()
        assert roots_exact_first(coeffs).rational_roots == ()

    def test_large_constant_term(self):
        # (x - p/q)(x + q/p) with 13-digit primes: trial division would
        # need about 10^6.5 divisions per candidate side
        p, q = 1000000000039, 999999999989
        coeffs = _expand(1, [[F(1), F(-p, q)], [F(1), F(q, p)]])
        assert exactalg._exact_roots(coeffs)[0] == ((F(-q, p), 1), (F(p, q), 1))


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
