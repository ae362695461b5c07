"""The canonical exact scalar: an int when integral, else a Fraction.

Every exact value kovex builds takes that one form (exactalg.as_fraction):
never Fraction(n, 1), never a bool, never a float.  The properties below
check every value that polynomial and matrix arithmetic, the root finder
and the locus search produce; the AST guard keeps true division and
negative powers of exact scalars on the one exact-division helper, so an
int / int cannot turn an exact value into a float.
"""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kovex
from conftest import canonical
from kovex.exactalg import (
    ExactMatrix,
    MultiPoly,
    _exact_div,
    _poly_divmod,
    as_fraction,
    roots_exact_first,
)
from kovex.kovalevskaya import find_loci, spectra
from kovex.laurent import build_series
from kovex.vfmodel import VectorField, WeightCertificate

F = Fraction


def _scalars(value):
    """Every exact scalar in value: a scalar, a MultiPoly's coefficients,
    or the scalars of a tuple or list of them (floats and complexes are
    skipped: they are not exact values)."""
    if isinstance(value, MultiPoly):
        yield from value.terms.values()
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _scalars(item)
    elif isinstance(value, (int, Fraction)):
        yield value


def _all_canonical(*values) -> bool:
    return all(canonical(x) for value in values for x in _scalars(value))


# integral values drawn as ints, as Fraction(n, 1) and as bools, so that
# every input form meets the canonical output
exact_scalars = st.one_of(
    st.integers(-6, 6),
    st.integers(-6, 6).map(Fraction),
    st.booleans(),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)

UV = ("u", "v")


@st.composite
def polys(draw, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[e] = draw(exact_scalars)
    return MultiPoly(UV, terms)


@st.composite
def points(draw):
    return {v: draw(exact_scalars) for v in UV}


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), exact_scalars, points())
def test_polynomial_arithmetic_is_canonical(p, q, c, point):
    results = [p, p + q, p - q, -p, p * q, p * c, c * p, p + c, c - p,
               p ** 2, p.diff("u"), p.diff("v"), p.substitute(point),
               p.substitute({"u": q}), p.substitute({"v": point["v"]}),
               p.evaluate(point), p.coefficient((1, 0)), p.constant_term(),
               MultiPoly.constant(c, UV)]
    if c:
        results.append(p / c)
    assert _all_canonical(*results)


@st.composite
def matrices(draw):
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(exact_scalars) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # a row that is a multiple of the first: a nontrivial kernel or
        # left kernel
        k = draw(exact_scalars)
        rows[-1] = [k * x for x in rows[0]]
    return ExactMatrix(rows)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_matrix_results_are_canonical(m, data):
    rhs = [data.draw(exact_scalars) for _ in range(m.nrows)]
    vec = [data.draw(exact_scalars) for _ in range(m.ncols)]
    reduced, _ = m.rref()
    particular, residue, kernel = m.solve_singular(rhs)
    results = [m.data, reduced.data, m.kernel(), particular, residue, kernel,
               m.matvec(vec), m.shifted(data.draw(exact_scalars)).data]
    if m.nrows == m.ncols:
        coeffs = m.charpoly()
        roots = roots_exact_first(coeffs)
        results += [coeffs, roots.rational_roots, roots.residual_factor,
                    roots.multiset()]
    assert _all_canonical(*results)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                min_size=1, max_size=4),
       st.lists(exact_scalars, min_size=0, max_size=2))
def test_roots_are_canonical(roots, extra):
    # a product of linear factors, times a factor that may have no
    # rational root
    coeffs = [1]
    for factor in [[1, -r] for r in roots] + [[1] + extra]:
        out = [0] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = out
    found = roots_exact_first(coeffs)
    assert {r for r, _ in found.rational_roots} >= set(roots)
    assert _all_canonical(found.rational_roots, found.residual_factor,
                          found.multiset())


nonzero = st.fractions(min_value=-5, max_value=5,
                       max_denominator=5).filter(bool)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(nonzero, nonzero), min_size=1, max_size=2))
def test_locus_search_and_series_are_canonical(blocks):
    # uncoupled cubic blocks q' = a p, p' = b q^2, weights (2, 3): each
    # balances at (6 / (a b), -12 / (a b^2)), so some coordinates are
    # integral and some are not
    names = [(f"q{k}", f"p{k}") for k in range(len(blocks))]
    variables = tuple(v for pair in names for v in pair)
    components = []
    for (a, b), (q, p) in zip(blocks, names):
        components.append(MultiPoly.variable(p, variables) * a)
        components.append(MultiPoly.variable(q, variables) ** 2 * b)
    field = VectorField(variables, tuple(components))
    cert = WeightCertificate((2, 3) * len(blocks), 1)
    search = find_loci(field, cert, newton_starts=0)
    assert all(locus.is_exact for locus in search.loci)
    results = [locus.point for locus in search.loci]
    for _, report in spectra(search):
        results += [report.exponents.rational_roots,
                    report.exponents.residual_factor]
    sol = build_series(field, cert, search.loci[0], truncation=7)
    results += [sol.locus, sol.coefficients,
                [r.direction for r in sol.resonances]]
    assert _all_canonical(*results)


def test_as_fraction_and_the_division_helper():
    assert as_fraction(True) == 1 and type(as_fraction(True)) is int
    assert type(as_fraction(False)) is int
    assert type(as_fraction(F(6, 3))) is int
    assert as_fraction(F(1, 2)) == F(1, 2)
    with pytest.raises(TypeError):
        as_fraction(0.5)
    for a, b in itertools.product((-6, -1, 0, 2, 3, F(1, 2), F(-3, 2)),
                                  (-2, 1, 3, F(1, 3), F(3, 2))):
        q = _exact_div(a, b)
        assert canonical(q) and q == F(a) / F(b)
    with pytest.raises(ZeroDivisionError):
        _exact_div(1, 0)


def test_polynomial_division_is_canonical_and_keeps_floats():
    # (2x^2 + 3x + 1) / (2x + 1) = x + 1 exactly; over 2x - 1 the remainder is 3
    quot, rem = _poly_divmod([2, 3, 1], [2, 1])
    assert quot == [1, 1] and rem == [0]
    quot, rem = _poly_divmod([2, 3, 1], [2, -1])
    assert quot == [1, 2] and rem == [3]
    quot, rem = _poly_divmod([F(4, 2), 3, 1], [4, 1])
    assert quot == [F(1, 2), F(5, 8)] and rem == [F(3, 8)]
    for c in quot + rem:
        assert canonical(c)
    # float coefficients divide as floats
    quot, rem = _poly_divmod([2.0, 3.0, 1.0], [2, -1])
    assert quot == [1.0, 2.0] and rem == [3.0]
    assert all(type(c) is float for c in quot + rem)


# ---------------------------------------------------------------------------
# the AST guard against float leaks

# the routines whose divisions and powers are floating point on purpose
FLOAT_ROUTINES = {
    "exactalg.py": {"_aberth", "_numeric_roots"},
    "kovalevskaya.py": {"_Found", "numeric_exponents"},
    "degeneration.py": {"_conjugacy_ok"},
}
HELPER = ("exactalg.py", "_exact_div")


def _is_fraction_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction")


def _is_negative(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return True
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float)) and node.value < 0)


def _float_leaks(name: str, source: str, allowed: set[str]) -> list[str]:
    """Each true division and negative power in source outside the
    allowed routines (functions or classes, at any depth) whose left
    operand is not a Fraction(...) call."""
    leaks = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.BinOp):
            left, right = node.left, node.right
        elif isinstance(node, ast.AugAssign):
            left, right = node.target, node.value
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and not allowed.intersection(scope)
                and (isinstance(node.op, ast.Div)
                     or isinstance(node.op, ast.Pow) and _is_negative(right))
                and not _is_fraction_call(left)):
            leaks.append(f"{name}:{node.lineno} in "
                         f"{'.'.join(scope) or 'module'}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return leaks


SOURCES = sorted(Path(kovex.__file__).parent.glob("*.py"))


def test_no_true_division_or_negative_power_outside_the_helper():
    leaks = []
    for path in SOURCES:
        allowed = set(FLOAT_ROUTINES.get(path.name, ()))
        if path.name == HELPER[0]:
            allowed.add(HELPER[1])
        leaks += _float_leaks(path.name, path.read_text(encoding="utf-8"),
                              allowed)
    assert leaks == []


def test_the_guard_catches_a_division_and_names_real_routines():
    source = ("def f(c, lam):\n"
              "    c /= lam\n"
              "    return c / lam, c ** -2, c ** 2, Fraction(c) / lam\n"
              "class G:\n"
              "    def g(self, x):\n"
              "        return x / 2\n")
    assert _float_leaks("probe.py", source, {"G"}) == [
        "probe.py:2 in f: c /= lam",
        "probe.py:3 in f: c / lam",
        "probe.py:3 in f: c ** (-2)",
    ]
    # every exempt routine is defined where the list says
    for path in SOURCES:
        routines = FLOAT_ROUTINES.get(path.name, set())
        if path.name == HELPER[0]:
            routines = routines | {HELPER[1]}
        defined = {node.name for node in ast.walk(ast.parse(
            path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert routines <= defined, path.name
