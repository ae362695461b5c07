"""Vector-field layer: Hamiltonian lifting, weights, brackets, zero sets."""

import itertools
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kovex import analyze, exactalg
from kovex.exactalg import MultiPoly
from kovex.vfmodel import (
    DimensionMismatchError,
    UnpairedVariableError,
    VectorField,
    WeightCertificate,
    check_zero_set,
    commutes,
    field_degree,
    fields_from_problem,
    hamiltonian_to_field,
    infer_weights,
    lie_bracket,
    verify_weight,
)
from kovex.vfparse import parse_expression, parse_problem
from test_kovalevskaya import _BLOCKS, _BLOCKS_3D, _uncoupled
from test_properties import NONZERO_Q, euler_identity_check


def mk_field(variables, *exprs):
    return VectorField(tuple(variables),
                       tuple(parse_expression(e, variables) for e in exprs))


def evaluate(field, point):
    """All components of field at a positional point."""
    if len(point) != field.dim:
        raise DimensionMismatchError(
            f"point of length {len(point)} in dimension {field.dim}")
    values = dict(zip(field.variables, point))
    return tuple(f.evaluate(values) for f in field.components)


class TestHamiltonianLift:
    def test_cubic_potential(self):
        h = parse_expression("1/2*p^2 - 2*q^3", ("q", "p"))
        field = hamiltonian_to_field(h, ("q", "p"))
        assert field.components[0] == parse_expression("p", ("q", "p"))
        assert field.components[1] == parse_expression("6*q^2", ("q", "p"))

    def test_coupled_pair(self, pair4d_deg3):
        f, g, _ = pair4d_deg3
        v = ("q1", "p1", "q2", "p2")
        assert f.components == tuple(parse_expression(e, v) for e in (
            "2*p2",
            "-3*p2^2 - 4*q1^3 + 2*q1*q2",
            "2*p1 + 6*p2*q1",
            "q1^2 + 2*q2",
        ))
        assert g.components == tuple(parse_expression(e, v) for e in (
            "2*p1 + 2*p2*q1",
            "-2*p1*p2 + 5*q1^4 - 9*q1^2*q2 + 2*q2^2",
            "2*p1*q1 + 2*p2*q2",
            "-p2^2 - 3*q1^3 + 4*q1*q2",
        ))

    def test_odd_variable_count(self):
        h = parse_expression("x^2", ("x",))
        with pytest.raises(UnpairedVariableError):
            hamiltonian_to_field(h, ("x",))


class TestWeights:
    def test_verify_ok(self, cubic2d):
        field, cert = cubic2d
        assert verify_weight(field, cert).ok

    def test_verify_catches_violation(self, cubic2d):
        field, _ = cubic2d
        result = verify_weight(field, WeightCertificate((1, 1), 1))
        assert not result.ok
        # component 2 (6*x^2) satisfies 2 = 1 + 1, so the y in component 1
        # is the lone offender: 1 != 1 + 1
        assert result.violations == ((1, (0, 1)),)

    def test_euler_identity_matches(self, cubic2d):
        # the report's euler_identity is read from the monomial law by
        # Euler's theorem; the oracle takes the differential form itself
        field, _ = cubic2d
        for weights, expected in (((2, 3), "ok"), ((1, 1), [1])):
            text = (f"variables = [x:{weights[0]}, y:{weights[1]}]\n"
                    'F.1 = "y"\nF.2 = "6*x^2"\n')
            section = analyze(text, command="check").report["weights"]
            assert section["euler_identity"] == expected
            failing = euler_identity_check(field, WeightCertificate(weights, 1))
            assert (list(failing) or "ok") == expected

    def test_infer_weights_single_family(self, cubic2d):
        field, _ = cubic2d
        inferred = infer_weights(field)
        assert not inferred.degenerate
        assert len(inferred.families) == 1
        family = inferred.families[0]
        assert family.primitive == (2, 3)
        assert [(c.weights, c.degree) for c in family.members] == [
            ((2, 3), 1), ((4, 6), 2), ((6, 9), 3), ((8, 12), 4),
        ]

    def test_infer_weights_zero_field(self):
        zero = VectorField(("x",), (MultiPoly.zero(("x",)),))
        assert infer_weights(zero).degenerate

    def test_infer_weights_no_candidates(self):
        # dx/dz = x has degree 0 for every weight, below the minimum of 1
        linear = mk_field(("x",), "x")
        assert infer_weights(linear).families == ()
        assert all(field_degree(linear, (w,)) == 0 for w in range(1, 13))

    def test_four_cubic_blocks_infer_within_budget(self):
        # uncoupled blocks share only the degree, so the law's kernel is
        # one-dimensional and inference enumerates max_weight points, not
        # max_weight^8 (about 30 minutes as an exhaustive loop)
        names = [f"{c}{k}" for k in range(1, 5) for c in "qp"]
        lines = ["variables = [" + ", ".join(names) + "]"]
        for k in range(1, 5):
            lines += [f'F.{2 * k - 1} = "p{k}"', f'F.{2 * k} = "6*q{k}^2"']
        start = time.perf_counter()
        report = analyze("\n".join(lines) + "\n", command="check").report
        assert time.perf_counter() - start < 2.0
        assert report["weights"]["source"] == "inferred"
        assert report["weights"]["weights"] == [2, 3] * 4
        assert report["weights"]["families"] == [
            {"primitive": [2, 3] * 4, "degrees": [1, 2, 3, 4]}]

    def test_field_degree(self, pair4d_deg3):
        f, g, cert = pair4d_deg3
        assert field_degree(f, cert.weights) == 1
        assert field_degree(g, cert.weights) == 3
        assert field_degree(f, (1, 1, 1, 1)) is None


class TestBracket:
    def test_uncoupled_pair_commutes(self, pair4d_deg1):
        f, g, _ = pair4d_deg1
        assert commutes(f, g)

    def test_coupled_pair_commutes(self, pair4d_deg3):
        f, g, _ = pair4d_deg3
        assert commutes(f, g)

    def test_non_commuting(self):
        f = mk_field(("x", "y"), "y", "6*x^2")
        h = mk_field(("x", "y"), "x", "y")
        assert not commutes(f, h)

    def test_antisymmetry(self, pair4d_deg3):
        f, g, _ = pair4d_deg3
        fg = lie_bracket(f, g)
        gf = lie_bracket(g, f)
        assert all(a == -b for a, b in zip(fg.components, gf.components))

    def test_dimension_mismatch(self):
        f = mk_field(("x", "y"), "y", "x")
        h = mk_field(("u",), "u")
        with pytest.raises(DimensionMismatchError):
            lie_bracket(f, h)

    def test_field_with_itself(self, cubic2d):
        field, _ = cubic2d
        assert lie_bracket(field, field).is_zero()


@settings(max_examples=100)
@given(st.integers(-3, 3), st.integers(-3, 3))
def test_bracket_bilinear_in_scalars(a, b):
    vars = ("x", "y")
    f = mk_field(vars, "y", "6*x^2")
    g = mk_field(vars, "x*y", "y^2")
    h = mk_field(vars, "x^2", "x*y")
    left = lie_bracket(f, VectorField(vars, tuple(
        gc * a + hc * b for gc, hc in zip(g.components, h.components))))
    right = tuple(
        gc * a + hc * b
        for gc, hc in zip(lie_bracket(f, g).components, lie_bracket(f, h).components))
    assert left.components == right


def _whole_field_check(field):
    """Oracle: the zero-set check as one exact solve of the whole field."""
    result = exactalg.solve_poly_system(field.components, field.variables)
    if any(any(point) for point in result.points):
        return "counterexample"
    if result.complete:
        return "ok"
    return "undecided"


@st.composite
def _quasi_homogeneous_fields(draw):
    """Up to three monomials of weight a_i + degree in each component, on
    2-4 variables of weights 1-3 and degree 1 or 2."""
    m = draw(st.integers(2, 4))
    names = tuple(f"x{k + 1}" for k in range(m))
    weights = [draw(st.integers(1, 3)) for _ in names]
    degree = draw(st.integers(1, 2))
    grid = list(itertools.product(range(4), repeat=m))
    comps = []
    for a in weights:
        law = [e for e in grid
               if sum(w * x for w, x in zip(weights, e)) == a + degree]
        picks = draw(st.lists(st.sampled_from(law), max_size=3)) if law else []
        comps.append(MultiPoly(names, {e: draw(NONZERO_Q) for e in picks}))
    return VectorField(names, tuple(comps))


class TestZeroSet:
    def test_certified_origin_only(self, cubic2d):
        field, _ = cubic2d
        assert check_zero_set(field).status == "ok"

    def test_counterexample(self):
        field = mk_field(("x", "y"), "x^2 - y^2", "x - y")
        result = check_zero_set(field)
        assert result.status == "counterexample"
        assert evaluate(field, result.witness) == (0, 0)
        assert any(result.witness)

    def test_undecided(self):
        # the zero set is the irrational pair of lines x = +-sqrt 2 y: the
        # all-free pattern's x^2 - 2y^2 = 0 has no rational point and no
        # handle for the exact solver, and the rule prunes the others
        field = mk_field(("x", "y"), "x^2 - 2*y^2", "0")
        assert check_zero_set(field).status == "undecided"

    def test_a_line_of_zeros_is_a_counterexample(self):
        # x(x + y) and y(x + y) saturate to x + y twice on the all-free
        # pattern; one solve of the whole system returned no point
        field = mk_field(("x", "y"), "x^2 + x*y", "y^2 + x*y")
        result = check_zero_set(field)
        assert result.status == "counterexample"
        assert result.witness == (-1, 1)
        assert sum(result.witness) == 0

    def test_an_open_whole_system_leaves_the_other_patterns(self):
        # the whole system gives the solver no handle, so the search goes
        # on: the pattern x = y = 0 leaves no term, and its solve gives
        # the z axis
        field = mk_field(("x", "y", "z"), "x^2 + y*z", "y^2 + x*z",
                         "x^2 + y^2")
        result = check_zero_set(field)
        assert (result.status, result.witness) == ("counterexample", (0, 0, 1))

    def test_the_witness_is_the_smallest_zero(self):
        # each component gives one nonzero zero, (1, 0) and (0, 1)
        field = mk_field(("x", "y"), "x^2 - x", "y^2 - y")
        assert check_zero_set(field).witness == (0, 1)

    def test_painleve4_auto_is_certified(self):
        # q (2p - q) and p (2q - p): the whole system gave the solver no
        # handle, the saturated 2p - q = 2q - p = 0 has the origin alone
        field = mk_field(("q", "p"), "-q^2 + 2*p*q", "2*p*q - p^2")
        assert check_zero_set(field).status == "ok"

    @given(st.one_of(
        _quasi_homogeneous_fields(),
        st.lists(st.tuples(st.sampled_from(sorted(_BLOCKS)
                                           + sorted(_BLOCKS_3D)),
                           NONZERO_Q, NONZERO_Q),
                 min_size=1, max_size=3).map(lambda b: _uncoupled(b)[0])))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_one_solve_of_the_whole_field(self, field):
        # wherever one exact solve of the whole field decides, the search
        # of each component's surviving zero patterns decides the same,
        # and its witness is a nonzero exact zero of the field
        result = check_zero_set(field)
        old = _whole_field_check(field)
        if old != "undecided":
            assert result.status == old
        if result.status == "counterexample":
            assert any(result.witness)
            assert not any(evaluate(field, result.witness))
        else:
            assert result.witness is None

    def test_four_dimensional_ok(self, pair4d_deg3):
        f, _, _ = pair4d_deg3
        assert check_zero_set(f).status == "ok"


class TestVectorField:
    def test_evaluate(self, cubic2d):
        field, _ = cubic2d
        assert evaluate(field, (F(1), F(-2))) == (F(-2), F(6))

    def test_evaluate_wrong_length(self, cubic2d):
        field, _ = cubic2d
        with pytest.raises(DimensionMismatchError):
            evaluate(field, (1,))

    def test_jacobian(self, cubic2d):
        field, _ = cubic2d
        jac = field.jacobian
        assert field.jacobian is jac  # computed once per field
        assert jac[0][0] == 0
        assert jac[0][1] == 1
        assert jac[1][0] == parse_expression("12*x", ("x", "y"))
        assert jac[1][1] == 0

    def test_component_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            VectorField(("x", "y"), (MultiPoly.zero(("x",)),))

    def test_undeclared_variable_rejected(self):
        poly = parse_expression("u^2", ("u",))
        with pytest.raises(DimensionMismatchError):
            VectorField(("x",), (poly,))


def test_fields_from_problem_componentwise():
    spec = parse_problem('variables = [x:2, y:3]\nF.1 = "y"\nF.2 = "6*x^2"')
    f, g = fields_from_problem(spec)
    assert g is None
    assert f.components[1] == parse_expression("6*x^2", ("x", "y"))


def test_fields_from_problem_g_components():
    spec = parse_problem(
        'variables = [x:2, y:3]\nF.1 = "y"\nF.2 = "6*x^2"\nG.1 = "y"\nG.2 = "6*x^2"')
    f, g = fields_from_problem(spec)
    assert g is not None
    assert commutes(f, g)
