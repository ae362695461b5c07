"""Commuting-flow machinery pinned against the two worked 4d pairs.

Every number here was computed once in exact arithmetic and frozen.  For
the degree-1 pair the flow is small enough to follow by hand: the block
that carries the pole sees its own energy flow as a pole shift (rate -1)
plus the induced drift on the free coefficients.  For the degree-3 pair
the flow is genuinely nontrivial; its exact rescaled locus (1/3, 4/9,
-7/81) and the spectrum {-1, 8, 10} of the rescaled exponent matrix are
the values both prediction routes must reproduce.  The overdetermined
ladder identity is the workhorse check: it ties every series coefficient
to the flow, so a single doctored entry anywhere breaks it.
"""

import dataclasses
import itertools
import warnings
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CUBIC_2D, PAIR_4D_DEG1, PAIR_4D_DEG3
from kovex import analyze
from kovex import degeneration as dg
from kovex.exactalg import (
    ExactMatrix,
    MultiPoly,
    RootSet,
    _canonical_key,
    roots_exact_first,
)
from kovex.kovalevskaya import (
    k_exponents,
    kovalevskaya_matrix,
    numeric_exponents,
)
from kovex.laurent import build_series
from kovex.vfmodel import VectorField, WeightCertificate
from test_properties import hamiltonian_pairing_check

F = Fraction

P1_DEG1 = (F(1), F(-2), F(0), F(0))
P2_DEG1 = (F(0), F(0), F(1), F(-2))
P3_DEG1 = (F(1), F(-2), F(1), F(-2))

P1_DEG3 = (F(1), F(1), F(1), F(-1))
P2_DEG3 = (F(3), F(27), F(0), F(-3))

# a flow matched against no lower balance
EMPTY_POOL = dg.lower_spectra(())

A1 = MultiPoly.variable("alpha1")
A2 = MultiPoly.variable("alpha2")
A3 = MultiPoly.variable("alpha3")


@pytest.fixture(scope="session")
def deg1(pair4d_deg1):
    field, g_field, cert = pair4d_deg1
    sol = build_series(field, cert, P1_DEG1)
    expansion = dg.g_expansion(g_field, sol)
    flow = dg.param_flow(expansion, sol)
    return field, g_field, cert, sol, expansion, flow


@pytest.fixture(scope="session")
def deg3(pair4d_deg3):
    field, g_field, cert = pair4d_deg3
    sol = build_series(field, cert, P1_DEG3)
    expansion = dg.g_expansion(g_field, sol)
    flow = dg.param_flow(expansion, sol)
    return field, g_field, cert, sol, expansion, flow


@pytest.fixture(scope="session")
def deg1_pool():
    return analyze(PAIR_4D_DEG1, command="loci").pool


@pytest.fixture(scope="session")
def deg3_pool():
    return analyze(PAIR_4D_DEG3, command="loci").pool


@pytest.fixture(scope="session")
def deg1_predictions(deg1, deg1_pool):
    return dg.degenerate_gamma1(deg1_pool, deg1[-1])


@pytest.fixture(scope="session")
def deg3_predictions(deg3, deg3_pool):
    return dg.degenerate_gamma_ge2(deg3_pool, deg3[-1])


class TestExpansionDeg1:
    def test_degree_and_order_count(self, deg1):
        _, _, _, sol, expansion, _ = deg1
        assert expansion.gamma == 1
        # the series is authoritative through its truncation order, so the
        # expansion reaches one past it
        assert expansion.count == sol.truncation + 1

    def test_leading_block_is_the_field_at_the_balance(self, deg1):
        _, _, _, _, expansion, _ = deg1
        assert expansion.vector(0) == (-2, 6, 0, 0)

    def test_every_order_is_weighted_correctly(self, deg1):
        _, _, _, sol, expansion, _ = deg1
        assert dg.expansion_support_check(expansion, sol) == ()

    def test_leading_block_lies_in_the_shifted_kernel(self, deg1):
        field, _, cert, sol, expansion, _ = deg1
        assert dg.kernel_identity_check(
            field, cert, sol.locus, expansion) == (True,)

    def test_kernel_identity_holds_at_the_lower_locus_too(self, deg1):
        # the order-0 identity needs no principality, only commutation
        field, g_field, cert, _, _, _ = deg1
        sol = build_series(field, cert, P3_DEG1)
        expansion = dg.g_expansion(g_field, sol)
        assert expansion.vector(0) == (-2, 6, 0, 0)
        assert dg.kernel_identity_check(
            field, cert, sol.locus, expansion) == (True,)

    def test_doctored_leading_block_fails_the_identity(self, deg1):
        field, _, cert, sol, expansion, _ = deg1
        one = MultiPoly.constant(1)
        zero = MultiPoly.zero()
        doctored = dataclasses.replace(
            expansion, vectors=((one, one, zero, zero),) + expansion.vectors[1:])
        assert dg.kernel_identity_check(
            field, cert, sol.locus, doctored) == (False,)

    def test_order_past_the_series_authority_is_refused(self, deg1):
        _, g_field, _, sol, _, _ = deg1
        with pytest.raises(dg.TruncationTooShort):
            dg.g_expansion(g_field, sol, count=sol.truncation + 2)

    def test_dimension_mismatch_is_rejected(self, deg1, cubic2d):
        _, _, _, sol, _, _ = deg1
        small_field, _ = cubic2d
        with pytest.raises(ValueError, match="dimension"):
            dg.g_expansion(small_field, sol)

    def test_mixed_degree_field_is_rejected(self, deg1):
        _, _, _, sol, _, _ = deg1
        vs = ("q1", "p1", "q2", "p2")
        q1 = MultiPoly.variable("q1", vs)
        mixed = VectorField(vs, (q1, q1 * q1, MultiPoly.zero(vs),
                                 MultiPoly.zero(vs)))
        with pytest.raises(ValueError, match="uniform"):
            dg.g_expansion(mixed, sol)


class TestFlowDeg1:
    def test_shift_rate_is_minus_one(self, deg1):
        # the commuting field is the polar block's own flow, so on the
        # family it acts as bare time translation: the pole moves at
        # rate -1 relative to the expansion point
        _, _, _, _, _, flow = deg1
        assert flow.gamma == 1
        assert flow.ghat0 == -1

    def test_parameter_velocities(self, deg1):
        _, _, _, _, _, flow = deg1
        assert flow.parameters == ("alpha1", "alpha2", "alpha3")
        assert flow.kappa == (2, 3, 6)
        assert flow.ghat[0] == A2 * -1
        assert flow.ghat[1] == A1 * A1 * -6
        assert not flow.ghat[2]

    def test_ladder_identity_holds_everywhere(self, deg1):
        _, _, _, sol, expansion, flow = deg1
        assert dg.flow_ladder_check(expansion, sol, flow) is None

    def test_ladder_catches_a_doctored_velocity(self, deg1):
        _, _, _, sol, expansion, flow = deg1
        bad = dataclasses.replace(flow, ghat=(A2, flow.ghat[1], flow.ghat[2]))
        assert dg.flow_ladder_check(expansion, sol, bad) is not None

    def test_velocity_weights_match_the_resonance_orders(self, deg1):
        _, _, _, _, _, flow = deg1
        assert dg.flow_support_check(flow) == ()

    def test_support_check_flags_a_wrong_weight(self, deg1):
        _, _, _, _, _, flow = deg1
        bad = dataclasses.replace(flow, ghat0=A1)
        violations = dg.flow_support_check(bad)
        assert violations and violations[0][0] == 0

    def test_non_principal_family_is_refused(self, deg1):
        field, g_field, cert, _, _, _ = deg1
        sol = build_series(field, cert, P3_DEG1)
        expansion = dg.g_expansion(g_field, sol)
        with pytest.raises(ValueError, match="principal"):
            dg.param_flow(expansion, sol)

    def test_short_expansion_is_refused(self, deg1):
        _, g_field, _, sol, _, _ = deg1
        small = dg.g_expansion(g_field, sol, count=5)
        with pytest.raises(dg.TruncationTooShort):
            dg.param_flow(small, sol)

    def test_inconsistent_leading_block_is_refused(self, deg1):
        _, _, _, sol, expansion, _ = deg1
        one = MultiPoly.constant(1)
        zero = MultiPoly.zero()
        doctored = dataclasses.replace(
            expansion,
            vectors=((one, zero, zero, zero),) + expansion.vectors[1:])
        with pytest.raises(dg.InconsistentG0, match="component 2"):
            dg.param_flow(doctored, sol)

    def test_field_flowing_along_itself_shifts_the_pole_only(self, deg1):
        field, _, _, sol, _, _ = deg1
        expansion = dg.g_expansion(field, sol)
        flow = dg.param_flow(expansion, sol)
        assert flow.ghat0 == -1
        assert not any(flow.ghat)
        assert dg.degenerate_gamma1(
            analyze(PAIR_4D_DEG1, command="loci").pool, flow) == ()

    def test_flow_at_the_other_principal_locus_is_the_block_dynamics(
            self, deg1):
        # pole in the second copy: the first copy's coefficients are its
        # honest Taylor data, and the commuting field just integrates them
        field, g_field, cert, _, _, _ = deg1
        sol = build_series(field, cert, P2_DEG1)
        expansion = dg.g_expansion(g_field, sol)
        flow = dg.param_flow(expansion, sol)
        assert not flow.ghat0
        assert flow.ghat[0] == A2
        assert flow.ghat[1] == A1 * A1 * 6
        assert not flow.ghat[2]
        assert dg.flow_ladder_check(expansion, sol, flow) is None
        assert dg.flow_support_check(flow) == ()


class TestExpansionDeg3:
    def test_two_orders_below_the_degree_vanish(self, deg3):
        _, _, _, _, expansion, _ = deg3
        assert expansion.gamma == 3
        assert not any(expansion.vector(0))
        assert not any(expansion.vector(1))

    def test_first_nonzero_order_is_a_multiple_of_the_eigenvector(self, deg3):
        # (a_i c_i) = (2, 5, 4, -3) at the principal balance, scaled by
        # the shift rate 3*alpha1
        _, _, _, _, expansion, _ = deg3
        assert expansion.vector(2) == (A1 * 6, A1 * 15, A1 * 12, A1 * -9)

    def test_kernel_identities_through_the_degree(self, deg3):
        field, _, cert, sol, expansion, _ = deg3
        assert dg.kernel_identity_check(
            field, cert, sol.locus, expansion) == (True, True, True)

    def test_order_zero_identity_at_the_lower_locus(self, deg3):
        field, g_field, cert, _, _, _ = deg3
        sol = build_series(field, cert, P2_DEG3)
        expansion = dg.g_expansion(g_field, sol)
        checks = dg.kernel_identity_check(field, cert, sol.locus, expansion)
        assert checks[0] is True

    def test_expansion_weights(self, deg3):
        _, _, _, sol, expansion, _ = deg3
        assert dg.expansion_support_check(expansion, sol) == ()


class TestFlowDeg3:
    def test_shift_rate_is_linear_in_the_first_parameter(self, deg3):
        _, _, _, _, _, flow = deg3
        assert flow.gamma == 3
        assert flow.kappa == (2, 5, 8)
        assert flow.ghat0 == A1 * 3

    def test_parameter_velocities(self, deg3):
        _, _, _, _, _, flow = deg3
        assert flow.ghat[0] == A2 * F(-3, 2)
        assert flow.ghat[1] == A1 ** 4 * -54 + A3 * 18
        assert flow.ghat[2] == A1 ** 3 * A2 * 42

    def test_ladder_identity_holds_everywhere(self, deg3):
        _, _, _, sol, expansion, flow = deg3
        assert dg.flow_ladder_check(expansion, sol, flow) is None

    def test_ladder_catches_a_dropped_term(self, deg3):
        # without the alpha3 term the velocity is still weighted correctly,
        # so only the ladder notices
        _, _, _, sol, expansion, flow = deg3
        bad_ghat = (flow.ghat[0], A1 ** 4 * -54, flow.ghat[2])
        bad = dataclasses.replace(flow, ghat=bad_ghat)
        assert dg.flow_support_check(bad) == ()
        assert dg.flow_ladder_check(expansion, sol, bad) is not None

    def test_velocity_weights_match_the_resonance_orders(self, deg3):
        _, _, _, _, _, flow = deg3
        assert dg.flow_support_check(flow) == ()


class TestShiftRateCertificate:
    def test_inconclusive_when_the_first_direction_misses_the_flow(self, deg1):
        # the order-2 direction lives in the copy the commuting field does
        # not touch, so the Jacobian test cannot see the nonzero rate
        _, g_field, _, sol, _, flow = deg1
        assert flow.ghat0 == -1
        assert dg.g0_nonzero_certificate(g_field, sol, flow) == "possibly_zero"

    def test_certifies_the_coupled_pair(self, deg3):
        _, g_field, _, sol, _, flow = deg3
        assert dg.g0_nonzero_certificate(
            g_field, sol, flow) == "nonzero_certified"

    def test_zero_field_is_never_certified(self, deg1):
        field, _, _, sol, _, _ = deg1
        zero = VectorField(field.variables,
                           tuple(MultiPoly.zero(field.variables)
                                 for _ in field.variables))
        assert dg.g0_nonzero_certificate(zero, sol) == "possibly_zero"

    def test_contradiction_with_a_computed_flow_is_an_error(self, deg3):
        _, g_field, _, sol, _, flow = deg3
        lying = dataclasses.replace(flow, ghat0=MultiPoly.zero())
        with pytest.raises(RuntimeError):
            dg.g0_nonzero_certificate(g_field, sol, lying)


class TestPoleShiftRoute:
    def test_single_flow_locus(self, deg1, deg1_predictions):
        assert deg1[-1].gamma == 1
        (prediction,) = deg1_predictions
        assert prediction.route == "pole_shift"
        assert prediction.locus == (1, 2, 0)

    def test_flow_exponents_and_prediction(self, deg1_predictions):
        (prediction,) = deg1_predictions
        assert prediction.exponents == (-1, 6, 6)
        assert prediction.predicted == (-1, -1, 6, 6)

    def test_prediction_matches_the_double_blowup(self, deg1_pool,
                                                  deg1_predictions):
        (prediction,) = deg1_predictions
        assert prediction.matches == (P3_DEG1,)
        assert deg1_pool == ((P3_DEG1, (F(-1), F(-1), F(6), F(6))),)

    def test_subsystem_eigenpair_was_verified(self, deg1_predictions):
        (prediction,) = deg1_predictions
        assert prediction.diagnostics == {"universal_eigenpair": True}

    def test_wrong_degree_is_rejected(self, deg3):
        _, _, _, _, _, flow = deg3
        with pytest.raises(ValueError, match="degree-1"):
            dg.degenerate_gamma1(EMPTY_POOL, flow)


# two rationals that round to one float, and a complex root past them
TIE = (F(1, 3), F(1, 3) + F(1, 10 ** 30))
Z = complex(0.5, 1)


def _with_complex_root(*rational):
    # the roots of (x - r) ... (x^2 - x + 5/4) keeping one of 1/2 +- i
    return RootSet(rational_roots=tuple((r, 1) for r in rational),
                   residual_factor=(F(1), F(-1), F(5, 4)),
                   numeric_roots=((Z, 1, 0.0),))


def test_multisets_sort_exactly_at_a_float_tie():
    # float(1/3) == float(1/3 + 10^-30): a key through complex() ties the
    # two and keeps them in the order they came in
    assert float(TIE[0]) == float(TIE[1])
    assert dg._sorted_multiset((Z, TIE[1], TIE[0])) == TIE + (Z,)
    assert _with_complex_root(*TIE[::-1]).multiset() == TIE + (Z,)
    assert _canonical_key(TIE[0]) < _canonical_key(TIE[1])
    # on an exact tie the rational comes first, whatever the input order
    assert dg._sorted_multiset((complex(0.5), F(1, 2))) == (F(1, 2), 0.5)
    assert type(dg._sorted_multiset((complex(0.5), F(1, 2)))[0]) is Fraction


class TestDeformedField:
    def test_predictions_are_realized_at_every_epsilon(self, deg1,
                                                       deg1_predictions):
        field, g_field, cert, _, _, flow = deg1
        check = dg.deformed_field_check(
            field, g_field, cert, flow,
            predicted=deg1_predictions[0].predicted)
        assert check.k1 == -1
        assert check.epsilons == (F(1, 10), F(1, 7), F(1, 3))
        assert check.realized == (True, True, True)
        assert check.stable is True

    def test_exponent_multisets_are_exact_and_stable(self, deg1):
        field, g_field, cert, _, _, flow = deg1
        check = dg.deformed_field_check(field, g_field, cert, flow)
        assert check.realized is None
        assert check.multisets[0] == (
            (F(-1), F(-1), F(6), F(6)),
            (F(-1), F(2), F(3), F(6)),
            (F(-1), F(2), F(3), F(6)),
        )
        assert check.multisets[0] == check.multisets[1] == check.multisets[2]

    def test_collections_are_stable_at_a_float_tie(self, deg1, monkeypatch):
        # two deformed fields whose exact loci carry the multisets
        # {1/3, z} and {1/3 + 10^-30, z}, found in opposite orders: the
        # two exponents are one float, but the collections are the same
        field, g_field, cert, _, _, flow = deg1
        found = [_with_complex_root(value) for value in TIE]
        calls = []

        def spectra(*args):
            calls.append(args)
            order = found if len(calls) % 2 else found[::-1]
            return tuple((SimpleNamespace(is_exact=True),
                          SimpleNamespace(exponents=roots))
                         for roots in order)

        monkeypatch.setattr(dg, "_spectra", spectra)
        check = dg.deformed_field_check(field, g_field, cert, flow)
        assert len(calls) == 3
        assert check.multisets[0] == ((TIE[0], Z), (TIE[1], Z))
        assert check.stable is True

    def test_excluded_epsilon_is_an_error(self, deg1):
        field, g_field, cert, _, _, flow = deg1
        with pytest.raises(ValueError, match="excluded"):
            dg.deformed_field_check(field, g_field, cert, flow,
                                    epsilons=(F(1),))

    def test_zero_shift_rate_deforms_without_exclusions(self, deg1):
        field, g_field, cert, _, _, _ = deg1
        sol = build_series(field, cert, P2_DEG1)
        flow = dg.param_flow(dg.g_expansion(g_field, sol), sol)
        check = dg.deformed_field_check(field, g_field, cert, flow)
        assert check.k1 == 0
        assert check.stable is True

    def test_wrong_degree_is_rejected(self, deg3):
        field, g_field, cert, _, _, flow = deg3
        with pytest.raises(ValueError, match="degree-1"):
            dg.deformed_field_check(field, g_field, cert, flow)


class TestRescaleRoutes:
    def test_one_exact_and_three_numeric_branches(self, deg3,
                                                  deg3_predictions):
        assert deg3[-1].gamma == 3
        assert tuple(p.route for p in deg3_predictions) == (
            "rescale_exact", "flow_direct", "flow_direct", "flow_direct")

    def test_exact_rescaled_locus(self, deg3_predictions):
        assert deg3_predictions[0].locus == (F(1, 3), F(4, 9), F(-7, 81))

    def test_exact_route_exponents(self, deg3_predictions):
        assert deg3_predictions[0].exponents == (-1, 8, 10)
        assert deg3_predictions[0].predicted == (-3, -1, 8, 10)

    def test_exact_route_diagnostics(self, deg3_predictions):
        diag = deg3_predictions[0].diagnostics
        assert diag["g0_value"] == 1
        assert diag["minus_one_present"] is True
        assert diag["search_complete"] is True

    def test_rescaled_exponent_matrix_in_closed_form(self, deg3):
        _, _, _, _, _, flow = deg3
        params = flow.parameters
        cleared = VectorField(params, tuple(
            g + MultiPoly.variable(v, params) * flow.ghat0 * k
            for g, v, k in zip(flow.ghat, params, flow.kappa)))
        matrix = dg._rescaled_matrix(cleared, (F(1, 3), F(4, 9), F(-7, 81)),
                                     F(1))
        assert matrix == ExactMatrix([
            [F(4), F(-3, 2), F(0)],
            [F(-4, 3), F(5), F(18)],
            [F(112, 27), F(14, 9), F(8)],
        ])

    def test_numeric_branches_are_cube_roots_of_the_same_point(
            self, deg3_predictions):
        for prediction in deg3_predictions[1:]:
            a1 = complex(prediction.locus[0])
            assert abs(a1 ** 3 - 1 / 243) < 1e-9

    def test_numeric_branch_exponents(self, deg3_predictions):
        targets = [-1.0, -1 / 3, 8 / 3, 10 / 3]
        for prediction in deg3_predictions[1:]:
            got = sorted(complex(v).real for v in prediction.exponents)
            imag = max(abs(complex(v).imag) for v in prediction.exponents)
            assert imag < 1e-7
            assert all(abs(g - t) < 1e-6 for g, t in zip(got, targets))

    def test_numeric_branches_snap_back_to_the_exact_locus(
            self, deg3_predictions):
        for prediction in deg3_predictions[1:]:
            diag = prediction.diagnostics
            assert diag["rescaled_point"] == (F(1, 3), F(4, 9), F(-7, 81))
            assert diag["matches_rescaled_exact"] is True

    def test_numeric_branch_diagnostics(self, deg3_predictions):
        for prediction in deg3_predictions[1:]:
            diag = prediction.diagnostics
            assert diag["minus_one_present"] is True
            assert diag["inverse_degree_present"] is True
            assert diag["conjugacy_ok"] is True

    def test_every_branch_predicts_the_lower_locus(self, deg3_pool,
                                                   deg3_predictions):
        assert len(deg3_predictions) == 4
        for prediction in deg3_predictions:
            assert prediction.matches == (P2_DEG3,)
        assert deg3_pool == ((P2_DEG3, (F(-3), F(-1), F(8), F(10))),)

    def test_commuting_field_sees_the_same_spectrum_at_its_own_locus(
            self, deg3):
        # the commuting field is itself quasi-homogeneous of degree 3 and
        # has a lower balance supported on the last coordinate; its
        # exponents there are exactly the flow's (divided by the degree)
        _, g_field, _, _, _, _ = deg3
        report = k_exponents(g_field, WeightCertificate((2, 5, 4, 3), 3),
                             (0, 0, 0, 1))
        assert report.classification == "lower"
        values = sorted(r for r, m in report.exponents.rational_roots
                        for _ in range(m))
        assert values == [F(-1), F(-1, 3), F(8, 3), F(10, 3)]

    def test_zero_shift_rate_is_rejected(self, deg3):
        _, _, _, _, _, flow = deg3
        halted = dataclasses.replace(flow, ghat0=MultiPoly.zero())
        with pytest.raises(dg.G0IdenticallyZero):
            dg.degenerate_gamma_ge2(EMPTY_POOL, halted)

    def test_wrong_degree_is_rejected(self, deg1):
        _, _, _, _, _, flow = deg1
        with pytest.raises(ValueError, match="at least"):
            dg.degenerate_gamma_ge2(EMPTY_POOL, flow)


def pole_field(flow):
    """The flow with the pole position alpha0 (weight -1) prepended.

    Its Kovalevskaya matrix at (0,) + xi, for a subsystem locus xi, is the
    flow's full exponent matrix, pole row included, whose spectrum the
    direct route of degenerate_gamma_ge2 reports.
    """
    return (VectorField(("alpha0",) + flow.parameters,
                        (flow.ghat0,) + flow.ghat),
            WeightCertificate((-1,) + flow.kappa, flow.gamma))


class TestExactDirectRoute:
    """The direct route at rational flow loci, checked by hand.

    alpha1' = -alpha1^3 / 2 with shift rate alpha1, kappa (1,), degree 2:
    the indicial equation alpha1 - alpha1^3 = 0 has the rational loci
    +-1, where the pole field's Kovalevskaya matrix is
    [[-1/2, 1], [0, -3/2 + 1/2]].  Rescaling by gamma * ghat0 = +-2 sends
    both to 2, the one rescaled locus with nonzero shift rate.
    """

    @pytest.fixture(scope="class")
    def flow(self):
        return dg.ParamFlow(ghat0=A1, ghat=(A1 ** 3 * F(-1, 2),), kappa=(1,),
                            gamma=2, parameters=("alpha1",))

    def test_pole_field_matrix(self, flow):
        field, cert = pole_field(flow)
        matrix = ExactMatrix([[F(-1, 2), F(1)], [F(0), F(-1)]])
        for xi in (-1, 1):
            assert kovalevskaya_matrix(field, cert, (0, xi)) == matrix
        direct = [p for p in dg.degenerate_gamma_ge2(EMPTY_POOL, flow)
                  if p.route == "flow_direct"]
        assert [p.locus for p in direct] == [(-1,), (1,)]
        for prediction in direct:
            assert prediction.exponents == (
                roots_exact_first(matrix.charpoly()).multiset())

    def test_both_routes(self, flow):
        predictions = dg.degenerate_gamma_ge2(EMPTY_POOL, flow)
        assert tuple(p.route for p in predictions) == (
            "rescale_exact", "flow_direct", "flow_direct")
        assert tuple(p.locus for p in predictions) == ((2,), (-1,), (1,))
        assert predictions[0].exponents == (-1,)
        assert predictions[0].diagnostics["g0_value"] == 2
        for prediction in predictions:
            assert prediction.predicted == (-2, -1)
            assert prediction.matches == ()
        for prediction in predictions[1:]:
            vals = prediction.exponents
            assert vals == (-1, F(-1, 2))
            assert all(isinstance(v, Fraction) for v in vals)
            diag = prediction.diagnostics
            assert diag["rescaled_point"] == (2,)
            assert diag["matches_rescaled_exact"] is True
            assert diag["conjugacy_ok"] is True

    def test_small_exact_shift_rate_is_kept(self):
        # ghat0 = 1e-9 alpha1 is below the float match bound at the exact
        # loci +-1, but it is not zero there, so neither is skipped
        flow = dg.ParamFlow(ghat0=A1 * F(1, 10 ** 9),
                            ghat=(A1 ** 3 * F(-1, 2),), kappa=(1,),
                            gamma=2, parameters=("alpha1",))
        with warnings.catch_warnings():
            warnings.simplefilter("error", dg.UnrescalableLocus)
            predictions = dg.degenerate_gamma_ge2(EMPTY_POOL, flow)
        assert tuple(p.route for p in predictions) == (
            "rescale_exact", "flow_direct", "flow_direct")
        assert predictions[0].diagnostics["g0_value"] == F(2, 10 ** 18)
        assert tuple(p.locus for p in predictions[1:]) == ((-1,), (1,))
        for prediction in predictions[1:]:
            assert prediction.exponents == (-1, F(-1, 2))
            assert prediction.diagnostics["rescaled_point"] == (
                F(2, 10 ** 9),)
            assert prediction.diagnostics["matches_rescaled_exact"] is True


def _monomials(kappa, weight):
    """Exponent tuples of weight sum kappa_l e_l equal to weight."""
    return [exps for exps in itertools.product(
                *(range(weight // k + 1) for k in kappa))
            if sum(k * e for k, e in zip(kappa, exps)) == weight]


SMALL_Q = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def random_flows(draw):
    """A quasi-homogeneous flow of degree 2 or 3 on one or two parameters:
    ghat0 nonzero of weight gamma - 1, ghat_l of weight kappa_l + gamma."""
    gamma = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 2))
    kappa = draw(st.tuples(*[st.sampled_from((1, 2))] * n).filter(
        lambda kappa: _monomials(kappa, gamma - 1)))
    names = tuple(f"alpha{l + 1}" for l in range(n))

    def poly(weight):
        return MultiPoly(names, {exps: draw(SMALL_Q)
                                 for exps in _monomials(kappa, weight)})

    ghat0 = poly(gamma - 1)
    if not ghat0:
        exps = draw(st.sampled_from(_monomials(kappa, gamma - 1)))
        ghat0 = MultiPoly(names, {exps: F(1)})
    return dg.ParamFlow(ghat0=ghat0,
                        ghat=tuple(poly(k + gamma) for k in kappa),
                        kappa=kappa, gamma=gamma, parameters=names)


def _within(a, b, tol):
    """Multisets a and b pair off, each value within tol of its partner."""
    rest = [complex(w) for w in b]
    for v in a:
        near = [j for j, w in enumerate(rest)
                if abs(complex(v) - w) <= tol * max(1.0, abs(w))]
        if not near:
            return False
        del rest[near[0]]
    return not rest


@given(random_flows())
@settings(max_examples=100, deadline=None)
def test_direct_route_exponents_are_the_pole_field_spectrum(flow):
    # the direct route reads -1/gamma plus the subsystem's spectrum; the
    # pole field's own (n+1) x (n+1) matrix must have that spectrum
    field, cert = pole_field(flow)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dg.UnrescalableLocus)
        predictions = dg.degenerate_gamma_ge2(EMPTY_POOL, flow)
    for prediction in predictions:
        if prediction.route != "flow_direct":
            continue
        at = (0,) + prediction.locus
        if any(isinstance(x, complex) for x in prediction.locus):
            assert _within(prediction.exponents,
                           numeric_exponents(field, cert, at), 1e-9)
        else:
            matrix = kovalevskaya_matrix(field, cert, at)
            assert prediction.exponents == (
                roots_exact_first(matrix.charpoly()).multiset())


_EXPONENT = st.sampled_from([Fraction(k, 2) for k in range(-4, 9)])


@st.composite
def _exponent_multisets(draw, size):
    """A multiset of size values: exact (Fractions), irrational (an exact
    multiset from a spectrum with numeric roots: Fractions and complex) or
    float (all complex, each a small exponent moved by 0 to 1e-6)."""
    values = draw(st.lists(_EXPONENT, min_size=size, max_size=size))
    kind = draw(st.sampled_from(["exact", "irrational", "float"]))
    if kind == "exact":
        return tuple(values)
    if kind == "irrational":
        return values[1:] + [complex(draw(st.sampled_from([2, 3, 5]))) ** 0.5]
    return tuple(complex(v) + draw(st.sampled_from([0, 1e-12, 1e-6]))
                 for v in values)


def _full_scan(predicted, pool, radius):
    # every pool point whose multiset matches, in pool order
    return tuple(point for point, multiset in pool
                 if dg._multisets_match(predicted, multiset, radius))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_indexed_matches_are_the_full_scan(data):
    # the pool indexes its exact multisets once; each prediction's
    # matches, exact or float, are the scan of the whole pool, in pool
    # order.  Multisets are drawn in random order and made canonical, as
    # every multiset the pipeline builds is
    size = data.draw(st.integers(1, 3))
    pool = dg.LowerPool(((k,), dg._sorted_multiset(data.draw(
        _exponent_multisets(data.draw(st.sampled_from([size, size + 1]))))))
                        for k in range(data.draw(st.integers(0, 12))))
    radius = dg._merge_radius(data.draw(st.sampled_from([1e-14, 1e-10])))
    for _ in range(5):
        predicted = dg._sorted_multiset(data.draw(_exponent_multisets(size)))
        assert pool.matches(predicted, radius) == _full_scan(predicted, pool,
                                                             radius)


class TestUnrescalableLocus:
    def test_flow_loci_killing_the_shift_rate_are_skipped(self):
        # hand-built degree-2 flow whose shift rate alpha2 vanishes on the
        # flow loci (+-i/sqrt 2, 0); those cannot be rescaled and must be
        # skipped with a warning, while the exact branch still finds the
        # three loci on the alpha2 = -1 line
        pvars = ("alpha1", "alpha2")
        a1 = MultiPoly.variable("alpha1", pvars)
        a2 = MultiPoly.variable("alpha2", pvars)
        flow = dg.ParamFlow(ghat0=a2, ghat=(a1 ** 3, a2 ** 3),
                            kappa=(1, 1), gamma=2, parameters=pvars)
        with pytest.warns(dg.UnrescalableLocus):
            predictions = dg.degenerate_gamma_ge2(
                analyze(CUBIC_2D, command="loci").pool, flow)
        exact = [p.locus for p in predictions if p.route == "rescale_exact"]
        assert sorted(exact) == [(-1, -1), (0, -1), (1, -1)]


class TestHamiltonianPairing:
    def test_principal_exponents_pair_off(self):
        assert hamiltonian_pairing_check(
            (-1, 2, 5, 8), (2, 5, 4, 3), 8) == ()

    def test_lower_exponents_pair_off(self):
        assert hamiltonian_pairing_check(
            (-3, -1, 8, 10), (2, 5, 4, 3), 8) == ()

    def test_planar_oscillator_pairs_off(self):
        assert hamiltonian_pairing_check((-1, 6), (2, 3), 6) == ()

    def test_unpaired_exponent_is_reported_once(self):
        assert hamiltonian_pairing_check((-1, 5), (2, 3), 6) == (
            "exponent -1 occurs 1 times but its partner 6 occurs 0 times",)

    def test_odd_variable_count_cannot_pair(self):
        violations = hamiltonian_pairing_check((-1,), (2,), 4)
        assert any("odd number of weights" in v for v in violations)

    def test_mismatched_conjugate_weights_are_reported(self):
        violations = hamiltonian_pairing_check((-1, 6), (2, 2), 6)
        assert violations == ("conjugate pair 1: weights 2 + 2 != 5",)
