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
import warnings
from fractions import Fraction

import pytest

from conftest import CUBIC_2D, PAIR_4D_DEG1, PAIR_4D_DEG3
from kovex import analyze
from kovex import degeneration as dg
from kovex.exactalg import ExactMatrix, MultiPoly
from kovex.kovalevskaya import k_exponents
from kovex.laurent import build_series
from kovex.vfmodel import VectorField, WeightCertificate

F = Fraction

P1_DEG1 = (F(1), F(-2), F(0), F(0))
P2_DEG1 = (F(0), F(0), F(1), F(-2))
P3_DEG1 = (F(1), F(-2), F(1), F(-2))

P1_DEG3 = (F(1), F(1), F(1), F(-1))
P2_DEG3 = (F(3), F(27), F(0), F(-3))

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
def deg1_report(deg1):
    flow = deg1[-1]
    return dg.degenerate_gamma1(analyze(PAIR_4D_DEG1, command="loci").pool,
                                flow)


@pytest.fixture(scope="session")
def deg3_report(deg3):
    flow = deg3[-1]
    return dg.degenerate_gamma_ge2(analyze(PAIR_4D_DEG3, command="loci").pool,
                                   flow)


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
        report = dg.degenerate_gamma1(
            analyze(PAIR_4D_DEG1, command="loci").pool, flow)
        assert report.routes == ()
        assert report.flow_loci == ()

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
    def test_single_flow_locus(self, deg1_report):
        assert deg1_report.gamma == 1
        assert deg1_report.routes == ("pole_shift",)
        assert deg1_report.flow_loci == ((1, 2, 0),)

    def test_flow_exponents_and_prediction(self, deg1_report):
        assert deg1_report.flow_exponents == ((-1, 6, 6),)
        assert deg1_report.predicted_lower_exponents == ((-1, -1, 6, 6),)

    def test_prediction_matches_the_double_blowup(self, deg1_report):
        assert deg1_report.matched_lower_loci == ((P3_DEG1,),)
        assert deg1_report.unmatched == ()
        assert deg1_report.lower_spectra == (
            (P3_DEG1, (F(-1), F(-1), F(6), F(6))),)

    def test_subsystem_eigenpair_was_verified(self, deg1_report):
        assert deg1_report.diagnostics == ({"universal_eigenpair": True},)

    def test_wrong_degree_is_rejected(self, deg3):
        _, _, _, _, _, flow = deg3
        with pytest.raises(ValueError, match="degree-1"):
            dg.degenerate_gamma1((), flow)


class TestDeformedField:
    def test_predictions_are_realized_at_every_epsilon(self, deg1,
                                                       deg1_report):
        field, g_field, cert, _, _, flow = deg1
        check = dg.deformed_field_check(
            field, g_field, cert, flow,
            predicted=deg1_report.predicted_lower_exponents[0])
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
    def test_one_exact_and_three_numeric_branches(self, deg3_report):
        assert deg3_report.gamma == 3
        assert deg3_report.routes == (
            "rescale_exact", "flow_direct", "flow_direct", "flow_direct")

    def test_exact_rescaled_locus(self, deg3_report):
        assert deg3_report.flow_loci[0] == (F(1, 3), F(4, 9), F(-7, 81))

    def test_exact_route_exponents(self, deg3_report):
        assert deg3_report.flow_exponents[0] == (-1, 8, 10)
        assert deg3_report.predicted_lower_exponents[0] == (-3, -1, 8, 10)

    def test_exact_route_diagnostics(self, deg3_report):
        diag = deg3_report.diagnostics[0]
        assert diag["g0_value"] == 1
        assert diag["minus_one_present"] is True
        assert diag["search_complete"] is True

    def test_rescaled_exponent_matrix_in_closed_form(self, deg3):
        _, _, _, _, _, flow = deg3
        matrix = dg._rescaled_matrix(flow, (F(1, 3), F(4, 9), F(-7, 81)), F(1))
        assert matrix == ExactMatrix([
            [F(4), F(-3, 2), F(0)],
            [F(-4, 3), F(5), F(18)],
            [F(112, 27), F(14, 9), F(8)],
        ])

    def test_numeric_branches_are_cube_roots_of_the_same_point(
            self, deg3_report):
        for idx in (1, 2, 3):
            a1 = complex(deg3_report.flow_loci[idx][0])
            assert abs(a1 ** 3 - 1 / 243) < 1e-9

    def test_numeric_branch_exponents(self, deg3_report):
        targets = [-1.0, -1 / 3, 8 / 3, 10 / 3]
        for idx in (1, 2, 3):
            got = sorted(complex(v).real
                         for v in deg3_report.flow_exponents[idx])
            imag = max(abs(complex(v).imag)
                       for v in deg3_report.flow_exponents[idx])
            assert imag < 1e-7
            assert all(abs(g - t) < 1e-6 for g, t in zip(got, targets))

    def test_numeric_branches_snap_back_to_the_exact_locus(self, deg3_report):
        for idx in (1, 2, 3):
            diag = deg3_report.diagnostics[idx]
            assert diag["rescaled_point"] == (F(1, 3), F(4, 9), F(-7, 81))
            assert diag["matches_rescaled_exact"] is True

    def test_numeric_branch_diagnostics(self, deg3_report):
        for idx in (1, 2, 3):
            diag = deg3_report.diagnostics[idx]
            assert diag["minus_one_present"] is True
            assert diag["inverse_degree_present"] is True
            assert diag["conjugacy_ok"] is True

    def test_every_branch_predicts_the_lower_locus(self, deg3_report):
        assert deg3_report.unmatched == ()
        for hits in deg3_report.matched_lower_loci:
            assert hits == (P2_DEG3,)
        assert deg3_report.lower_spectra == (
            (P2_DEG3, (F(-3), F(-1), F(8), F(10))),)

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
            dg.degenerate_gamma_ge2((), halted)

    def test_wrong_degree_is_rejected(self, deg1):
        _, _, _, _, _, flow = deg1
        with pytest.raises(ValueError, match="at least"):
            dg.degenerate_gamma_ge2((), flow)


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
            report = dg.degenerate_gamma_ge2(
                analyze(CUBIC_2D, command="loci").pool, flow)
        exact = [p for p, r in zip(report.flow_loci, report.routes)
                 if r == "rescale_exact"]
        assert sorted(exact) == [(-1, -1), (0, -1), (1, -1)]


class TestHamiltonianPairing:
    def test_principal_exponents_pair_off(self):
        assert dg.hamiltonian_pairing_check(
            (-1, 2, 5, 8), (2, 5, 4, 3), 8) == ()

    def test_lower_exponents_pair_off(self):
        assert dg.hamiltonian_pairing_check(
            (-3, -1, 8, 10), (2, 5, 4, 3), 8) == ()

    def test_planar_oscillator_pairs_off(self):
        assert dg.hamiltonian_pairing_check((-1, 6), (2, 3), 6) == ()

    def test_unpaired_exponent_is_reported_once(self):
        assert dg.hamiltonian_pairing_check((-1, 5), (2, 3), 6) == (
            "exponent -1 occurs 1 times but its partner 6 occurs 0 times",)

    def test_odd_variable_count_cannot_pair(self):
        violations = dg.hamiltonian_pairing_check((-1,), (2,), 4)
        assert any("odd number of weights" in v for v in violations)

    def test_mismatched_conjugate_weights_are_reported(self):
        violations = dg.hamiltonian_pairing_check((-1, 6), (2, 2), 6)
        assert violations == ("conjugate pair 1: weights 2 + 2 != 5",)
