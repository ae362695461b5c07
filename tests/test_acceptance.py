"""The acceptance gate: nine criteria, one test and one verdict line each.

Run with -v and pytest's own PASSED/FAILED column is the per-criterion
verdict; each test additionally prints a "criterion n: PASS (t)" line
that shows up under -s or -rA.  Runtime budgets are asserted, not just
hoped for, so a performance regression fails the gate like a wrong
number would.
"""

import dataclasses
import json
import random
import string
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from conftest import CUBIC_2D, PAIR_4D_DEG1, PAIR_4D_DEG3
import test_properties as props
from kovex import analyze
from kovex import degeneration as dg
from kovex.cli import main
from kovex.exactalg import MultiPoly
from kovex.kovalevskaya import exact_point, find_loci, k_exponents
from kovex.laurent import build_series
from kovex.vfmodel import WeightCertificate, field_degree, fields_from_problem
from kovex.vfparse import ParseError, parse_problem

F = Fraction
A1 = MultiPoly.variable("alpha1")
A2 = MultiPoly.variable("alpha2")
A3 = MultiPoly.variable("alpha3")


@contextmanager
def _criterion(n, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {n} exceeded its {budget:g}s budget: {elapsed:.2f}s")
    print(f"criterion {n}: PASS ({elapsed:.2f}s)")


def _flat_exponents(field, cert, point):
    roots = k_exponents(field, cert, point).exponents
    assert roots.is_fully_rational
    return roots.multiset()


def test_criterion_1_exact_series_for_the_cubic(cubic2d):
    with _criterion(1, budget=1.0):
        field, cert = cubic2d
        exact = [exact_point(loc) for loc in find_loci(field, cert).loci
                 if loc.is_exact]
        assert exact == [(1, -2)]
        report = k_exponents(field, cert, exact[0])
        assert report.classification == "principal"
        assert sorted(report.exponents.rational_roots) == [(-1, 1), (6, 1)]
        sol = build_series(field, cert, exact[0])
        assert sol.coefficient(0, 0) == 1
        assert sol.coefficient(1, 0) == -2
        assert sol.coefficient(0, 6) == A1
        assert sol.coefficient(1, 6) == A1 * 4
        # T^10 term of the first component, T^9 term of the second
        assert sol.coefficient(0, 12) == A1 * A1 * F(1, 13)
        assert sol.coefficient(1, 12) == A1 * A1 * F(10, 13)
        assert all(not sol.coefficient(i, j)
                   for i in (0, 1) for j in range(1, 12) if j != 6)


def test_criterion_2_autonomous_limits_recover_the_kappa_column():
    with _criterion(2):
        for h_text, weights, kappa in props.ONE_DOF_HAMILTONIANS:
            start = time.perf_counter()
            spec = parse_problem(
                f'variables = [q:{weights[0]}, p:{weights[1]}]\n'
                f'H_F = "{h_text}"\n')
            field, _ = fields_from_problem(spec)
            cert = WeightCertificate(weights, 1)
            principal = [
                exact_point(loc) for loc in find_loci(field, cert).loci
                if loc.is_exact
                and k_exponents(field, cert,
                                exact_point(loc)).classification == "principal"]
            assert principal, f"no principal locus for weights {weights}"
            for point in principal:
                assert _flat_exponents(field, cert, point) == (-1, kappa)
            assert time.perf_counter() - start < 1.0, weights


def test_criterion_3_uncoupled_pair_flow_and_prediction(pair4d_deg1):
    with _criterion(3, budget=5.0):
        field, g_field, cert = pair4d_deg1
        exact = sorted(exact_point(loc)
                       for loc in find_loci(field, cert).loci if loc.is_exact)
        assert exact == [(0, 0, 1, -2), (1, -2, 0, 0), (1, -2, 1, -2)]
        assert sorted(_flat_exponents(field, cert, p) for p in exact) == [
            (-1, -1, 6, 6), (-1, 2, 3, 6), (-1, 2, 3, 6)]
        sol = build_series(field, cert, (F(1), F(-2), F(0), F(0)))
        flow = dg.param_flow(dg.g_expansion(g_field, sol), sol)
        assert flow.ghat0 == -1
        assert flow.ghat[0] == A2 * -1
        assert flow.ghat[1] == A1 * A1 * -6
        assert not flow.ghat[2]
        report = dg.degenerate_gamma1(
            analyze(PAIR_4D_DEG1, command="loci").pool, flow)
        assert report.predicted_lower_exponents == ((-1, -1, 6, 6),)
        assert report.matched_lower_loci == (((1, -2, 1, -2),),)


def test_criterion_4_coupled_pair_flow_and_prediction(pair4d_deg3):
    with _criterion(4, budget=30.0):
        field, g_field, cert = pair4d_deg3
        spec = parse_problem(PAIR_4D_DEG3)
        assert spec.h_f.quasi_homogeneous_degree(cert.weights) == 8
        assert spec.h_g.quasi_homogeneous_degree(cert.weights) == 10
        assert field_degree(g_field, cert.weights) == 3

        exact = sorted(exact_point(loc)
                       for loc in find_loci(field, cert).loci if loc.is_exact)
        assert exact == [(1, 1, 1, -1), (3, 27, 0, -3)]
        assert _flat_exponents(field, cert, exact[0]) == (-1, 2, 5, 8)
        assert _flat_exponents(field, cert, exact[1]) == (-3, -1, 8, 10)

        sol = build_series(field, cert, exact[0])
        expansion = dg.g_expansion(g_field, sol)
        assert expansion.vector(0) == (0, 0, 0, 0)
        assert expansion.vector(1) == (0, 0, 0, 0)
        assert dg.kernel_identity_check(
            field, cert, sol.locus, expansion) == (True, True, True)

        flow = dg.param_flow(expansion, sol)
        assert flow.ghat0 == A1 * 3
        assert flow.ghat[0] == A2 * F(-3, 2)
        assert flow.ghat[2] == A1 ** 3 * A2 * 42
        # the ladder identity overdetermines the flow and pins the quartic
        # velocity: with the 18*alpha3 term it holds at every order, and
        # with the bare -54*alpha1^4 it already fails
        assert flow.ghat[1] == A1 ** 4 * -54 + A3 * 18
        assert dg.flow_ladder_check(expansion, sol, flow) is None
        bare = dataclasses.replace(
            flow, ghat=(flow.ghat[0], A1 ** 4 * -54, flow.ghat[2]))
        assert dg.flow_ladder_check(expansion, sol, bare) is not None

        report = dg.degenerate_gamma_ge2(
            analyze(PAIR_4D_DEG3, command="loci").pool, flow)
        i = report.routes.index("rescale_exact")
        assert report.flow_loci[i] == (F(1, 3), F(4, 9), F(-7, 81))
        predicted = report.predicted_lower_exponents[i]
        assert tuple(sorted(predicted)) == (-3, -1, 8, 10)
        rho = sorted(F(p) / 3 for p in predicted)
        assert rho == [F(-1), F(-1, 3), F(8, 3), F(10, 3)]
        assert (3, 27, 0, -3) in report.matched_lower_loci[i]


def test_criterion_5_property_suites(pair4d_deg1, pair4d_deg3):
    with _criterion(5):
        props.test_euler_identity_agrees_with_the_monomial_law()
        props.test_universal_eigenpair_at_every_exact_locus()
        props.test_series_coefficients_respect_the_weight_grading()
        props.test_residual_vanishes_through_the_trustworthy_orders()
        props.test_pairing_closure_on_the_bundled_hamiltonians(
            pair4d_deg1, pair4d_deg3)
        props.test_pairing_closure_on_random_canonical_fields()
        props.test_exponents_survive_diagonal_rescaling()


def test_criterion_6_deformed_field_realizes_the_prediction(pair4d_deg1):
    with _criterion(6, budget=10.0):
        field, g_field, cert = pair4d_deg1
        sol = build_series(field, cert, (F(1), F(-2), F(0), F(0)))
        flow = dg.param_flow(dg.g_expansion(g_field, sol), sol)
        check = dg.deformed_field_check(field, g_field, cert, flow,
                                        predicted=(-1, -1, 6, 6))
        assert check.epsilons == (F(1, 10), F(1, 7), F(1, 3))
        assert check.k1 == -1
        assert check.realized == (True, True, True)
        assert check.stable
        for collection in check.multisets:
            assert (-1, -1, 6, 6) in collection


def test_criterion_7_parser_survives_arbitrary_bytes():
    with _criterion(7):
        rng = random.Random(99173)
        printable = string.printable
        base = CUBIC_2D
        for trial in range(100_000):
            kind = trial % 5
            if kind < 2:
                n = rng.randrange(0, 40)
                text = bytes(rng.getrandbits(8)
                             for _ in range(n)).decode("latin-1")
            elif kind < 4:
                n = rng.randrange(0, 60)
                text = "".join(rng.choice(printable) for _ in range(n))
            else:
                chars = list(base)
                for _ in range(rng.randrange(1, 5)):
                    op = rng.randrange(3)
                    pos = rng.randrange(len(chars))
                    if op == 0:
                        chars[pos] = rng.choice(printable)
                    elif op == 1:
                        del chars[pos]
                    else:
                        chars.insert(pos, rng.choice(printable))
                text = "".join(chars)
            try:
                parse_problem(text)
            except ParseError:
                pass


def test_criterion_8_deep_series_and_expansion_within_budget(pair4d_deg3):
    # N=48 is far past the default truncation of 16; the budget guards
    # the incremental recursion against falling back to re-expanding
    # every monomial at every order
    with _criterion(8, budget=12.0):
        field, g_field, cert = pair4d_deg3
        sol = build_series(field, cert, (1, 1, 1, -1), truncation=48)
        expansion = dg.g_expansion(g_field, sol)
        assert sol.truncation == 48 and sol.obstructions == ()
        assert sol.resonance_orders() == (2, 5, 8)
        assert expansion.count == 49
        assert expansion.vector(0) == (0, 0, 0, 0)


# two uncoupled cubic blocks q' = a p, p' = b q^2 with coefficients of
# height 10^5; a block's nonzero balance is (6/(ab), -12/(a^2 b)), with
# exponents {-1, 6}, and its exponents at the zero balance are its weights
CUBIC_BLOCKS_1E5 = ((F(90821, 94291), F(88811, 86249)),
                    (F(-95731, 80177), F(87869, 91807)))


def test_criterion_9_locus_search_at_coefficient_height_1e5(tmp_path):
    # the rational-root step must not grow with the size of the constant
    # terms: trial division of them took more than 45 s on this problem
    (a1, b1), (a2, b2) = CUBIC_BLOCKS_1E5
    problem = tmp_path / "cubic_blocks.kov"
    problem.write_text(
        "variables = [q1:2, p1:3, q2:2, p2:3]\n"
        f'F.1 = "{a1}*p1"\nF.2 = "{b1}*q1^2"\n'
        f'F.3 = "{a2}*p2"\nF.4 = "{b2}*q2^2"\n', encoding="utf-8")
    out = tmp_path / "report.json"
    with _criterion(9, budget=5.0):
        assert main(["loci", str(problem), "--json", str(out)]) == 0
    balances = [((F(0), F(0)), (6 / (a * b), -12 / (a * a * b)))
                for a, b in CUBIC_BLOCKS_1E5]
    expected = {}
    for first, second in product(*balances):
        spectrum = sorted([-1, 6] if any(first) else [2, 3])
        spectrum += [-1, 6] if any(second) else [2, 3]
        expected[first + second] = sorted(spectrum)
    del expected[(F(0),) * 4]
    loci = json.loads(out.read_text(encoding="utf-8"))["loci"]
    assert all(locus["exactness"] == "exact" for locus in loci)
    assert {tuple(F(c) for c in locus["point"]):
            sorted(int(r["value"]) for r in locus["exponents"]["rational"]
                   for _ in range(r["multiplicity"]))
            for locus in loci} == expected
