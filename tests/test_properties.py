"""Randomized invariants, mostly over scaling orbits of the worked systems.

A diagonal substitution x_i -> mu_i * x_i with nonzero rational mu keeps a
field polynomial and quasi-homogeneous with the same weights while moving
every locus and every series coefficient.  That turns each worked example
into an infinite exact family, which is what most of these suites sample.
Everything here is checked with zero tolerance except the closure test on
irrational spectra, which has to go through approximate roots.
"""

import itertools
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import CUBIC_2D, PAIR_4D_DEG1, PAIR_4D_DEG3
from kovex.degeneration import g_expansion, hamiltonian_pairing_check
from kovex.exactalg import MultiPoly
from kovex.kovalevskaya import (
    NoLocusFound,
    exact_point,
    find_loci,
    k_exponents,
    kovalevskaya_matrix,
    verify_locus,
)
from kovex.laurent import (
    _field_orders,
    build_series,
    qh_coefficient_check,
    residual_order,
)
from kovex.vfmodel import (
    VectorField,
    WeightCertificate,
    euler_identity_check,
    fields_from_problem,
    hamiltonian_to_field,
    verify_weight,
)
from kovex.vfparse import parse_problem


def _monomial(names, exps):
    poly = MultiPoly.constant(1, names)
    for name, e in zip(names, exps):
        poly = poly * MultiPoly.variable(name, names) ** e
    return poly


def _field_of(text):
    spec = parse_problem(text)
    field, _ = fields_from_problem(spec)
    return field, WeightCertificate(spec.weights, 1)


# (field, certificate, known exact loci); the loci are frozen expected
# values that verify_locus re-certifies inside every property below
BASES = {
    "cubic2d": _field_of(CUBIC_2D) + (((1, -2),),),
    "pair_deg1": _field_of(PAIR_4D_DEG1)
    + (((1, -2, 0, 0), (0, 0, 1, -2), (1, -2, 1, -2)),),
    "pair_deg3": _field_of(PAIR_4D_DEG3) + (((1, 1, 1, -1), (3, 27, 0, -3)),),
}

NONZERO_Q = st.fractions(min_value=-5, max_value=5,
                         max_denominator=6).filter(bool)


def _scaled(field, mus):
    """g_i(u) = f_i(mu * u) / mu_i, the field in the coordinates u = x / mu."""
    names = field.variables
    table = {v: MultiPoly.variable(v, names) * mu
             for v, mu in zip(names, mus)}
    comps = tuple(c / mu for c, mu in zip(field.substitute(table), mus))
    return VectorField(names, comps)


@st.composite
def scaled_problems(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    field, cert, loci = BASES[name]
    mus = tuple(draw(NONZERO_Q) for _ in field.variables)
    mapped = tuple(tuple(Fraction(c) / mu for c, mu in zip(point, mus))
                   for point in loci)
    return _scaled(field, mus), cert, mapped


@st.composite
def graded_fields(draw):
    """A random field plus the ground-truth set of law-breaking components.

    Monomials are drawn from a small exponent grid, split by hand into
    those sitting on the weighted-degree law and those off it, so the
    expected violation set is known without consulting the code under
    test.
    """
    m = draw(st.integers(1, 4))
    names = tuple(f"x{k + 1}" for k in range(m))
    weights = tuple(draw(st.integers(1, 4)) for _ in range(m))
    gamma = draw(st.integers(1, 3))
    grid = list(itertools.product(range(4), repeat=m))
    offenders = set()
    comps = []
    for i in range(m):
        target = weights[i] + gamma
        on = [e for e in grid
              if sum(w * x for w, x in zip(weights, e)) == target]
        off = [e for e in grid
               if sum(w * x for w, x in zip(weights, e)) != target]
        terms: dict[tuple, Fraction] = {}
        for _ in range(draw(st.integers(0, 2))):
            if on:
                e = draw(st.sampled_from(on))
                terms[e] = terms.get(e, Fraction(0)) + draw(NONZERO_Q)
        for _ in range(draw(st.integers(0, 1))):
            e = draw(st.sampled_from(off))
            terms[e] = terms.get(e, Fraction(0)) + draw(NONZERO_Q)
        poly = MultiPoly.zero(names)
        for e, coeff in terms.items():
            if not coeff:
                continue
            poly = poly + _monomial(names, e) * coeff
            if sum(w * x for w, x in zip(weights, e)) != target:
                offenders.add(i + 1)
        comps.append(poly)
    return (VectorField(names, tuple(comps)),
            WeightCertificate(weights, gamma), frozenset(offenders))


@given(graded_fields())
@settings(max_examples=200)
def test_euler_identity_agrees_with_the_monomial_law(case):
    field, cert, offenders = case
    law = verify_weight(field, cert)
    euler = euler_identity_check(field, cert)
    assert {i for i, _ in law.violations} == set(offenders)
    assert set(euler) == set(offenders)
    assert law.ok == (euler == ())


@given(scaled_problems())
@settings(max_examples=100, deadline=None)
def test_universal_eigenpair_at_every_exact_locus(case):
    field, cert, loci = case
    points = [tuple(Fraction(c) for c in p) for p in loci]
    if field.dim == 2:
        # cheap enough to sweep whatever the search turns up as well
        found = find_loci(field, cert)
        points.extend(exact_point(loc) for loc in found.loci if loc.is_exact)
    for point in points:
        assert verify_locus(field, cert, point)
        v = tuple(a * c for a, c in zip(cert.weights, point))
        assert any(v)
        kmat = kovalevskaya_matrix(field, cert, point)
        assert kmat.matvec(v) == tuple(-x for x in v)


@given(scaled_problems(), st.integers(11, 14))
@settings(max_examples=100, deadline=None)
def test_series_coefficients_respect_the_weight_grading(case, truncation):
    field, cert, loci = case
    for point in loci:
        sol = build_series(field, cert, point, truncation=truncation)
        assert qh_coefficient_check(sol) == ()


@given(scaled_problems(), st.integers(11, 14))
@settings(max_examples=100, deadline=None)
def test_residual_vanishes_through_the_trustworthy_orders(case, truncation):
    field, cert, loci = case
    for point in loci:
        sol = build_series(field, cert, point, truncation=truncation)
        first = residual_order(field, cert, sol)
        assert first is None or first > truncation - max(cert.weights)


@given(scaled_problems(), st.integers(10, 13))
@settings(max_examples=40, deadline=None)
def test_cached_expansion_matches_the_from_scratch_oracle(case, truncation):
    # the field expanded along its own series: g_expansion runs on the
    # shared prefix cache, _field_orders re-multiplies every monomial
    field, cert, loci = case
    for point in loci:
        sol = build_series(field, cert, point, truncation=truncation)
        expansion = g_expansion(field, sol)
        reference = _field_orders(
            field, [list(row) for row in sol.coefficients], expansion.count - 1)
        assert expansion.vectors == tuple(
            tuple(reference[i][k] for i in range(field.dim))
            for k in range(expansion.count))


@given(scaled_problems(), st.integers(10, 13))
@settings(max_examples=40, deadline=None)
def test_deeper_truncation_extends_the_series_exactly(case, truncation):
    field, cert, loci = case
    for point in loci:
        short = build_series(field, cert, point, truncation=truncation)
        long = build_series(field, cert, point, truncation=truncation + 3)
        assert all(row[:truncation + 1] == head
                   for row, head in zip(long.coefficients, short.coefficients))
        assert short.resonances == tuple(
            r for r in long.resonances if r.order <= truncation)
        assert short.obstructions == tuple(
            j for j in long.obstructions if j <= truncation)


# one degree of freedom, weights, weighted degree of H
ONE_DOF_HAMILTONIANS = (
    ("1/2*p^2 - 2*q^3", (2, 3), 6),
    ("1/2*p^2 - 1/2*q^4", (1, 2), 4),
    ("-p*q^2 + p^2*q", (1, 1), 3),
)


def _pairing_at_every_locus(field, cert, h_degree):
    found = find_loci(field, cert)
    span = h_degree - 1
    checked = 0
    for locus in found.loci:
        if not locus.is_exact:
            continue
        report = k_exponents(field, cert, exact_point(locus))
        roots = report.exponents
        if roots.is_fully_rational:
            assert hamiltonian_pairing_check(roots.multiset(), cert.weights,
                                             h_degree) == ()
        else:
            values = roots.multiset()
            mirrored = sorted((span - v for v in values),
                              key=lambda z: (z.real, z.imag))
            assert all(abs(a - b) <= 1e-9
                       for a, b in zip(values, mirrored))
        checked += 1
    return checked


def test_pairing_closure_on_the_bundled_hamiltonians(pair4d_deg1, pair4d_deg3):
    for h_text, weights, h_degree in ONE_DOF_HAMILTONIANS:
        spec = parse_problem(
            f'variables = [q:{weights[0]}, p:{weights[1]}]\nH_F = "{h_text}"\n')
        field, _ = fields_from_problem(spec)
        cert = WeightCertificate(weights, 1)
        assert _pairing_at_every_locus(field, cert, h_degree) > 0
    f1, _, cert1 = pair4d_deg1
    assert _pairing_at_every_locus(f1, cert1, 6) >= 3
    f3, _, cert3 = pair4d_deg3
    assert _pairing_at_every_locus(f3, cert3, 8) >= 2


@st.composite
def one_dof_hamiltonians(draw):
    wq = draw(st.integers(1, 3))
    wp = draw(st.integers(1, 3))
    h_degree = wq + wp + 1
    grid = [(eq, ep) for eq in range(7) for ep in range(7)
            if eq * wq + ep * wp == h_degree]
    assume(grid)  # e.g. even weights cannot carry an odd degree
    terms: dict[tuple, Fraction] = {}
    for _ in range(draw(st.integers(1, 3))):
        e = draw(st.sampled_from(grid))
        terms[e] = terms.get(e, Fraction(0)) + draw(NONZERO_Q)
    h = MultiPoly.zero(("q", "p"))
    for e, coeff in terms.items():
        if coeff:
            h = h + _monomial(("q", "p"), e) * coeff
    return h, (wq, wp), h_degree


@given(one_dof_hamiltonians())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_pairing_closure_on_random_canonical_fields(case):
    h, weights, h_degree = case
    if not h:
        return
    field = hamiltonian_to_field(h, ("q", "p"))
    cert = WeightCertificate(weights, 1)
    try:
        _pairing_at_every_locus(field, cert, h_degree)
    except NoLocusFound:
        pass


@given(scaled_problems(), st.integers(0, 5),
       st.lists(NONZERO_Q, min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_exponents_survive_diagonal_rescaling(case, pick, raw_mus):
    # x = mu * u conjugates K(x*) by diag(mu), so the rescaled field has a
    # locus at x* / mu with the same exponent multiset
    field, cert, loci = case
    mus = tuple(raw_mus[:field.dim])
    point = loci[pick % len(loci)]
    rescaled = _scaled(field, mus)
    preimage = tuple(Fraction(c) / mu for c, mu in zip(point, mus))
    assert verify_locus(rescaled, cert, preimage)
    before = k_exponents(field, cert, point).exponents
    after = k_exponents(rescaled, cert, preimage).exponents
    assert sorted(after.rational_roots) == sorted(before.rational_roots)
    assert after.residual_factor == before.residual_factor
