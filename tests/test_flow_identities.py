"""The flow identities on packed polynomials, against MultiPoly oracles.

flow_ladder_check, expansion_support_check and kernel_identity_check run
on the packed integer polynomials g_expansion keeps on its GExpansion.
The references below do the same checks on the unpacked MultiPoly
vectors, series coefficients and velocities, by code that shares nothing
with the packed form.  Every input, the golden flows and any doctored
copy of them, must get exactly the same answer from both: the first
failing (component, order), the violation triples, the booleans.
"""

import dataclasses
import functools
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from kovex import degeneration as dg
from kovex import laurent
from kovex.exactalg import MultiPoly
from kovex.kovalevskaya import kovalevskaya_matrix
from kovex.laurent import build_series
from kovex.vfmodel import WeightCertificate, fields_from_problem, off_weight
from kovex.vfparse import parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

# the golden flows: cubic_pair's two gamma = 1 principal balances and
# painleve1_coupled_4d's gamma = 3 one
GOLDEN = (("cubic_pair", (1, -2, 0, 0)), ("cubic_pair", (0, 0, 1, -2)),
          ("painleve1_coupled_4d", (1, 1, 1, -1)))


def ladder_oracle(expansion, sol, flow):
    weights = sol.weights
    gamma = expansion.gamma
    top = min(expansion.count - gamma, sol.truncation)
    for i in range(sol.dim):
        a_i = weights[i]
        for j in range(top):
            lhs = sol.coefficient(i, j + 1) * flow.ghat0 * (a_i - j - 1)
            d_ij = sol.coefficient(i, j)
            for name, g in zip(flow.parameters, flow.ghat):
                if name in d_ij.vars:
                    lhs = lhs + d_ij.diff(name) * g
            if lhs != expansion.vector(j + gamma)[i]:
                return (i, j)
    return None


def support_oracle(expansion, sol):
    kappa = {r.parameter: r.order for r in sol.resonances}
    return tuple((i, k, exps)
                 for k, vec in enumerate(expansion.vectors)
                 for i, poly in enumerate(vec)
                 for exps in off_weight(poly, kappa, k))


def kernel_oracle(field, certificate, locus, expansion):
    gamma = expansion.gamma
    matrix = kovalevskaya_matrix(field, certificate, locus)
    m = field.dim
    results = []
    for k in range(gamma):
        vec = expansion.vector(k)
        ok = True
        for i in range(m):
            acc = vec[i] * (gamma - k)
            for j in range(m):
                if matrix.data[i][j]:
                    acc = acc + vec[j] * matrix.data[i][j]
            if acc:
                ok = False
                break
        results.append(ok)
    return tuple(results)


@functools.cache
def golden(stem, locus, truncation=None):
    """field, certificate, series, G's expansion along it and the flow.

    Cached, so the expansion keeps the packed form g_expansion left on it
    and every example reads the same objects; none of them is changed.
    """
    text = (PROBLEMS / f"{stem}.kov").read_text(encoding="utf-8")
    spec = parse_problem(text)
    field, g_field = fields_from_problem(spec)
    cert = WeightCertificate(spec.weights, 1)
    sol = build_series(field, cert, tuple(Fraction(x) for x in locus),
                       truncation)
    expansion = dg.g_expansion(g_field, sol)
    return field, cert, sol, expansion, dg.param_flow(expansion, sol)


def assert_agree(field, cert, sol, expansion, flow):
    assert dg.flow_ladder_check(expansion, sol, flow) == ladder_oracle(
        expansion, sol, flow)
    assert dg.expansion_support_check(expansion, sol) == support_oracle(
        expansion, sol)
    assert dg.kernel_identity_check(
        field, cert, sol.locus, expansion) == kernel_oracle(
            field, cert, sol.locus, expansion)


def _replace_at(rows, i, j, poly):
    rows = [list(row) for row in rows]
    rows[i][j] = poly
    return tuple(tuple(row) for row in rows)


def indices(last):
    """0..last, with the two ends drawn as often as all the rest: an
    off-by-one at either end of an order loop shows there."""
    return st.one_of(st.sampled_from((0, last)), st.integers(0, last))


@st.composite
def doctored_term(draw, poly, names):
    """poly with one of its terms removed, or one random term added."""
    if poly.terms and draw(st.booleans()):
        exps = draw(st.sampled_from(sorted(poly.terms)))
        return poly - MultiPoly(poly.vars, {exps: poly.terms[exps]})
    exps = tuple(draw(st.integers(0, 4)) for _ in names)
    coefficient = Fraction(draw(st.integers(-9, 9).filter(bool)),
                           draw(st.integers(1, 9)))
    return poly + MultiPoly(tuple(sorted(names)), {exps: coefficient})


def own_vars(poly, order):
    """poly over only the variables it uses, taken in the given order."""
    at = {v: k for k, v in enumerate(poly.vars)}
    used = tuple(v for v in order if v in at
                 and any(exps[at[v]] for exps in poly.terms))
    return MultiPoly(used, {tuple(exps[at[v]] for v in used): c
                            for exps, c in poly.terms.items()})


@st.composite
def doctored_flows(draw):
    """A golden flow with one term added or removed in an expansion
    vector, a series coefficient or a velocity, its expansion sometimes
    rebuilt by hand with each vector over its own variables."""
    field, cert, sol, expansion, flow = golden(*draw(st.sampled_from(GOLDEN)))
    names = sol.parameters
    where = draw(st.sampled_from(("vector", "series", "velocity")))
    if where == "vector":
        k = draw(indices(expansion.count - 1))
        i = draw(indices(sol.dim - 1))
        poly = draw(doctored_term(expansion.vectors[k][i], names))
        vectors = _replace_at(expansion.vectors, k, i, poly)
        expansion = dataclasses.replace(expansion, vectors=vectors)
    elif where == "series":
        i = draw(indices(sol.dim - 1))
        j = draw(indices(sol.truncation))
        poly = draw(doctored_term(sol.coefficients[i][j], names))
        coefficients = _replace_at(sol.coefficients, i, j, poly)
        sol = dataclasses.replace(sol, coefficients=coefficients)
    else:
        l = draw(st.integers(0, len(flow.ghat)))
        if l == 0:
            flow = dataclasses.replace(
                flow, ghat0=draw(doctored_term(flow.ghat0, names)))
        else:
            ghat = list(flow.ghat)
            ghat[l - 1] = draw(doctored_term(ghat[l - 1], names))
            flow = dataclasses.replace(flow, ghat=tuple(ghat))
    if draw(st.booleans()):
        order = draw(st.permutations(names))
        expansion = dg.GExpansion(
            vectors=tuple(tuple(own_vars(p, order) for p in vec)
                          for vec in expansion.vectors),
            gamma=expansion.gamma)
    return field, cert, sol, expansion, flow


@given(doctored_flows())
@settings(max_examples=150, deadline=None)
def test_packed_identities_agree_with_their_oracles(case):
    assert_agree(*case)


def test_golden_flows_pass_on_the_kept_packed_form():
    for stem, locus in GOLDEN:
        field, cert, sol, expansion, flow = golden(stem, locus)
        packed = expansion._packed
        assert packed is not None and packed.solution is sol
        # the checks read the kept form: no vector or coefficient is packed
        assert dg._operands(expansion, sol, (flow.ghat0,) + flow.ghat)[2] is (
            packed.vectors)
        assert_agree(field, cert, sol, expansion, flow)
        assert dg.flow_ladder_check(expansion, sol, flow) is None
        assert dg.expansion_support_check(expansion, sol) == ()
        assert all(dg.kernel_identity_check(field, cert, sol.locus, expansion))


def test_violations_are_listed_over_each_polynomials_own_variables():
    # a hand-built expansion has no packed form and is packed on entry
    # over the union of its variables; a violation still lists its
    # exponents over the variables of the polynomial it sits in
    field, cert, sol, expansion, flow = golden(*GOLDEN[2])
    a2 = MultiPoly.variable("alpha2")
    vectors = _replace_at(expansion.vectors, 1, 0, MultiPoly.constant(3))
    vectors = _replace_at(vectors, 2, 1, a2 ** 5)
    doctored = dg.GExpansion(vectors=vectors, gamma=expansion.gamma)
    violations = dg.expansion_support_check(doctored, sol)
    assert violations == support_oracle(doctored, sol)
    assert (0, 1, ()) in violations
    assert (1, 2, (5,)) in violations
    assert_agree(field, cert, sol, doctored, flow)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_partial_derivatives_match_multipoly(data):
    names = ("alpha1", "alpha2", "alpha3")
    terms = data.draw(st.dictionaries(
        st.tuples(*(st.integers(0, 6) for _ in names)),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        max_size=6))
    poly = MultiPoly(names, terms)
    width, shift, (row,) = laurent._pack_all(names, ((poly,),), 6)
    for v in names:
        packed = laurent._diff(row[0], shift[v], width)
        expected = laurent._pack(poly.diff(v), shift)
        assert (packed.terms, packed.den) == (expected.terms, expected.den)
    weights = (1, 2, 3)
    for key in row[0].terms:
        exps = tuple((key >> shift[v]) & ((1 << width) - 1) for v in names)
        assert laurent._key_weight(key, weights, width) == sum(
            w * e for w, e in zip(weights, exps))


def test_a_copy_carries_no_packed_form():
    # the tests doctor vectors with replace, so a copy must never hold a
    # packed form that could disagree with its vectors
    _, _, _, expansion, _ = golden(*GOLDEN[2])
    copy = dataclasses.replace(expansion)
    assert expansion._packed is not None and copy._packed is None
    assert copy == expansion
    assert repr(copy) == repr(expansion)
    assert "_packed" not in repr(expansion)


def test_velocity_exponents_past_the_tree_width_do_not_carry():
    # at truncation 16 the tree packs each parameter in 5 bits, so a
    # velocity term in alpha1^35 packed at that width would carry into
    # alpha2's field and read as the genuine 42*alpha1^3*alpha2 of
    # alpha3' (and alpha1^40 as alpha1^8*alpha2).  Such a flow is packed
    # on entry with the expansion and series instead, whose exponents stay
    # at most 8: at their own 4 bits alpha1^19 would carry the same way,
    # so the width must leave room for the flow's exponents too
    field, cert, sol, expansion, flow = golden(*GOLDEN[2], truncation=16)
    assert expansion._packed.width == 5
    assert laurent._largest(expansion.vectors + sol.coefficients) == 8
    a1 = MultiPoly.variable("alpha1", sol.parameters)
    a2 = MultiPoly.variable("alpha2", sol.parameters)
    for width, power in ((5, 35), (4, 19)):
        shift = {v: width * k for k, v in enumerate(sol.parameters)}
        assert (laurent._pack(a1 ** power, shift).terms
                == laurent._pack(a1 ** 3 * a2, shift).terms)
    assert flow.ghat[2] == a1 ** 3 * a2 * 42
    for ghat in ((flow.ghat[0], flow.ghat[1], a1 ** 35 * 42),
                 (flow.ghat[0], flow.ghat[1], a1 ** 19 * 42),
                 (flow.ghat[0] + a1 ** 40, flow.ghat[1], flow.ghat[2])):
        bad = dataclasses.replace(flow, ghat=ghat)
        expected = ladder_oracle(expansion, sol, bad)
        assert expected is not None
        assert dg.flow_ladder_check(expansion, sol, bad) == expected
