"""Lower-family predictions from a commuting field.

A second field G commuting with the degree-1 field F and scaling with
degree gamma under the same weights acts on F's principal series family.
Substituting the family into G and collecting orders of the expansion
variable gives vectors G_k of parameter polynomials; the leading block,
corrected for the drift of the pole position, is a small polynomial flow
on the free parameters alpha1..alpha_{m-1} together with a shift
coefficient driving alpha0.  The indicial data of that flow predicts the
exponent multisets of F's lower balance families.

The prediction is computed along two independent routes and both are
reported: an exact route on rescaled parameter coordinates, where the
indicial system clears to a polynomial system over Q and the exponent
matrix has a closed form, and a direct route that hunts the flow's own
indicial loci and reads each multiset off kovalevskaya.spectra of that
search, with the pole position's -1/gamma added.  The routes see
different coordinates, so agreement is a genuine cross-check, not a
replay.

Each route returns one Prediction per flow locus, built with its matches
against the ambient field's lower loci (lower_spectra) already in place.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import (
    DEFAULT_TOL,
    ExactMatrix,
    MultiPoly,
    _canonical_key,
    _component_points,
    as_fraction,
    roots_exact_first,
    snap_rational,
)
from .kovalevskaya import (
    NoLocusFound,
    _ComponentTable,
    _merge_radius,
    _vanishes,
    exact_point,
    find_loci,
    kovalevskaya_matrix,
    spectra,
)
from .laurent import (
    LaurentSolution,
    _diff,
    _dot,
    _expand_along,
    _IntPoly,
    _key_weight,
    _largest,
    _ONE,
    _pack,
    _pack_all,
    _PackedExpansion,
    _unpacker,
    classify,
)
from .vfmodel import VectorField, WeightCertificate, field_degree, off_weight

__all__ = [
    "DeformationCheck",
    "GExpansion",
    "G0IdenticallyZero",
    "InconsistentG0",
    "LowerPool",
    "ParamFlow",
    "Prediction",
    "TruncationTooShort",
    "UnrescalableLocus",
    "deformed_field_check",
    "degenerate_gamma1",
    "degenerate_gamma_ge2",
    "expansion_support_check",
    "flow_ladder_check",
    "flow_support_check",
    "g_expansion",
    "g0_nonzero_certificate",
    "kernel_identity_check",
    "lower_spectra",
    "param_flow",
]

# a shift rate at a numeric locus at most this large counts as zero
_MATCH_TOL = 1e-8

_MINUS_ONE = -_ONE


class TruncationTooShort(ValueError):
    """The series family does not reach the order the expansion needs."""


class InconsistentG0(ValueError):
    """The leading expansion block is not a multiple of (a_i c_i)."""


class G0IdenticallyZero(ValueError):
    """The shift coefficient vanishes identically; no rescaled flow exists."""


class UnrescalableLocus(UserWarning):
    """A flow locus where the shift coefficient vanishes was skipped."""


@dataclass(frozen=True)
class GExpansion:
    """Order-by-order coefficients of a field along a series family.

    vectors[k][i] is the polynomial coefficient of T^{k-a_i-gamma} in
    g_i(y(T)), where y is the parametrized family the expansion was built
    from.  Uniform quasi-homogeneity makes the pole offset the same for
    every monomial, so each order is a single parameter polynomial.
    """

    vectors: tuple[tuple[MultiPoly, ...], ...]
    gamma: int
    # the packed form g_expansion computed the vectors in, for the flow
    # identities; not part of the value, and neither a hand-built
    # expansion nor a dataclasses.replace copy has one
    _packed: _PackedExpansion | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    @property
    def count(self) -> int:
        return len(self.vectors)

    def vector(self, k: int) -> tuple[MultiPoly, ...]:
        return self.vectors[k]


def g_expansion(g_field: VectorField, sol: LaurentSolution,
                count: int | None = None) -> GExpansion:
    """Expand a quasi-homogeneous field along a computed series family.

    The degree of g_field is inferred from the series weights; a field
    without a uniform degree is rejected.  Orders are only trustworthy as
    far as the family itself, so asking past sol.authoritative_through
    raises TruncationTooShort instead of returning contaminated vectors.
    """
    if g_field.dim != sol.dim:
        raise ValueError(
            f"field dimension {g_field.dim} does not match the series ({sol.dim})")
    gamma = field_degree(g_field, sol.weights)
    if gamma is None:
        raise ValueError(
            "field has no uniform quasi-homogeneous degree for the series weights")
    if count is None:
        count = sol.authoritative_through + 1
    if count < 1:
        raise ValueError("expansion needs at least the leading order")
    if count - 1 > sol.authoritative_through:
        raise TruncationTooShort(
            f"expansion through order {count - 1} needs the series "
            f"authoritative through that order (it stops at "
            f"{sol.authoritative_through})")
    vectors, packed = _expand_along(g_field, sol, count)
    expansion = GExpansion(vectors=vectors, gamma=gamma)
    object.__setattr__(expansion, "_packed", packed)
    return expansion


def _operands(expansion: GExpansion, sol: LaurentSolution | None = None,
              factors: Sequence[MultiPoly] = ()) -> tuple:
    """(shift, width, vectors, series): the expansion's vectors and, given
    sol, its coefficients (series[i][j] is d_{i,j}) as _IntPoly, parameter
    v a field of width bits starting at bit shift[v].

    factors are the MultiPolys the caller packs with shift and multiplies
    with series coefficients, so the width leaves room for their largest
    exponent.  The packed form g_expansion kept serves when it belongs to
    sol (or no sol is asked for) and has that room.  Anything else (a
    hand-built or replaced expansion, another solution, a factor past the
    room) is packed here by _pack_all, over the sorted variables of every
    input.
    """
    packed = expansion._packed
    room = _largest((factors,))
    if packed is not None and (sol is None or (
            packed.solution is sol
            and packed.largest + room < 1 << packed.width
            and all(v in packed.shift for p in factors for v in p.vars))):
        return packed.shift, packed.width, packed.vectors, packed.series
    rows = list(expansion.vectors)
    if sol is not None:
        rows.extend(sol.coefficients)
    names = sorted({v for row in rows + [factors] for p in row
                    for v in p.vars})
    width, shift, packed_rows = _pack_all(names, rows,
                                          _largest(rows) + room)
    count = expansion.count
    return shift, width, packed_rows[:count], packed_rows[count:]


def expansion_support_check(expansion: GExpansion,
                            sol: LaurentSolution) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Monomial support law for the expansion: order k carries weight k.

    Weighing a parameter by its resonance order, every monomial of
    vectors[k][i] must weigh exactly k.  Violations come back as
    (component, order, exponent) triples, each exponent tuple over the
    variables of its polynomial; empty means the law holds.  Each weight
    is read off a packed monomial of the expansion; only a polynomial
    that breaks the law is read again, unpacked, for its violations.
    """
    kappa = {r.parameter: r.order for r in sol.resonances}
    shift, width, vectors, _ = _operands(expansion)
    weights = [kappa[v] for v in shift]
    violations = []
    for k, vec in enumerate(vectors):
        for i, poly in enumerate(vec):
            if any(_key_weight(key, weights, width) != k
                   for key in poly.terms):
                violations.extend(
                    (i, k, exps) for exps in off_weight(
                        expansion.vectors[k][i], kappa, k))
    return tuple(violations)


def kernel_identity_check(field: VectorField, certificate: WeightCertificate,
                          locus, expansion: GExpansion) -> tuple[bool, ...]:
    """Exact kernel identities for the low expansion orders.

    For k below gamma the order-k vector must satisfy
    (K(c) + (gamma-k) I) G_k = 0 identically in the parameters: the
    expansion of a commuting field starts inside eigenspaces of the
    exponent matrix.  Returns one bool per k in 0..gamma-1.  Each row of
    each identity is one scalar _dot over the packed expansion, on the
    row's block of K(c): the blocks build_series solved on, where the
    expansion was computed along a solution at this locus that keeps them,
    else the whole kovalevskaya_matrix as one block.
    """
    gamma = expansion.gamma
    if expansion.count < gamma:
        raise TruncationTooShort(
            f"kernel identities need orders 0..{gamma - 1}, expansion has "
            f"{expansion.count}")
    point = exact_point(locus)
    packed = expansion._packed
    sol = packed.solution if packed is not None else None
    if sol is not None and sol._blocks is not None and sol.locus == point:
        blocks = [(component, block.matrix)
                  for component, block in sol._blocks]
    else:
        blocks = [(range(field.dim),
                   kovalevskaya_matrix(field, certificate, point))]
    _, _, vectors, _ = _operands(expansion)
    results = []
    for k in range(gamma):
        vec = vectors[k]
        results.append(not any(
            _dot([(_IntPoly.constant(entry + (gamma - k if r == c else 0)),
                   vec[j])
                  for c, (j, entry) in enumerate(zip(component, row))
                  if vec[j]])
            for component, matrix in blocks
            for r, row in enumerate(matrix.data)))
    return tuple(results)


@dataclass(frozen=True)
class ParamFlow:
    """The induced flow on the free parameters of a principal family.

    ghat0 drives the pole position (d alpha0 = ghat0(alpha)); ghat[l-1]
    drives alpha_l.  On the parameters alone the flow is again a
    quasi-homogeneous field: weights kappa (the resonance orders) and
    degree gamma, which subsystem_field() packages for reuse by the locus
    and exponent machinery.  No ghat depends on alpha0, so with alpha0
    (weight -1) prepended the exponent matrix is block upper triangular,
    [[-1/gamma, grad ghat0], [0, K_sub]]: the pole row adds -1/gamma to
    the subsystem's spectrum.
    """

    ghat0: MultiPoly
    ghat: tuple[MultiPoly, ...]
    kappa: tuple[int, ...]
    gamma: int
    parameters: tuple[str, ...]

    def subsystem_field(self) -> VectorField:
        return VectorField(self.parameters, self.ghat)


def param_flow(expansion: GExpansion, sol: LaurentSolution) -> ParamFlow:
    """Extract the parameter flow from an expansion along a principal family.

    The shift coefficient ghat0 is the ratio of the order gamma-1 vector
    to the eigenvector (a_i c_i); rows where the eigenvector vanishes must
    vanish too, and every other row must give the same ratio, else the
    expansion contradicts the kernel structure and InconsistentG0 is
    raised.  Each ghat_l is read off at the anchor component of its
    parameter, where the series coefficient is the bare parameter and the
    order ladder unwinds to

        ghat_l = g_{i, kappa_l + gamma}
                 - (a_i - 1 - kappa_l) d_{i, kappa_l + 1} ghat0.

    Every step runs on the packed expansion and series; ghat0 and the
    ghat_l are unpacked once, for the ParamFlow.
    """
    verdict = classify(sol)
    if verdict.kind != "principal":
        raise ValueError(
            f"parameter flow needs a principal family, got {verdict}")
    gamma = expansion.gamma
    if gamma < 1:
        raise ValueError("commuting degree must be at least 1")
    kappa = sol.resonance_orders()
    top = max(kappa) + gamma if kappa else gamma - 1
    if expansion.count <= top:
        raise TruncationTooShort(
            f"flow extraction needs expansion orders through {top}, "
            f"expansion has {expansion.count}")

    weights = sol.weights
    # ghat0 has the leading vector's monomials, and multiplies the series
    shift, width, vectors, series = _operands(
        expansion, sol, expansion.vector(gamma - 1))
    leading = vectors[gamma - 1]
    scales = [Fraction(a) * c for a, c in zip(weights, sol.locus)]
    ghat0 = None
    for i, scale in enumerate(scales):
        if scale:
            ghat0 = leading[i] * (1 / scale)
            break
    if ghat0 is None and any(leading):
        raise InconsistentG0(
            "leading expansion order is nonzero at the zero locus")
    for i, scale in enumerate(scales):
        if scale == 0:
            if leading[i]:
                raise InconsistentG0(
                    f"component {i + 1}: leading order nonzero where the "
                    f"eigenvector (a_i c_i) vanishes")
        elif leading[i] - ghat0 * scale:
            raise InconsistentG0(
                f"component {i + 1}: leading order is not a consistent "
                f"multiple of the eigenvector (a_i c_i)")

    ghat = []
    for rec in sol.resonances:
        i = rec.anchor
        factor = weights[i] - 1 - rec.order
        pairs = [(vectors[rec.order + gamma][i], _ONE)]
        if ghat0 is not None:
            pairs.append((series[i][rec.order + 1], ghat0 * -factor))
        ghat.append(_dot(pairs))
    unpack = _unpacker(tuple(shift), width)
    return ParamFlow(
        ghat0=MultiPoly.zero() if ghat0 is None else unpack(ghat0),
        ghat=tuple(unpack(g) for g in ghat),
        kappa=kappa,
        gamma=gamma,
        parameters=sol.parameters,
    )


def flow_ladder_check(expansion: GExpansion, sol: LaurentSolution,
                      flow: ParamFlow) -> tuple[int, int] | None:
    """First (component, order) where the flow fails the order ladder, if any.

    The extraction in param_flow reads each ghat off a single anchor
    component, but commutation forces the same ladder

        (a_i - j - 1) d_{i,j+1} ghat0 + sum_n (d d_{i,j} / d alpha_n) ghat_n
            = g_{i, j + gamma}

    at every component and order.  Checking it everywhere is therefore a
    heavily overdetermined exact test of the whole construction; None
    means no defect anywhere the expansion reaches.  Each (component,
    order) is one _dot over the packed series, flow and expansion, the
    right-hand side entering times -1, that must vanish; the flow is
    packed on entry, at a width with room for its largest exponent.
    """
    weights = sol.weights
    gamma = expansion.gamma
    top = min(expansion.count - gamma, sol.truncation)
    shift, width, vectors, series = _operands(
        expansion, sol, (flow.ghat0,) + tuple(flow.ghat))
    ghat0 = _pack(flow.ghat0, shift)
    velocities = [(shift[name], _pack(g, shift))
                  for name, g in zip(flow.parameters, flow.ghat)
                  if name in shift and g]
    # ghat0 times a_i - j - 1, by that factor
    scaled = {}
    for i in range(sol.dim):
        a_i = weights[i]
        row = series[i]
        for j in range(top):
            factor = a_i - j - 1
            if factor not in scaled:
                scaled[factor] = ghat0 * factor
            pairs = [(vectors[j + gamma][i], _MINUS_ONE),
                     (row[j + 1], scaled[factor])]
            for low, g in velocities:
                partial = _diff(row[j], low, width)
                if partial:
                    pairs.append((partial, g))
            if _dot(pairs):
                return (i, j)
    return None


def flow_support_check(flow: ParamFlow) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Weight law for the flow components, resonance orders as weights.

    ghat0 must weigh gamma-1 and ghat_l must weigh kappa_l + gamma, which
    is exactly the statement that the parameter subsystem is again
    quasi-homogeneous of degree gamma.  Violations are (l, exponent)
    pairs with l = 0 for the shift coefficient.
    """
    kappa = dict(zip(flow.parameters, flow.kappa))
    targets = [(0, flow.ghat0, flow.gamma - 1)]
    targets.extend((l + 1, g, flow.kappa[l] + flow.gamma)
                   for l, g in enumerate(flow.ghat))
    return tuple((label, exps) for label, poly, target in targets
                 for exps in off_weight(poly, kappa, target))


def g0_nonzero_certificate(g_field: VectorField, sol: LaurentSolution,
                           flow: ParamFlow | None = None) -> str:
    """Rank test for the shift coefficient, decided before any expansion.

    The first resonance direction v enters the family linearly, and the
    shift coefficient inherits its leading term from Jg(c) v.  A nonzero
    product certifies ghat0 is not identically zero ("nonzero_certified");
    a zero product is only ever inconclusive ("possibly_zero").  When a
    computed flow is supplied the certificate is cross-checked against it:
    a certified-nonzero ghat0 that comes out identically zero means the
    implementation broke an exact identity, which is worth a hard stop.
    """
    if not sol.resonances:
        return "possibly_zero"
    point = dict(zip(g_field.variables, sol.locus))
    jac = g_field.jacobian
    v = sol.resonances[0].direction
    image = [sum((jac[i][j].evaluate(point) * v[j] for j in range(g_field.dim)),
                 Fraction(0))
             for i in range(g_field.dim)]
    verdict = "nonzero_certified" if any(image) else "possibly_zero"
    if flow is not None and verdict == "nonzero_certified" and not flow.ghat0:
        raise RuntimeError(
            "certificate says the shift coefficient is nonzero but the "
            "computed flow has ghat0 = 0; one of the two is wrong")
    return verdict


# ---------------------------------------------------------------------------
# exponent multisets and matching


def _sorted_multiset(values) -> tuple:
    return tuple(sorted(values, key=_canonical_key))


def _all_rational(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def _multisets_match(a, b, radius: float) -> bool:
    """Two all-rational multisets, canonical (_sorted_multiset), match as
    tuples; any others pair off value for value within radius."""
    if len(a) != len(b):
        return False
    if _all_rational(a) and _all_rational(b):
        return tuple(a) == tuple(b)
    remaining = [complex(v) for v in b]
    for v in map(complex, a):
        hit = next((i for i, w in enumerate(remaining)
                    if abs(v - w) <= radius * max(1.0, abs(w))), None)
        if hit is None:
            return False
        del remaining[hit]
    return True


def _contains(values, target, radius: float) -> bool:
    if _all_rational(values):
        return as_fraction(target) in values
    zt = complex(target)
    return any(abs(complex(v) - zt) <= radius * max(1.0, abs(zt))
               for v in values)


class LowerPool(tuple):
    """(point, canonical exponent multiset) pairs, indexed once: index maps
    each all-rational multiset to its positions, scan lists the others."""

    def __new__(cls, pairs):
        pool = super().__new__(cls, pairs)
        pool.index, pool.scan = {}, []
        for position, (_, multiset) in enumerate(pool):
            if _all_rational(multiset):
                pool.index.setdefault(multiset, []).append(position)
            else:
                pool.scan.append(position)
        return pool

    def matches(self, predicted: tuple, radius: float) -> tuple[tuple, ...]:
        """The points, in pool order, whose multiset matches predicted, a
        canonical multiset: one lookup and the scan when it is all-rational,
        else the whole pool."""
        if not _all_rational(predicted):
            return tuple(point for point, multiset in self
                         if _multisets_match(predicted, multiset, radius))
        hits = self.index.get(predicted, []) + [
            i for i in self.scan
            if _multisets_match(predicted, self[i][1], radius)]
        return tuple(self[i][0] for i in sorted(hits))


def lower_spectra(pairs: Sequence[tuple]) -> LowerPool:
    """(point, exponent multiset) for every lower locus of the ambient
    field, as the LowerPool the degeneration routes match against.

    pairs are kovalevskaya.spectra of F's locus search.  Exact loci are
    kept only when classified lower; numeric loci go in unfiltered since a
    principal multiset can never collide with a lower prediction anyway.
    """
    return LowerPool(
        (locus.point,
         spectrum.exponents.multiset() if locus.is_exact else spectrum)
        for locus, spectrum in pairs
        if not locus.is_exact or spectrum.classification == "lower")


@dataclass(frozen=True)
class Prediction:
    """One flow locus: the route that found it, its own exponent multiset,
    the multiset it predicts for the ambient field, and the pool points
    (lower_spectra) whose multiset matches; none means unmatched."""

    route: str
    locus: tuple
    exponents: tuple
    predicted: tuple
    matches: tuple[tuple, ...]
    diagnostics: dict


def _spectra(field: VectorField, certificate: WeightCertificate,
             rng_seed: int, tolerance: float,
             table: _ComponentTable | None) -> tuple[tuple, ...]:
    """spectra of find_loci on a flow subsystem or deformed field, () when
    it finds no locus."""
    try:
        return spectra(find_loci(field, certificate, rng_seed=rng_seed,
                                 tolerance=tolerance, table=table))
    except NoLocusFound:
        return ()


def degenerate_gamma1(pool: LowerPool, flow: ParamFlow, *, rng_seed: int = 0,
                      tolerance: float = DEFAULT_TOL,
                      table: _ComponentTable | None = None
                      ) -> tuple[Prediction, ...]:
    """Lower-family prediction for a degree-1 commuting flow.

    With gamma = 1 the pole position drifts at the constant rate ghat0
    and drops out of the indicial analysis: each locus xi of the
    parameter subsystem contributes the multiset {-1} union spec(K(xi)),
    the extra -1 coming from the pole direction itself.  The predictions
    are matched against pool, the ambient field's lower_spectra.
    rng_seed, tolerance and table (kovalevskaya's component table, fresh
    when None) go to the subsystem's locus search, whose spectra give the
    multisets, and float exponents match within _merge_radius(tolerance).
    """
    if flow.gamma != 1:
        raise ValueError("this route needs a degree-1 commuting flow")
    sub = flow.subsystem_field()
    sub_cert = WeightCertificate(flow.kappa, 1)
    radius = _merge_radius(tolerance)
    predictions = []
    for locus, spectrum in _spectra(sub, sub_cert, rng_seed, tolerance, table):
        if locus.is_exact:
            vals, pole = spectrum.exponents.multiset(), Fraction(-1)
            diag = {"universal_eigenpair": spectrum.eigenpair_verified}
        else:
            vals, pole, diag = spectrum, complex(-1), {}
        predicted = _sorted_multiset((pole,) + vals)
        predictions.append(Prediction("pole_shift", locus.point, vals, predicted,
                                      pool.matches(predicted, radius), diag))
    return tuple(predictions)


def _rescaled_matrix(cleared: VectorField, point: tuple,
                     g0_value: Fraction) -> ExactMatrix:
    """Closed-form exponent matrix at a rescaled flow locus, all exact.

    Rescaling alpha_i by the kappa_i-th power of the shift rate turns the
    flow's indicial system into the cleared polynomial system
    ghat_i + kappa_i alpha_i ghat0 = 0, and its exponent matrix into the
    Jacobian of that system over ghat0, both at the rescaled point.
    """
    assign = dict(zip(cleared.variables, point))
    return ExactMatrix([[entry.evaluate(assign) / g0_value for entry in row]
                        for row in cleared.jacobian])


def _conjugacy_ok(flow: ParamFlow, point: tuple, g0_value, predicted,
                  radius: float) -> bool:
    """Spectral check tying the direct route to the rescaled one.

    A diagonal conjugation carries the rescaled exponent matrix onto
    gamma times the parameter block plus a rank-one correction built at
    the raw locus; its spectrum must therefore reproduce the predicted
    multiset minus the one copy of -gamma the pole row contributes.
    """
    import numpy as np
    params = flow.parameters
    assign = {v: complex(p) for v, p in zip(params, point)}
    n = len(params)
    shift = complex(g0_value) * flow.gamma
    block = np.zeros((n, n), dtype=complex)
    grad0 = [complex(flow.ghat0.diff(v).evaluate(assign)) for v in params]
    for i, g in enumerate(flow.ghat):
        vi = flow.kappa[i] * complex(point[i])
        for j, v in enumerate(params):
            block[i, j] = (complex(g.diff(v).evaluate(assign))
                           + vi * grad0[j] / shift)
        block[i, i] += flow.kappa[i] / flow.gamma
    spectrum = [flow.gamma * z for z in np.linalg.eigvals(block)]
    target = list(predicted)
    for idx, value in enumerate(target):
        if abs(complex(value) + flow.gamma) <= radius * max(1.0, flow.gamma):
            del target[idx]
            break
    else:
        return False
    return _multisets_match(spectrum, target, radius)


def degenerate_gamma_ge2(pool: LowerPool, flow: ParamFlow, *, rng_seed: int = 0,
                         tolerance: float = DEFAULT_TOL,
                         table: _ComponentTable | None = None
                         ) -> tuple[Prediction, ...]:
    """Lower-family prediction for commuting degree two or more, dual route.

    Exact route first: in rescaled coordinates the flow's indicial system
    becomes ghat_l + kappa_l alpha_l ghat0 = 0, solved over Q by
    find_loci's exact search on one component (``_component_points``);
    each solution with nonvanishing ghat0 yields the closed-form exponent
    matrix and the prediction spec union {-gamma}.  Then the direct
    route: the subsystem's own indicial loci (typically irrational, found
    numerically) and their spectra, read from kovalevskaya.spectra; the
    pole row adds -1/gamma (ParamFlow), and the prediction is gamma times
    that multiset.  Both routes land in the same tuple, matched against
    pool, the ambient field's lower_spectra; neither is allowed to stand
    in for the other.  rng_seed, tolerance and table (kovalevskaya's
    component table, fresh when None) go to the subsystem's locus search,
    and float exponents match within _merge_radius(tolerance).
    """
    gamma = flow.gamma
    if gamma < 2:
        raise ValueError("this route needs commuting degree at least 2")
    if not flow.ghat0:
        raise G0IdenticallyZero(
            "shift coefficient is identically zero; the rescaled flow "
            "does not exist")
    params = flow.parameters
    radius = _merge_radius(tolerance)
    predictions = []

    cleared = VectorField(params, tuple(
        g + MultiPoly.variable(v, params) * flow.ghat0 * k
        for g, v, k in zip(flow.ghat, params, flow.kappa)))
    points, complete = _component_points(cleared.components,
                                         range(len(params)), params)
    for point in points:
        value = flow.ghat0.evaluate(dict(zip(params, point)))
        if value == 0:
            continue
        matrix = _rescaled_matrix(cleared, point, value)
        vals = roots_exact_first(matrix.charpoly()).multiset()
        predicted = _sorted_multiset(vals + (Fraction(-gamma),))
        diag = {
            "g0_value": value,
            "minus_one_present": _contains(vals, Fraction(-1), radius),
            "search_complete": complete,
        }
        predictions.append(Prediction("rescale_exact", point, vals, predicted,
                                      pool.matches(predicted, radius), diag))

    sub = flow.subsystem_field()
    sub_cert = WeightCertificate(flow.kappa, gamma)
    for locus, spectrum in _spectra(sub, sub_cert, rng_seed, tolerance,
                                    table):
        g0_value = flow.ghat0.evaluate(dict(zip(params, locus.point)))
        if (g0_value == 0 if locus.is_exact
                else abs(complex(g0_value)) <= _MATCH_TOL):
            warnings.warn(
                "flow locus with vanishing shift coefficient skipped by "
                "the direct route",
                UnrescalableLocus, stacklevel=2)
            continue
        shift = gamma * g0_value
        rescaled = tuple(shift ** k * x
                         for k, x in zip(flow.kappa, locus.point))
        # the pole row's -1/gamma, then the subsystem's spectrum
        if locus.is_exact:
            vals = (Fraction(-1, gamma),) + spectrum.exponents.multiset()
        else:
            vals = (complex(-1 / gamma),) + spectrum
            snapped = tuple(snap_rational(x) for x in rescaled)
            if all(s is not None for s in snapped):
                rescaled = snapped
        predicted = _sorted_multiset([gamma * v for v in vals])
        verified = (all(isinstance(x, Fraction) for x in rescaled)
                    and _vanishes(cleared.components, params, rescaled)
                    and flow.ghat0.evaluate(dict(zip(params, rescaled))) != 0)
        diag = {
            "minus_one_present": _contains(vals, Fraction(-1), radius),
            "inverse_degree_present": _contains(vals, Fraction(-1, gamma),
                                                radius),
            "conjugacy_ok": _conjugacy_ok(flow, locus.point, g0_value,
                                          predicted, radius),
            "rescaled_point": rescaled,
            "matches_rescaled_exact": verified,
        }
        predictions.append(Prediction("flow_direct", locus.point,
                                      _sorted_multiset(vals), predicted,
                                      pool.matches(predicted, radius), diag))
    return tuple(predictions)


@dataclass(frozen=True)
class DeformationCheck:
    """Exponent multisets of F + G/(eps + k1) across deformation sizes.

    multisets[e] collects the sorted exponent multiset of every exact
    locus of the deformed field at epsilons[e]; realized[e] says whether
    the predicted lower multiset is among them (None when no prediction
    was supplied); stable means the collection is the same at every
    epsilon, which is the signature of a genuine degeneration rather
    than a coincidence at one parameter value.
    """

    epsilons: tuple[Fraction, ...]
    k1: Fraction
    multisets: tuple[tuple[tuple, ...], ...]
    realized: tuple[bool, ...] | None
    stable: bool


def deformed_field_check(field: VectorField, g_field: VectorField,
                         certificate: WeightCertificate, flow: ParamFlow,
                         epsilons: Sequence = (Fraction(1, 10), Fraction(1, 7),
                                               Fraction(1, 3)), *,
                         predicted: Sequence | None = None,
                         rng_seed: int = 0,
                         tolerance: float = DEFAULT_TOL,
                         table: _ComponentTable | None = None
                         ) -> DeformationCheck:
    """Probe the lower family by deforming F along the commuting direction.

    Only meaningful at commuting degree 1, where k1 = ghat0 is a constant
    and F + G/(eps + k1) is again degree-1 quasi-homogeneous.  An epsilon
    with eps + k1 = 0 makes the deformation undefined and is rejected.
    rng_seed and tolerance go to each deformed field's locus search, and
    float exponents match within _merge_radius(tolerance).

    Every deformed field is searched with table, kovalevskaya's component
    table (one for the whole call when None), and the spectra of its
    exact loci are read from the search.
    G/(eps + k1) changes only the components where G is nonzero, so a
    component it leaves unchanged, the same at every epsilon and the
    same as F's, is read from the table: its points are searched once, and
    its block spectra computed once, per table.  A component that G
    changes is searched unless the table holds its normalized form: where
    G = c F on it, it is a multiple of F's (``_ComponentTable``).
    """
    if flow.gamma != 1:
        raise ValueError("deformation check needs a degree-1 commuting flow")
    if flow.ghat0.total_degree() not in (None, 0):
        raise ValueError("shift coefficient is not constant; the support "
                         "law failed upstream")
    k1 = flow.ghat0.constant_term()
    eps_values = tuple(as_fraction(e) for e in epsilons)
    for eps in eps_values:
        if eps + k1 == 0:
            raise ValueError(
                f"epsilon {eps} hits the excluded value -k1 = {-k1}; "
                f"the deformed field is undefined there")

    table = _ComponentTable() if table is None else table
    radius = _merge_radius(tolerance)
    per_eps = []
    realized = [] if predicted is not None else None
    want = _sorted_multiset(predicted) if predicted is not None else None
    for eps in eps_values:
        scale = Fraction(1) / (eps + k1)
        deformed = VectorField(
            field.variables,
            tuple(f + g * scale
                  for f, g in zip(field.components, g_field.components)))
        collected = sorted(
            (report.exponents.multiset()
             for locus, report in _spectra(deformed, certificate, rng_seed,
                                           tolerance, table)
             if locus.is_exact),
            key=_canonical_key)
        per_eps.append(tuple(collected))
        if want is not None:
            realized.append(any(_multisets_match(want, ms, radius)
                                for ms in collected))

    stable = all(ms == per_eps[0] for ms in per_eps[1:])
    return DeformationCheck(
        epsilons=eps_values,
        k1=k1,
        multisets=tuple(per_eps),
        realized=tuple(realized) if realized is not None else None,
        stable=stable,
    )

