"""Truncated Laurent-series solutions with symbolic free parameters.

A degree-1 field with an exact indicial locus c admits the ansatz
y_i(T) = T^{-a_i} sum_j d_{i,j} T^j with d_{i,0} = c_i.  Matching orders
gives (K(c) - jI) d_j = -N_j where N_j collects the nonlinear part built
from lower coefficients.  At a resonance (j a positive integer eigenvalue
of K) the matrix is singular: consistent systems introduce one free
parameter per kernel direction, inconsistent ones are obstructions (the
log-modified continuation is out of scope here and the series beyond the
first obstruction is marked non-authoritative).

Everything is exact: coefficients are polynomials over Q in the parameters
alpha1, alpha2, ... introduced at the resonances, and the pole position
never appears in them.  Each order costs one elimination of K(c) - jI,
whose row transform is applied to the polynomial vector N_j as a whole;
the same solve yields d_j and, on the rows past the rank, exactly the
alpha-monomials of N_j that make the system inconsistent.

The recursion is incremental, as in Taylor-series integrators.  Every
monomial of the field is a chain of prefix products (q1, q1^2, q1^2*p2,
...), and one truncated series per distinct prefix is kept for the length
of a call.  At order j each prefix gains one Cauchy coefficient, first
with the unknown d_j taken as 0, which yields N_j, and then corrected by
its part linear in d_j once d_j is solved.  An order costs O(j) parameter
polynomial products per prefix, so a series through N costs O(N^2) of
them, where re-expanding every monomial from order 0 at every order cost
O(N^3) per factor.  g_expansion drives the same cache in one forward pass.

residual_order deliberately keeps the from-scratch expansion
(_field_orders): it is the oracle that checks the recursion, so it must
not share the code it checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exactalg import ExactMatrix, MultiPoly
from .kovalevskaya import exact_point, k_exponents
from .vfmodel import VectorField, WeightCertificate, verify_weight

__all__ = [
    "LaurentSolution",
    "ResonanceRecord",
    "SeriesClass",
    "TruncationBelowResonance",
    "build_series",
    "classify",
    "qh_coefficient_check",
    "residual_order",
    "poly_json",
    "series_json",
]


class TruncationBelowResonance(UserWarning):
    """Truncation order cuts off before the largest resonance."""


@dataclass(frozen=True)
class ResonanceRecord:
    """One free parameter: enters at ``order`` along ``direction``.

    The anchor is the lowest component index where the direction does not
    vanish; the gauge normalizes that entry to 1 and clears both every
    other parameter direction and the particular solution there, so
    d_{anchor, order} is literally the bare parameter.
    """

    order: int
    parameter: str
    anchor: int
    direction: tuple[Fraction, ...]


@dataclass(frozen=True)
class SeriesClass:
    kind: str
    parameters: int
    first_obstruction: int | None

    def __str__(self) -> str:
        if self.kind == "principal":
            return "principal"
        if self.kind == "lower":
            return f"lower({self.parameters})"
        return f"obstructed({self.first_obstruction})"


@dataclass(frozen=True)
class LaurentSolution:
    """Truncated series y_i = T^{-a_i} sum_{j<=N} d_{i,j} T^j."""

    locus: tuple[Fraction, ...]
    weights: tuple[int, ...]
    truncation: int
    parameters: tuple[str, ...]
    coefficients: tuple[tuple[MultiPoly, ...], ...]
    resonances: tuple[ResonanceRecord, ...]
    obstructions: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.locus)

    @property
    def authoritative_through(self) -> int:
        if not self.obstructions:
            return self.truncation
        return min(self.obstructions) - 1

    def coefficient(self, i: int, j: int) -> MultiPoly:
        """d_{i,j} with i a 0-based component index."""
        return self.coefficients[i][j]

    def resonance_orders(self) -> tuple[int, ...]:
        return tuple(r.order for r in self.resonances)


class _PrefixSeries:
    """Truncated series of every monomial prefix of a field, order by order.

    A monomial prod_l y_l^{e_l} is multiplied out one factor at a time,
    lowest variable first.  Each partial product (a prefix) is keyed by its
    exponent vector, so q1, q1^2, q1^3, ... are expanded once and shared
    by every monomial and component that starts with them.  series[l] is
    the pole-stripped coefficient list of y_l; the caller may append to it
    between orders.
    """

    def __init__(self, field: VectorField,
                 series: Sequence[Sequence[MultiPoly]]):
        self.series = series
        self.root = (0,) * field.dim
        # prefix -> (parent prefix, variable multiplied in); insertion
        # order puts every parent before its children
        self.links: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        self.monomials: list[list[tuple[tuple[int, ...], Fraction]]] = []
        for comp in field.components:
            idx = [field.variables.index(v) for v in comp.vars]
            row = []
            for exps, c in comp.terms.items():
                full = [0] * field.dim
                for k, v_i in enumerate(idx):
                    full[v_i] = exps[k]
                row.append((self._register(full), c))
            self.monomials.append(row)
        self.coeffs: dict[tuple[int, ...], list[MultiPoly]] = {
            key: [] for key in self.links}
        self.coeffs[self.root] = [MultiPoly.constant(1)]

    def _register(self, exps: Sequence[int]) -> tuple[int, ...]:
        key = [0] * len(exps)
        parent = tuple(key)
        for l, e in enumerate(exps):
            for _ in range(e):
                key[l] += 1
                child = tuple(key)
                self.links.setdefault(child, (parent, l))
                parent = child
        return parent

    def advance(self, j: int) -> list[MultiPoly]:
        """Append coefficient j of every prefix; return order j of each f_i.

        Coefficients of y missing from series count as zero, so with
        series[l] ending at order j-1 this is the order-j coefficient with
        the unknown d_j taken as 0 (settle adds its part afterwards); with
        order j known it is the full Cauchy coefficient.
        """
        coeffs = self.coeffs
        for key, (parent, l) in self.links.items():
            left, right = coeffs[parent], self.series[l]
            lo, hi = max(0, j - len(right) + 1), min(j, len(left) - 1)
            total = MultiPoly.zero()
            for i in range(lo, hi + 1):
                a, b = left[i], right[j - i]
                if a and b:
                    total = total + a * b
            coeffs[key].append(total)
        out = []
        for row in self.monomials:
            total = MultiPoly.zero()
            for key, c in row:
                prefix = coeffs[key]
                # only the root (a constant monomial) stops at order 0
                if len(prefix) > j:
                    total = total + prefix[j] * c
            out.append(total)
        return out

    def settle(self, j: int) -> None:
        """Add the d_j part to coefficient j of every prefix.

        Call after advance(j) ran without d_j and d_j has been appended to
        series.  Coefficient j of a prefix P = Q y_l is linear in d_j:
        P_j - P_j|_{d_j=0} = Q_0 d_{l,j} + (Q_j - Q_j|_{d_j=0}) c_l.
        """
        coeffs = self.coeffs
        delta = {self.root: MultiPoly.zero()}
        for key, (parent, l) in self.links.items():
            right = self.series[l]
            change = coeffs[parent][0] * right[j]
            if delta[parent] and right[0]:
                change = change + delta[parent] * right[0]
            delta[key] = change
            if change:
                coeffs[key][j] = coeffs[key][j] + change


def _mul_trunc(a: list, b: list, cap: int) -> list:
    out: list = [MultiPoly.zero() for _ in range(cap + 1)]
    for i, left in enumerate(a[:cap + 1]):
        if not left:
            continue
        for k, right in enumerate(b[:cap + 1 - i]):
            if not right:
                continue
            out[i + k] = out[i + k] + left * right
    return out


def _monomial_series(coefficient: Fraction, exps: Sequence[int],
                     partials: list[list], cap: int) -> list:
    """Truncated expansion of coeff * prod_l y_l^{e_l} with poles stripped."""
    acc = [MultiPoly.constant(coefficient)]
    for l, e in enumerate(exps):
        for _ in range(e):
            acc = _mul_trunc(acc, partials[l], cap)
    return acc + [MultiPoly.zero()] * (cap + 1 - len(acc))


def _field_orders(field: VectorField, partials: list[list],
                  cap: int) -> list[list]:
    """Coefficients of T^{a_i+1} f_i(y) through T^cap, one list per i.

    Expands every monomial from order 0 with full truncated products.
    Only residual_order uses it: it is the independent oracle for the
    incremental recursion in _PrefixSeries and shares no code with it.
    """
    out = []
    for comp in field.components:
        total = [MultiPoly.zero() for _ in range(cap + 1)]
        idx = [field.variables.index(v) for v in comp.vars]
        for exps, c in comp.terms.items():
            full = [0] * field.dim
            for k, v_i in enumerate(idx):
                full[v_i] = exps[k]
            term = _monomial_series(c, full, partials, cap)
            total = [t + u for t, u in zip(total, term)]
        out.append(total)
    return out


def build_series(field: VectorField, certificate: WeightCertificate, locus,
                 truncation: int | None = None) -> LaurentSolution:
    """Run the order-by-order recursion at an exact locus.

    Each order is one exact solve of (K(c) - jI) d_j = -N_j with the
    polynomial right-hand side taken whole (ExactMatrix.solve_singular).
    The residue of that solve names the alpha-monomials whose system is
    inconsistent: they are dropped from d_j and the order is recorded as
    an obstruction, and the recursion keeps going so later structure
    stays visible.  Where K(c) - jI is singular, free parameters enter
    along its kernel with the anchor gauge described on ResonanceRecord.
    """
    if certificate.degree != 1:
        raise ValueError("series construction needs a degree-1 field")
    if not verify_weight(field, certificate).ok:
        raise ValueError("weight certificate does not match the field")
    point = exact_point(locus)
    report = k_exponents(field, certificate, point)
    m = field.dim

    resonant_orders = sorted(
        int(r) for r, _ in report.exponents.rational_roots
        if r > 0 and r.denominator == 1)
    if truncation is None:
        truncation = (2 * max(resonant_orders) if resonant_orders
                      else max(certificate.weights) + 1)
    if truncation < 1:
        raise ValueError("truncation must be a positive order")
    if resonant_orders and truncation < max(resonant_orders):
        warnings.warn(
            f"truncation {truncation} stops before the largest resonance "
            f"{max(resonant_orders)}; parameters beyond it are lost",
            TruncationBelowResonance, stacklevel=2)

    coeffs: list[list[MultiPoly]] = [[MultiPoly.constant(c)] for c in point]
    resonances: list[ResonanceRecord] = []
    obstructions: list[int] = []
    prefixes = _PrefixSeries(field, coeffs)
    prefixes.advance(0)

    for j in range(1, truncation + 1):
        # d_j is not in coeffs yet, so this is N_j: order j with d_j = 0
        rhs = [n * -1 for n in prefixes.advance(j)]
        union = tuple(sorted(set().union(*(p.vars for p in rhs))))
        shifted = report.matrix - ExactMatrix.identity(m) * j
        d_j, residue = shifted.solve_singular([p.embed(union) for p in rhs])
        inconsistent = set().union(*(r.terms for r in residue))
        if inconsistent:
            obstructions.append(j)
            d_j = [MultiPoly(union, {e: c for e, c in p.terms.items()
                                     if e not in inconsistent})
                   for p in d_j]
        if residue:
            # K(c) - jI is singular.  Reduced row echelon form of its
            # kernel gives the anchor gauge directly: each direction is 1
            # at its own anchor and 0 at every other direction's anchor,
            # so each step leaves the bare parameter at its anchor.
            reduced, anchors = ExactMatrix(list(shifted.kernel())).rref()
            for anchor, direction in zip(anchors, reduced.data):
                name = f"alpha{len(resonances) + 1}"
                resonances.append(ResonanceRecord(j, name, anchor, direction))
                step = MultiPoly.variable(name) - d_j[anchor]
                d_j = [x + step * d if d else x
                       for x, d in zip(d_j, direction)]

        for i in range(m):
            coeffs[i].append(d_j[i])
        prefixes.settle(j)

    return LaurentSolution(
        locus=point,
        weights=tuple(certificate.weights),
        truncation=truncation,
        parameters=tuple(r.parameter for r in resonances),
        coefficients=tuple(tuple(row) for row in coeffs),
        resonances=tuple(resonances),
        obstructions=tuple(obstructions),
    )


def classify(sol: LaurentSolution) -> SeriesClass:
    """Parameter-count verdict on a computed series.

    principal means every parameter slot is realized: the pole position
    plus one symbolic parameter per dimension beyond the first.  Any
    obstruction wins over counting, since the series stops being a pure
    power family there.
    """
    count = 1 + len(sol.parameters)
    if sol.obstructions:
        return SeriesClass("obstructed", count, min(sol.obstructions))
    if count == sol.dim:
        return SeriesClass("principal", count, None)
    return SeriesClass("lower", count, None)


def qh_coefficient_check(sol: LaurentSolution) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Monomial support law: every alpha-monomial of d_{i,j} weighs j.

    The weight of a parameter is its resonance order, so a monomial
    alpha^n contributes sum_l n_l kappa_l and must land exactly at j.
    Returns the violations as (component, order, exponent) triples; empty
    means the computed support matches the scaling structure.
    """
    kappa = {r.parameter: r.order for r in sol.resonances}
    violations = []
    for i, row in enumerate(sol.coefficients):
        for j, poly in enumerate(row):
            if j == 0 or not poly:
                continue
            for exps in poly.terms:
                weight = sum(n * kappa[v] for n, v in zip(exps, poly.vars))
                if weight != j:
                    violations.append((i, j, exps))
    return tuple(violations)


def residual_order(field: VectorField, certificate: WeightCertificate,
                   sol: LaurentSolution) -> int | None:
    """Lowest order with a nonzero back-substitution defect, if any.

    The defect of component i is T^{a_i+1} (y_i' - f_i(y)) expanded with
    the computed coefficients; with exact arithmetic every order at or
    below the point where truncation noise enters must vanish identically
    in the parameters.  None means no defect through the truncation order.
    """
    cap = sol.truncation
    partials = [list(row) for row in sol.coefficients]
    orders = _field_orders(field, partials, cap)
    first = None
    for i in range(field.dim):
        a_i = certificate.weights[i]
        for j in range(cap + 1):
            derivative = sol.coefficients[i][j] * (j - a_i)
            defect = derivative - orders[i][j]
            if defect:
                if first is None or j < first:
                    first = j
                break
    return first


def poly_json(poly: MultiPoly, position: Mapping[str, int]) -> dict[str, str]:
    """One parameter polynomial in the exact wire format.

    position maps each parameter name to its slot; keys are the
    comma-joined exponent vectors over all slots, values rational strings.
    """
    out = {}
    for exps, c in sorted(poly.terms.items()):
        full = [0] * len(position)
        for v, e in zip(poly.vars, exps):
            if e:
                full[position[v]] = e
        out[",".join(str(e) for e in full)] = str(Fraction(c))
    return out


def series_json(sol: LaurentSolution) -> list[dict]:
    """Coefficients in a stable, exact wire format.

    One entry per nonzero d_{i,j} with 1-based component index; the
    polynomial is poly_json over sol.parameters, in order.
    """
    position = {v: k for k, v in enumerate(sol.parameters)}
    return [{"i": i + 1, "j": j, "polynomial": poly_json(poly, position)}
            for i, row in enumerate(sol.coefficients)
            for j, poly in enumerate(row) if poly]
