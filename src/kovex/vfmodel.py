"""Vector fields, weight certificates, Hamiltonian lifting, commutator checks.

A vector field is a tuple of polynomial components over a shared variable
tuple.  Weights live in separate certificate objects because one field can be
quasi-homogeneous for several unrelated weight vectors; the certificate is
what downstream analysis consumes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Mapping, Sequence

from .exactalg import ExactMatrix, MultiPoly, _component_points, _components
from .vfparse import ProblemSpec


class DimensionMismatchError(ValueError):
    """Two fields (or a field and a point) disagree about the phase space."""


class UnpairedVariableError(ValueError):
    """A Hamiltonian needs conjugate variable pairs (q1, p1, q2, p2, ...)."""


@dataclass(frozen=True)
class VectorField:
    """Polynomial vector field dx_i/dz = components[i](x)."""

    variables: tuple[str, ...]
    components: tuple[MultiPoly, ...]

    def __post_init__(self):
        vars_t = tuple(self.variables)
        comps = tuple(self.components)
        if len(comps) != len(vars_t):
            raise DimensionMismatchError(
                f"{len(comps)} components for {len(vars_t)} variables")
        fixed = []
        for poly in comps:
            extra = set(poly.vars) - set(vars_t)
            if extra:
                raise DimensionMismatchError(
                    f"component uses undeclared variables {sorted(extra)}")
            fixed.append(poly.embed(vars_t))
        object.__setattr__(self, "variables", vars_t)
        object.__setattr__(self, "components", tuple(fixed))

    @property
    def dim(self) -> int:
        return len(self.variables)

    def is_zero(self) -> bool:
        return not any(self.components)

    @cached_property
    def jacobian(self) -> tuple[tuple[MultiPoly, ...], ...]:
        """d components[i] / d variables[j], computed once per field."""
        return tuple(tuple(f.diff(v) for v in self.variables)
                     for f in self.components)

    def __str__(self) -> str:
        lines = [f"d{v}/dz = {f}" for v, f in zip(self.variables, self.components)]
        return "\n".join(lines)


@dataclass(frozen=True)
class WeightCertificate:
    """A weight vector and the common quasi-homogeneity degree it certifies."""

    weights: tuple[int, ...]
    degree: int


@dataclass(frozen=True)
class WeightCheckResult:
    ok: bool
    violations: tuple[tuple[int, tuple[int, ...]], ...]
    """(1-based component index, offending monomial exponent tuple) pairs."""


def off_weight(poly: MultiPoly, weights_by_name: Mapping[str, int],
               target: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of poly, sorted, whose weight is not target.

    A monomial prod_v v^{e_v} weighs sum_v w_v e_v.  This is the monomial
    law every weight check reads: f_i weighs a_i + degree under the field
    weights, and a series or flow coefficient weighs its order under the
    resonance orders.
    """
    ws = [weights_by_name[v] for v in poly.vars]
    return tuple(e for e in sorted(poly.terms) if _weight(ws, e) != target)


def _weight(weights: Sequence[int], exps: Sequence[int]) -> int:
    return sum(map(operator.mul, weights, exps))


def verify_weight(field: VectorField, certificate: WeightCertificate) -> WeightCheckResult:
    """Check the monomial law: every exponent tuple e of component i satisfies
    sum_j a_j e_j = a_i + degree.  Zero components are vacuously fine.

    By Euler's theorem the differential form of the law,
    sum_j a_j x_j df_i/dx_j = (a_i + degree) f_i, fails in exactly the
    components listed here."""
    weights = certificate.weights
    if len(weights) != field.dim:
        raise DimensionMismatchError("weight vector length mismatches the field")
    by_name = dict(zip(field.variables, weights))
    violations = tuple(
        (i + 1, exps)
        for i, poly in enumerate(field.components)
        for exps in off_weight(poly, by_name, weights[i] + certificate.degree))
    return WeightCheckResult(not violations, violations)


@dataclass(frozen=True)
class WeightFamily:
    """All admissible multiples of one primitive weight direction."""

    primitive: tuple[int, ...]
    members: tuple[WeightCertificate, ...]


@dataclass(frozen=True)
class WeightInference:
    families: tuple[WeightFamily, ...]
    degenerate: bool
    """degenerate means the zero field: every weight vector is admissible."""


def infer_weights(field: VectorField, max_weight: int = 12) -> WeightInference:
    """Every weight vector in [1..max_weight]^m admitting a uniform degree >= 1.

    The monomial law w . e - w_i = degree is linear in (degree, w), one row
    per monomial of f_i; eliminating the degree leaves the differences of
    w . e - w_i between monomials.  ExactMatrix.kernel solves it with one
    free coordinate per basis vector (the degree comes first and every row
    has it, so it is never free).  A lattice point of the kernel lies in
    [1..max_weight]^m only if its free coordinates do, so only those are
    enumerated: max_weight^k candidates for a kernel of dimension k, and
    k = 1 for uncoupled cubic, quartic and p4 blocks.  Results are grouped
    by primitive (gcd-reduced) direction since proportional weights
    certify the same scaling structure with different degrees.
    """
    if field.is_zero():
        return WeightInference((), True)

    rows = {(-1,) + tuple(x - (j == i) for j, x in enumerate(exps))
            for i, poly in enumerate(field.components) for exps in poly.terms}
    basis = ExactMatrix(sorted(rows)).kernel()
    admissible: list[WeightCertificate] = []
    for free in product(range(1, max_weight + 1), repeat=len(basis)):
        degree, *weights = (sum(t * v[c] for t, v in zip(free, basis))
                            for c in range(field.dim + 1))
        if degree >= 1 and all(w.denominator == 1 and 1 <= w <= max_weight
                               for w in weights):
            admissible.append(WeightCertificate(
                tuple(int(w) for w in weights), int(degree)))

    grouped: dict[tuple[int, ...], list[WeightCertificate]] = {}
    for cert in admissible:
        g = gcd(*cert.weights)
        primitive = tuple(w // g for w in cert.weights)
        grouped.setdefault(primitive, []).append(cert)
    families = tuple(
        WeightFamily(primitive, tuple(sorted(members, key=lambda c: c.weights)))
        for primitive, members in sorted(grouped.items()))
    return WeightInference(families, False)


def hamiltonian_to_field(h: MultiPoly, variables: Sequence[str]) -> VectorField:
    """Lift a Hamiltonian to its canonical field on interleaved (q, p) pairs.

    Variables are taken in declaration order as (q1, p1, q2, p2, ...); the
    components are dq_k/dz = dH/dp_k and dp_k/dz = -dH/dq_k.
    """
    vars_t = tuple(variables)
    if len(vars_t) % 2 != 0:
        raise UnpairedVariableError(
            f"need an even number of variables, got {len(vars_t)}")
    extra = set(h.vars) - set(vars_t)
    if extra:
        raise UnpairedVariableError(
            f"Hamiltonian uses undeclared variables {sorted(extra)}")
    h = h.embed(vars_t)
    components: list[MultiPoly] = []
    for k in range(0, len(vars_t), 2):
        q, p = vars_t[k], vars_t[k + 1]
        components.append(h.diff(p))
        components.append(-h.diff(q))
    return VectorField(vars_t, tuple(components))


def lie_bracket(f: VectorField, g: VectorField) -> VectorField:
    """[F, G]_i = sum_j (f_j dg_i/dx_j - g_j df_i/dx_j)."""
    if f.variables != g.variables:
        raise DimensionMismatchError(
            f"fields live on different spaces: {f.variables} vs {g.variables}")
    vars_t = f.variables
    components = []
    for i in range(f.dim):
        acc = MultiPoly.zero(vars_t)
        for j, v in enumerate(vars_t):
            acc = acc + f.components[j] * g.components[i].diff(v)
            acc = acc - g.components[j] * f.components[i].diff(v)
        components.append(acc)
    return VectorField(vars_t, tuple(components))


def commutes(f: VectorField, g: VectorField) -> bool:
    return lie_bracket(f, g).is_zero()


def field_degree(field: VectorField, weights: Sequence[int]) -> int | None:
    """The uniform quasi-homogeneity degree for the given weights, or None.

    The lowest monomial of the first nonzero component proposes the
    degree, and off_weight checks every component against it."""
    nonzero = [(w, poly) for w, poly in zip(weights, field.components) if poly]
    if not nonzero:
        return None
    w_first, first = nonzero[0]
    degree = _weight(weights, min(first.terms)) - w_first
    by_name = dict(zip(field.variables, weights))
    if any(off_weight(poly, by_name, w + degree) for w, poly in nonzero):
        return None
    return degree


@dataclass(frozen=True)
class ZeroSetCheck:
    """Is the origin the only zero of the field?

    status is "ok" (certified), "counterexample" (witness holds a nonzero
    exact zero of the field), or "undecided" (the exact search could not
    enumerate the zero set completely).
    """

    status: str
    witness: tuple[Fraction, ...] | None = None


def check_zero_set(field: VectorField) -> ZeroSetCheck:
    """Whether the origin is F's only zero, by find_loci's exact search on
    each component of F (``exactalg._components``, ``_component_points``).

    A component's equations read only its coordinates and vanish at its
    zero, so a nonzero point of one component, the others at zero, is a
    zero of F: the smallest is the counterexample witness.  A nonzero
    zero of F is nonzero on some component and solves there the saturated
    system of its zero pattern, which the support rule leaves (a pruned
    pattern has an equation with one term nonzero on its torus).  So when
    every surviving pattern's solve is complete and none has a nonzero
    point, the status is "ok".  Anything else (an open solve, free
    parameters, or leaves: irrational zeros) is "undecided".
    """
    eqs = field.components
    searches = [_component_points(eqs, component, field.variables)
                for component in _components(eqs)]
    nonzero = [p for points, _ in searches for p in points if any(p)]
    if nonzero:
        return ZeroSetCheck("counterexample", min(nonzero))
    complete = all(complete for _, complete in searches)
    return ZeroSetCheck("ok" if complete else "undecided")


def fields_from_problem(spec: ProblemSpec) -> tuple[VectorField, VectorField | None]:
    """Materialize the field (and the commuting field if declared)."""
    if spec.f_components is not None:
        f = VectorField(spec.variables, spec.f_components)
    else:
        f = hamiltonian_to_field(spec.h_f, spec.variables)
    g = None
    if spec.g_components is not None:
        g = VectorField(spec.variables, spec.g_components)
    elif spec.h_g is not None:
        g = hamiltonian_to_field(spec.h_g, spec.variables)
    return f, g
