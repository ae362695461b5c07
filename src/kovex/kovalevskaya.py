"""Indicial loci and Kovalevskaya exponents of quasi-homogeneous fields.

A balance of a weight-(a_1..a_m) field of degree g is a nonzero point x*
solving g*f_i(x*) + a_i*x*_i = 0 (for degree 1 this is the classical
indicial equation, for degree g >= 2 the Puiseux variant).  The spectrum
of the matrix Df(x*) + diag(a_i/g) decides whether a pole-like series
through x* can carry a full set of free parameters.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactalg import (
    DEFAULT_TOL,
    ExactMatrix,
    MultiPoly,
    RootSet,
    as_fraction,
    roots_exact_first,
    snap_rational,
    solve_poly_system,
)
from .vfmodel import VectorField, WeightCertificate

_NEWTON_MAX_ITER = 60
_NEWTON_BLOWUP = 1e8
_DEDUP_TOL = 1e-8


class NoLocusFound(RuntimeError):
    """Every search strategy came back empty."""


class InexactLocusError(ValueError):
    """Operation needs exact rational coordinates but got a numeric locus."""


@dataclass(frozen=True)
class IndicialLocus:
    """One balance point.

    exactness is "exact" (rational coordinates, zero residual) or "numeric"
    (complex coordinates, residual below tolerance).  source records which
    strategy produced it: "user_seed", "newton" or "structured_search".
    """

    point: tuple
    exactness: str
    source: str

    @property
    def is_exact(self) -> bool:
        return self.exactness == "exact"


@dataclass(frozen=True)
class LocusSearch:
    loci: tuple[IndicialLocus, ...]
    strategies: tuple[str, ...]


@dataclass(frozen=True)
class KExponentReport:
    """Exponent spectrum at one exact locus.

    classification is provisional: "principal" means the spectrum passes the
    classical test (one -1, the rest nonnegative integers after scaling by
    the degree, semisimple at repeated resonances); the series construction
    downstream is the authority on the parameter count.
    """

    matrix: ExactMatrix
    exponents: RootSet
    minus_one_eigenvector: tuple[Fraction, ...]
    eigenpair_verified: bool
    has_zero_exponent: bool
    classification: str
    semisimple_at_resonances: bool
    degree: int


def indicial_system(field: VectorField,
                    certificate: WeightCertificate) -> tuple[MultiPoly, ...]:
    """Polynomials whose common nonzero roots are the indicial loci.

    For degree g the defining relation -(a_i/g)x_i = f_i(x) is cleared of
    denominators, so the equations are g*f_i(x) + a_i*x_i = 0.
    """
    gamma = certificate.degree
    out = []
    for i, comp in enumerate(field.components):
        x_i = MultiPoly.variable(field.variables[i], field.variables)
        out.append(comp * gamma + x_i * certificate.weights[i])
    return tuple(out)


def verify_locus(field: VectorField, certificate: WeightCertificate,
                 point: Sequence) -> bool:
    """Exact residual test of the indicial equations at a rational point."""
    return _vanishes(indicial_system(field, certificate), field.variables,
                     point)


def _vanishes(eqs: Sequence[MultiPoly], variables: Sequence[str],
              point: Sequence) -> bool:
    values = {v: as_fraction(p) for v, p in zip(variables, point)}
    return all(eq.evaluate(values) == 0 for eq in eqs)


def exact_point(locus) -> tuple[Fraction, ...]:
    """Rational coordinates of a locus or bare point, or InexactLocusError."""
    point = locus.point if isinstance(locus, IndicialLocus) else tuple(locus)
    try:
        return tuple(as_fraction(x) for x in point)
    except TypeError:
        raise InexactLocusError(
            "exact rational coordinates required; refine or snap the locus first")


def kovalevskaya_matrix(field: VectorField, certificate: WeightCertificate,
                        locus) -> ExactMatrix:
    """Df at the locus plus diag(a_i / degree), all entries exact."""
    point = exact_point(locus)
    values = dict(zip(field.variables, point))
    jac = field.jacobian()
    gamma = certificate.degree
    m = field.dim
    rows = [[jac[i][j].evaluate(values)
             + (Fraction(certificate.weights[i], gamma) if i == j else 0)
             for j in range(m)] for i in range(m)]
    return ExactMatrix(rows)


def _semisimple_at(matrix: ExactMatrix, eigenvalue: Fraction,
                   algebraic: int) -> bool:
    if algebraic == 1:
        return True
    shifted = matrix - ExactMatrix.identity(matrix.nrows) * eigenvalue
    geometric = matrix.nrows - shifted.rank()
    return geometric == algebraic


def _classify(matrix: ExactMatrix, roots: RootSet,
              gamma: int) -> tuple[str, bool, bool]:
    """(classification, semisimple at positive resonances, zero present)."""
    has_zero = any(r == 0 for r, _ in roots.rational_roots)
    semisimple = all(
        _semisimple_at(matrix, r, mult)
        for r, mult in roots.rational_roots
        if r > 0 and (r * gamma).denominator == 1)
    if not roots.is_fully_rational:
        return "non_painleve", semisimple, has_zero
    scaled = [(r * gamma, mult) for r, mult in roots.rational_roots]
    if any(s.denominator != 1 for s, _ in scaled):
        return "non_painleve", semisimple, has_zero
    minus_one = sum(mult for r, mult in roots.rational_roots if r == -1)
    if minus_one == 0:
        return "non_painleve", semisimple, has_zero
    others_nonneg = all(r >= 0 for r, _ in roots.rational_roots if r != -1)
    if minus_one == 1 and others_nonneg:
        return ("principal" if semisimple else "non_painleve",
                semisimple, has_zero)
    return "lower", semisimple, has_zero


def k_exponents(field: VectorField, certificate: WeightCertificate, locus, *,
                tolerance: float = DEFAULT_TOL) -> KExponentReport:
    """Spectrum of the Kovalevskaya matrix at an exact locus.

    Eigenvalues come from the characteristic polynomial with the rational
    ones extracted exactly, so integrality questions are decided without
    floating-point doubt.  The universal eigenpair (eigenvalue -1,
    eigenvector (a_i x_i)) is re-verified by an exact matrix-vector product.
    """
    point = exact_point(locus)
    if not verify_locus(field, certificate, point):
        raise ValueError("point does not satisfy the indicial equations")
    matrix = kovalevskaya_matrix(field, certificate, point)
    roots = roots_exact_first(matrix.charpoly(), tol=tolerance)
    vector = tuple(Fraction(a) * c
                   for a, c in zip(certificate.weights, point))
    verified = (any(vector)
                and matrix.matvec(vector) == tuple(-v for v in vector))
    classification, semisimple, has_zero = _classify(
        matrix, roots, certificate.degree)
    return KExponentReport(
        matrix=matrix,
        exponents=roots,
        minus_one_eigenvector=vector,
        eigenpair_verified=verified,
        has_zero_exponent=has_zero,
        classification=classification,
        semisimple_at_resonances=semisimple,
        degree=certificate.degree,
    )


def numeric_exponents(field: VectorField, certificate: WeightCertificate,
                      point: Sequence[complex]) -> tuple[complex, ...]:
    """Floating-point exponents at a numeric locus, sorted by (re, im)."""
    values = {v: complex(p) for v, p in zip(field.variables, point)}
    jac = field.jacobian()
    m = field.dim
    mat = np.array([[complex(jac[i][j].evaluate(values))
                     + (certificate.weights[i] / certificate.degree
                        if i == j else 0.0)
                     for j in range(m)] for i in range(m)])
    return tuple(sorted(np.linalg.eigvals(mat),
                        key=lambda z: (z.real, z.imag)))


def _compile_system(polys: Sequence[MultiPoly], variables: Sequence[str]):
    """Closure evaluating the system on a batch of complex points via numpy.

    The returned function maps an array of shape (batch, m) to residual
    values of shape (batch, len(polys)).
    """
    prepared = []
    for poly in polys:
        if not poly:
            prepared.append(None)
            continue
        idx = [variables.index(v) for v in poly.vars]
        exps = []
        coefs = []
        for e, c in poly.terms.items():
            row = [0] * len(variables)
            for k, v_i in enumerate(idx):
                row[v_i] = e[k]
            exps.append(row)
            coefs.append(complex(c))
        prepared.append((np.array(exps, dtype=np.int64),
                         np.array(coefs, dtype=np.complex128)))

    def evaluate(points: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(points).astype(np.complex128)
        out = np.zeros((batch.shape[0], len(prepared)), dtype=np.complex128)
        for k, entry in enumerate(prepared):
            if entry is None:
                continue
            exps, coefs = entry
            out[:, k] = np.prod(batch[:, np.newaxis, :] ** exps[np.newaxis],
                                axis=2) @ coefs
        return out

    return evaluate


def _newton_refine(eval_f, eval_jac, starts: np.ndarray, free: np.ndarray,
                   tolerance: float) -> list[np.ndarray]:
    """Damped-free Newton on a batch of starts; returns the converged points.

    Only the coordinates listed in ``free`` move, so zero-pattern clamps are
    preserved exactly.  Diverging starts (non-finite or beyond the blowup
    radius) are dropped; the rest iterate until the residual max-norm falls
    below tolerance or the iteration budget runs out.
    """
    points = np.atleast_2d(starts).astype(np.complex128).copy()
    m = points.shape[1]
    alive = np.ones(points.shape[0], dtype=bool)
    converged: list[np.ndarray] = []
    for _ in range(_NEWTON_MAX_ITER):
        if not alive.any():
            break
        batch = points[alive]
        residual = eval_f(batch)
        error = np.max(np.abs(residual), axis=1)
        done = error <= tolerance
        if done.any():
            converged.extend(batch[done])
            keep = np.where(alive)[0][done]
            alive[keep] = False
            batch = points[alive]
            if batch.shape[0] == 0:
                break
            residual = eval_f(batch)
        jac = eval_jac(batch).reshape(-1, m, m)[:, :, free]
        step = -(np.linalg.pinv(jac) @ residual[:, :, np.newaxis])[:, :, 0]
        batch[:, free] += step
        points[alive] = batch
        bad = (~np.all(np.isfinite(batch), axis=1)
               | (np.max(np.abs(batch), axis=1) > _NEWTON_BLOWUP))
        if bad.any():
            alive[np.where(alive)[0][bad]] = False
    if alive.any():
        batch = points[alive]
        error = np.max(np.abs(eval_f(batch)), axis=1)
        converged.extend(batch[error <= tolerance])
    return converged


def _snap_point(z: np.ndarray) -> tuple[Fraction, ...] | None:
    snapped = []
    for value in z:
        candidate = snap_rational(complex(value))
        if candidate is None:
            return None
        snapped.append(candidate)
    return tuple(snapped)


def _close(a: Sequence[complex], b: Sequence[complex], tol: float) -> bool:
    return max(abs(complex(x) - complex(y)) for x, y in zip(a, b)) <= tol


def _divide_out_monomial(poly: MultiPoly) -> MultiPoly:
    """poly divided by the largest monomial that divides it."""
    if not poly:
        return poly
    low = tuple(map(min, zip(*poly.terms)))
    if not any(low):
        return poly
    return MultiPoly(poly.vars, {tuple(map(operator.sub, e, low)): c
                                 for e, c in poly.terms.items()})


def find_loci(field: VectorField, certificate: WeightCertificate,
              seeds: Sequence[Sequence[float]] = (), *,
              newton_starts: int = 64, rng_seed: int = 0,
              tolerance: float = DEFAULT_TOL,
              dedup_tol: float = _DEDUP_TOL,
              max_branches: int = 512) -> LocusSearch:
    """Hunt for indicial loci, exact strategies first, in this order.

    1. User seeds are snapped to rationals and verified exactly; failing
       that they start a Newton run.
    2. Structured search: per zero pattern (a choice of coordinates clamped
       to zero, the others nonzero), each clamped equation is divided by
       the largest monomial in the free coordinates that divides it (the
       saturation by the coordinate monomials, so ``q + u q^2 + 2v pq``
       becomes ``1 + u q + 2v p``), and the saturated system is handed to
       the exact solver; every returned point is certified against the
       full indicial system.  A solution with a free coordinate at zero
       is dropped here and found by the pattern that clamps it.
    3. Newton multistart, only on the zero patterns the exact solver left
       incomplete: ``newton_starts`` pseudo-random complex starts each,
       refined to ``tolerance``, then snapped and re-verified exactly.
       Reproducible through ``rng_seed``.

    A complete exact solve has listed every complex solution of its
    saturated system, that is every solution of the clamped system with
    the free coordinates nonzero, all of them rational and already
    recorded; a solution with more coordinates at zero belongs to another
    pattern.  So Newton could only approximate recorded points again, and
    such a pattern gets no Newton run.  Its starts are still drawn, so the
    starts of every other pattern stay the same.  A point is recorded with
    the first strategy that finds it, so an exact locus that both the
    structured search and Newton reach is reported as
    ``structured_search``.  Numeric loci that snap and verify are upgraded
    to exact.  No claim of completeness is made; the strategies that ran
    are listed in the result, ``newton`` only when it ran on at least one
    pattern.
    """
    m = field.dim
    eqs = indicial_system(field, certificate)
    eval_f = _compile_system(eqs, field.variables)
    jac_polys = [entry for i in range(m)
                 for entry in (eqs[i].diff(v) for v in field.variables)]
    eval_jac = _compile_system(jac_polys, field.variables)

    exact: list[tuple[tuple[Fraction, ...], str]] = []
    numeric: list[tuple[tuple[complex, ...], str]] = []
    strategies: list[str] = []

    degree = max((eq.total_degree() or 1) for eq in eqs)

    def residual_ok(z: np.ndarray) -> bool:
        scale = max(1.0, float(np.max(np.abs(z))) ** degree)
        return float(np.max(np.abs(eval_f(z)))) <= tolerance * scale

    def register_exact(point: tuple[Fraction, ...], source: str) -> None:
        if any(point) and all(p != point for p, _ in exact):
            exact.append((point, source))

    def register_numeric(z: np.ndarray, source: str) -> None:
        if float(np.max(np.abs(z))) <= dedup_tol:
            return
        snapped = _snap_point(z)
        if snapped is not None and _vanishes(eqs, field.variables, snapped):
            register_exact(snapped, source)
            return
        if not residual_ok(z):
            return
        point = tuple(complex(v) for v in z)
        known = [p for p, _ in exact] + [p for p, _ in numeric]
        if not any(_close(point, p, dedup_tol) for p in known):
            numeric.append((point, source))

    if seeds:
        strategies.append("user_seed")
        for seed in seeds:
            if len(seed) != m:
                raise ValueError(
                    f"seed has {len(seed)} coordinates, field has {m}")
            start = np.asarray(seed, dtype=complex)
            snapped = _snap_point(start)
            if (snapped is not None
                    and _vanishes(eqs, field.variables, snapped)):
                register_exact(snapped, "user_seed")
                continue
            for refined in _newton_refine(eval_f, eval_jac, start[np.newaxis],
                                          np.arange(m), tolerance):
                register_numeric(refined, "user_seed")

    patterns = [p for p in itertools.product((False, True), repeat=m)
                if not all(p)]

    strategies.append("structured_search")
    solved: list[bool] = []
    for pattern in patterns:
        clamped = []
        for eq in eqs:
            zeroed = {v: 0 for v, z in zip(field.variables, pattern)
                      if z and v in eq.vars}
            clamped.append(_divide_out_monomial(
                eq.substitute(zeroed) if zeroed else eq))
        free_vars = [v for v, z in zip(field.variables, pattern) if not z]
        result = solve_poly_system(clamped, free_vars, max_branches)
        solved.append(result.complete)
        for partial in result.points:
            filled = dict(zip(free_vars, partial))
            point = tuple(filled.get(v, Fraction(0)) for v in field.variables)
            if _vanishes(eqs, field.variables, point):
                register_exact(point, "structured_search")

    if newton_starts > 0:
        rng = np.random.default_rng(rng_seed)
        for pattern, complete in zip(patterns, solved):
            free = np.array([i for i, z in enumerate(pattern) if not z])
            starts = np.zeros((newton_starts, m), dtype=np.complex128)
            # drawn for every pattern, so a pattern's starts do not depend
            # on which earlier patterns the exact solver settled
            starts[:, free] = (rng.standard_normal((newton_starts, len(free)))
                               + 1j * rng.standard_normal((newton_starts,
                                                           len(free))))
            if complete:
                continue
            if "newton" not in strategies:
                strategies.append("newton")
            for refined in _newton_refine(eval_f, eval_jac, starts, free,
                                          tolerance):
                register_numeric(refined, "newton")

    loci = [IndicialLocus(p, "exact", src) for p, src in exact]
    loci.extend(IndicialLocus(p, "numeric", src) for p, src in numeric)
    loci.sort(key=lambda loc: (loc.exactness != "exact",
                               tuple((complex(x).real, complex(x).imag)
                                     for x in loc.point)))
    if not loci:
        raise NoLocusFound("no indicial locus found by any strategy")
    return LocusSearch(tuple(loci), tuple(strategies))
