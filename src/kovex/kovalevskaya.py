"""Indicial loci and Kovalevskaya exponents of quasi-homogeneous fields.

A balance of a weight-(a_1..a_m) field of degree g is a nonzero point x*
solving g*f_i(x*) + a_i*x*_i = 0 (for degree 1 this is the classical
indicial equation, for degree g >= 2 the Puiseux variant).  The spectrum
of the matrix Df(x*) + diag(a_i/g) decides whether a pole-like series
through x* can carry a full set of free parameters.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .exactalg import (
    DEFAULT_TOL,
    ExactMatrix,
    Leaf,
    MultiPoly,
    NumericNonConvergence,
    RootSet,
    Scalar,
    _canonical,
    _canonical_key,
    _charpoly,
    _components,
    _embed,
    _exact_div,
    _exact_roots,
    _pattern_solves,
    as_fraction,
    poly_eval,
    roots_of_product,
    snap_rational,
)
from .vfmodel import (
    DimensionMismatchError,
    VectorField,
    WeightCertificate,
    _weight,
)

if TYPE_CHECKING:
    import numpy as np

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
    strategy produced it: "user_seed", "newton" or "structured_search" (an
    exact solver's point, or a rooted point of one of its leaves).
    """

    point: tuple
    exactness: str
    source: str

    @property
    def is_exact(self) -> bool:
        return self.exactness == "exact"


@dataclass(frozen=True)
class LocusSearch:
    """find_loci's loci and strategies, with the field, certificate and
    split (``_split``) it searched, and per component the blocks of K(c)
    read so far, by the component's coordinates of the point.  It is the
    one route from an exact point to K(c)'s blocks (``_blocks_at``): for
    spectra (``_report``), and for build_series, kernel_identity_check and
    k_exponents through a locus it certified (``_certify``)."""

    loci: tuple[IndicialLocus, ...]
    strategies: tuple[str, ...]
    _field: VectorField = dataclasses.field(compare=False, repr=False)
    _certificate: WeightCertificate = dataclasses.field(compare=False,
                                                        repr=False)
    _split: tuple = dataclasses.field(compare=False, repr=False)
    _seen: tuple = dataclasses.field(compare=False, repr=False)

    def _blocks_at(self, point: tuple[Scalar, ...],
                   own: bool) -> list[_Block]:
        """The blocks of K(c) at the exact point c, one per (component,
        (table entry, scale)) pair of the split.  _seen[b] holds component
        b's blocks by its coordinates of c; a block missing there is taken
        from the entry at y = lam^a c, or built (``_block``) and stored in
        both.  A block the entry shared from a multiple at another scale
        has the spectrum of this component's block but not its rows: with
        own, such a block is built from this component's rows and replaces
        it in _seen[b], never in the entry."""
        field, certificate = self._field, self._certificate
        blocks = []
        for (component, (entry, scale)), known in zip(self._split,
                                                      self._seen):
            coords = tuple(point[i] for i in component)
            block = known.get(coords)
            if block is None:
                at = _scaled(scale, coords) if scale else coords
                block = entry.blocks.get(at) or _block(
                    field, certificate, component, coords, scale)
                known[coords] = entry.blocks[at] = block
            if own and block.scale != scale:
                block = known[coords] = _block(field, certificate, component,
                                               coords, scale)
            blocks.append(block)
        return blocks

    def _report(self, point: tuple[Scalar, ...]) -> KExponentReport:
        """The KExponentReport at an exact point of the search, assembled
        from its blocks (``_blocks_at``).

        An entry of Df off the diagonal is nonzero only where its variable
        occurs in the row's indicial equation, so K(c) is block-diagonal
        over the components, each block reading only the component's own
        coordinates of c, and a locus only adds up its blocks' summaries
        (``_Block``).  The spectrum is roots_of_product of the blocks'
        rational stages.  The eigenpair holds on K(c) exactly when some
        a_i c_i is nonzero and it holds on every block, and so does
        semisimplicity at the resonances.  For _classify a locus sums its
        blocks' multiplicities of -1; its other roots are all >= 0, and all
        rational multiples of 1/degree, when that holds on every block.
        """
        blocks = self._blocks_at(point, False)
        semisimple = all(block.semisimple for block in blocks)
        return KExponentReport(
            exponents=roots_of_product([block.exact_roots
                                        for block in blocks]),
            eigenpair_verified=(
                any(c for a, c in zip(self._certificate.weights, point) if a)
                and all(block.eigenpair for block in blocks)),
            has_zero_exponent=any(block.zero_root for block in blocks),
            classification=_classify(blocks, semisimple),
            semisimple_at_resonances=semisimple,
        )

    def _certified(self, locus: IndicialLocus) -> _CertifiedLocus:
        """An exact locus of this search with its blocks of K(c) on their
        own rows (``_blocks_at`` with own): the blocks spectra read, one
        shared from a multiple at another scale rebuilt once."""
        point = locus.point
        return _CertifiedLocus(
            point, tuple(zip((component for component, _ in self._split),
                             self._blocks_at(point, True))),
            self)


@dataclass(frozen=True)
class _CertifiedLocus:
    """An exact locus certified by its search, with the (component,
    _Block) pairs of K(c) on their own rows (``LocusSearch._certified``),
    from which build_series, kernel_identity_check and k_exponents read
    K(c) (``_certify``)."""

    point: tuple[Scalar, ...]
    blocks: tuple
    search: LocusSearch


@dataclass(frozen=True)
class KExponentReport:
    """Exponent spectrum at one exact locus.

    classification is provisional: "principal" means the spectrum passes the
    classical test (one -1, the rest nonnegative integers after scaling by
    the degree, semisimple at repeated resonances); the series construction
    downstream is the authority on the parameter count.
    """

    exponents: RootSet
    eigenpair_verified: bool
    has_zero_exponent: bool
    classification: str
    semisimple_at_resonances: bool


def indicial_system(field: VectorField,
                    certificate: WeightCertificate) -> tuple[MultiPoly, ...]:
    """Polynomials whose common nonzero roots are the indicial loci.

    For degree g the defining relation -(a_i/g)x_i = f_i(x) is cleared of
    denominators, so the equations are g*f_i(x) + a_i*x_i = 0.
    """
    if len(certificate.weights) != field.dim:
        raise DimensionMismatchError("weight vector length mismatches the field")
    gamma = certificate.degree
    out = []
    for i, comp in enumerate(field.components):
        x_i = MultiPoly.variable(field.variables[i], field.variables)
        out.append(comp * gamma + x_i * certificate.weights[i])
    return tuple(out)


def _vanishes(eqs: Sequence[MultiPoly], variables: Sequence[str],
              point: Sequence) -> bool:
    values = {v: as_fraction(p) for v, p in zip(variables, point)}
    return all(eq.evaluate(values) == 0 for eq in eqs)


def exact_point(locus) -> tuple[Scalar, ...]:
    """Rational coordinates of a locus or bare point, as exact scalars in
    canonical form (as_fraction: an int when integral, else a Fraction),
    or InexactLocusError."""
    point = locus.point if isinstance(locus, IndicialLocus) else tuple(locus)
    try:
        return tuple(as_fraction(x) for x in point)
    except TypeError:
        raise InexactLocusError(
            "exact rational coordinates required; refine or snap the locus first")


def _k_rows(field: VectorField, certificate: WeightCertificate,
            indices: Sequence[int], values: dict) -> list[list]:
    """The rows and columns ``indices`` of Df(c) + diag(a_i / degree): exact
    (canonical, as_fraction) at rational values, complex at complex ones,
    where an int coefficient multiplies a complex value natively."""
    jac = field.jacobian
    gamma = certificate.degree
    rows = []
    for k, i in enumerate(indices):
        row = [jac[i][j].evaluate(values) for j in indices]
        row[k] = _canonical(row[k] + _exact_div(certificate.weights[i], gamma))
        rows.append(row)
    return rows


def kovalevskaya_matrix(field: VectorField, certificate: WeightCertificate,
                        locus) -> ExactMatrix:
    """Df at the locus plus diag(a_i / degree), all entries exact;
    ValueError unless the locus has field.dim coordinates."""
    values = dict(zip(field.variables, _point_of(field, locus)))
    return ExactMatrix(_k_rows(field, certificate, range(field.dim), values))


@dataclass(frozen=True)
class _Block:
    """One component's share of K(c) at one point, summarised once for
    every locus it is a part of.

    matrix is the block, on the component's rows and columns in their
    order, resolvent its ExactMatrix.resolvent(), and scale the lam^a of
    the component it was built for (``_ComponentTable``; None for lam = 1):
    a component of the same table entry at the same scale has the same
    rows.  exact_roots is the rational stage of the characteristic
    polynomial (read off resolvent).  minus_one, others_nonneg, integral
    and zero_root are the facts the classification reads from its rational
    roots: the multiplicity of -1; whether every other root is >= 0;
    whether the roots are all rational (residual of length 1) and
    multiples of 1/degree; whether 0 is a root.  eigenpair and semisimple
    are the exact checks on the block, computed on first use: a series
    solves on the block and reads neither.
    """

    matrix: ExactMatrix
    resolvent: tuple
    scale: tuple[Scalar, ...] | None
    exact_roots: tuple
    # its share (a_i c_i) of the -1 eigenvector, and the degree
    vector: tuple[Scalar, ...]
    degree: int
    minus_one: int
    others_nonneg: bool
    integral: bool
    zero_root: bool

    @cached_property
    def eigenpair(self) -> bool:
        """Whether the block maps its share of the -1 eigenvector to its
        negative."""
        return self.matrix.matvec(self.vector) == tuple(-v
                                                        for v in self.vector)

    @cached_property
    def semisimple(self) -> bool:
        """Whether geometric equals algebraic multiplicity at each positive
        resonance (a root that is a positive multiple of 1/degree)."""
        return all(mult == 1 or len(self.matrix.shifted(r).kernel()) == mult
                   for r, mult in self.exact_roots[0]
                   if r > 0 and (r * self.degree).denominator == 1)


def _block(field: VectorField, certificate: WeightCertificate,
           component: Sequence[int], coords: tuple[Scalar, ...],
           scale: tuple[Scalar, ...] | None) -> _Block:
    """K(c)'s block on the component's rows and columns, where its
    coordinates of c are coords, built for a component of scale scale: the
    matrix, its resolvent (the integer Faddeev-LeVerrier recurrence of
    ExactMatrix.resolvent), its rational roots, from ``_exact_roots`` of
    the characteristic polynomial read off that resolvent, and the facts
    of its roots _classify reads; the universal eigenpair on its share of
    the -1 eigenvector and the semisimplicity at its positive resonances
    are checked on first use.  The point is taken as a locus: its one
    caller, LocusSearch._blocks_at, reads certified points only.

    The exponents the theory predicts are handed to _exact_roots as
    candidates, which it divides out before any search: -1 where coords
    are not all zero (the universal eigenpair), and the weights a_i /
    degree at the zero point, where the block is Df_b(0) + diag(a_i /
    degree), triangular in weight order."""
    values = {field.variables[i]: c for i, c in zip(component, coords)}
    matrix = ExactMatrix(_k_rows(field, certificate, component, values))
    resolvent = matrix.resolvent()
    gamma = certificate.degree
    candidates = ((-1,) if any(coords) else
                  [_exact_div(certificate.weights[i], gamma)
                   for i in component])
    exact = _exact_roots(_charpoly(resolvent), candidates)
    rational, residual = exact
    vector = tuple(_canonical(certificate.weights[i] * c)
                   for i, c in zip(component, coords))
    return _Block(
        matrix, resolvent, scale, exact, vector, gamma,
        sum(mult for r, mult in rational if r == -1),
        all(r >= 0 for r, _ in rational if r != -1),
        len(residual) == 1 and all((r * gamma).denominator == 1
                                   for r, _ in rational),
        any(r == 0 for r, _ in rational))


def _classify(blocks: Sequence[_Block], semisimple: bool) -> str:
    """The classical test on the spectrum of K(c), read off the summaries
    of its blocks (``_Block``)."""
    if not all(block.integral for block in blocks):
        return "non_painleve"
    minus_one = sum(block.minus_one for block in blocks)
    if minus_one == 0:
        return "non_painleve"
    if minus_one == 1 and all(block.others_nonneg for block in blocks):
        return "principal" if semisimple else "non_painleve"
    return "lower"


class _Component:
    """What a component table knows of one component form: its nonzero
    exact points (None until a search has settled every zero pattern
    exactly) and its _Block at each point computed so far, both in the
    form's normalized coordinates (``_ComponentTable``)."""

    __slots__ = ("points", "blocks")

    def __init__(self):
        self.points: tuple[tuple[Scalar, ...], ...] | None = None
        self.blocks: dict[tuple[Scalar, ...], _Block] = {}


class _ComponentTable:
    """Locus search results and block spectra of components, shared by
    every search that is handed the same table and by its spectra.

    A component is keyed by its normalized form: its indicial equations in
    its own coordinates 0..k-1, with their f-part (all but the terms
    a_i x_i) divided by lam, its weights and the degree.  lam is the
    f-part's first coefficient (lowest equation, then exponent tuple) at
    degree 1 where every term keeps the weight law and each linear term is
    exactly a_i x_i, else 1.  Then lam h_i(c) + a_i c_i = lam^(-a_i) (h_i(y)
    + a_i y_i) at y = lam^a c, and K(c) = D^-1 K_h(y) D with D = diag(lam^a),
    so the nonzero rational multiples of a component are one entry, which
    keeps their points and blocks at y.  Only a search whose points are all
    exact is stored: a component with numeric points, from a leaf or from
    Newton (whose floats depend on the compiled system of the field
    searched), is searched afresh in every field.

    ``analyze`` makes one table per run and hands it to every search of
    the run; a call that passes none gets a fresh one, so identical
    components within one field are still searched once.
    """

    def __init__(self):
        self._entries: dict[tuple, _Component] = {}

    def entry(self, eqs: Sequence[MultiPoly], component: Sequence[int],
              certificate: WeightCertificate
              ) -> tuple[_Component, tuple[Scalar, ...] | None]:
        """The entry of the component of eqs (the indicial system) on the
        coordinates ``component``, whose equations read only those, made
        empty on first use, and lam^a (None when lam = 1)."""
        weights = tuple(certificate.weights[i] for i in component)
        parts = [{tuple(exps[j] for j in component): c
                  for exps, c in eqs[i].terms.items()} for i in component]
        linear = tuple(part.pop(tuple(int(j == k) for j in component), 0)
                       for k, part in zip(component, parts))
        lam = 1
        if certificate.degree == 1 and linear == weights and all(
                _weight(weights, e) == a + 1
                for part, a in zip(parts, weights) for e in part):
            lam = next((part[min(part)] for part in parts if part), lam)
        if lam != 1:
            parts = [{e: _exact_div(c, lam) for e, c in part.items()}
                     for part in parts]
        key = (tuple(frozenset(part.items()) for part in parts), linear,
               weights, certificate.degree)
        return (self._entries.setdefault(key, _Component()),
                None if lam == 1 else tuple(_canonical(lam ** a)
                                            for a in weights))


def _scaled(scale: tuple[Scalar, ...],
            point: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
    """The point y = lam^a c of a component's table entry, from its scale
    lam^a and its coordinates c, in canonical form."""
    return tuple(map(_canonical, map(mul, scale, point)))


def _split(eqs: Sequence[MultiPoly], certificate: WeightCertificate,
           table: _ComponentTable) -> list[tuple[list[int], tuple]]:
    """Each component of the indicial system eqs (``_components``) with its
    table entry and scale (``_ComponentTable.entry``)."""
    return [(component, table.entry(eqs, component, certificate))
            for component in _components(eqs)]


def k_exponents(field: VectorField, certificate: WeightCertificate,
                locus) -> KExponentReport:
    """Spectrum of the Kovalevskaya matrix at an exact locus.

    Eigenvalues come from each block's characteristic polynomial, read off
    its integer resolvent, with the rational ones extracted exactly, so
    integrality questions are decided without floating-point doubt.  The
    universal eigenpair (eigenvalue -1, eigenvector (a_i x_i)) is
    re-verified by an exact matrix-vector product.  This is spectra's
    report, on the blocks ``_certify`` reads off the locus (ValueError at
    a point that is not a locus).  K(c) itself is kovalevskaya_matrix.
    """
    certified = _certify(field, certificate, locus)
    return certified.search._report(certified.point)


def _point_of(field: VectorField, locus) -> tuple[Scalar, ...]:
    """exact_point(locus); ValueError unless it has field.dim coordinates."""
    point = exact_point(locus)
    if len(point) != field.dim:
        raise ValueError(
            f"point has {len(point)} coordinates, field has {field.dim}")
    return point


def _search_at(field: VectorField, certificate: WeightCertificate,
               point) -> LocusSearch:
    """The one-locus search of an exact point (a bare point or an
    IndicialLocus), after its one exact check: ValueError unless it has
    field.dim coordinates and solves the indicial equations.  Its split is
    _components' with a fresh entry each and no table key."""
    point = _point_of(field, point)
    eqs = indicial_system(field, certificate)
    if not _vanishes(eqs, field.variables, point):
        raise ValueError("point does not satisfy the indicial equations")
    split = tuple((component, (_Component(), None))
                  for component in _components(eqs))
    return LocusSearch((IndicialLocus(point, "exact", "user_seed"),),
                       ("user_seed",), field, certificate, split,
                       tuple({} for _ in split))


def _certify(field: VectorField, certificate: WeightCertificate,
             locus) -> _CertifiedLocus:
    """locus as a certified locus of field and certificate: a
    _CertifiedLocus as it stands when they are the objects its search
    searched, any other locus at its point through ``_search_at``."""
    if isinstance(locus, _CertifiedLocus):
        search = locus.search
        if search._field is field and search._certificate is certificate:
            return locus
        locus = locus.point
    search = _search_at(field, certificate, locus)
    return search._certified(search.loci[0])


def numeric_exponents(field: VectorField, certificate: WeightCertificate,
                      point: Sequence[complex]) -> tuple[complex, ...]:
    """Floating-point exponents at a numeric locus, in _canonical_key order."""
    import numpy as np
    values = {v: complex(p) for v, p in zip(field.variables, point)}
    mat = np.array(_k_rows(field, certificate, range(field.dim), values),
                   dtype=np.complex128)
    return tuple(sorted(np.linalg.eigvals(mat), key=_canonical_key))


def spectra(search: LocusSearch) -> tuple[tuple, ...]:
    """(locus, spectrum) pairs for the loci of a find_loci search: the
    k_exponents report at an exact locus, the numeric_exponents at a
    numeric one.

    The exact reports are assembled (``LocusSearch._report``) on the
    components the search split its field into, from the blocks of the
    table entries it kept, so spectra builds no indicial system, no split
    and no table key.  An exact locus is taken as certified: find_loci
    made it from a point it has checked exactly.  K(c) itself comes from
    kovalevskaya_matrix.
    """
    field, certificate = search._field, search._certificate
    return tuple(
        (locus, search._report(exact_point(locus)) if locus.is_exact
         else numeric_exponents(field, certificate, locus.point))
        for locus in search.loci)


def _compile_system(polys: Sequence[MultiPoly]):
    """Closure evaluating the system on a batch of complex points via numpy.

    Every polynomial is on the field's variables (VectorField embeds its
    components there, and the indicial system and its derivatives keep
    them), so exponent tuples are already the columns.  The returned
    function maps an array of shape (batch, m) to residual values of shape
    (batch, len(polys)).
    """
    import numpy as np
    prepared = [(np.array(list(poly.terms), dtype=np.int64),
                 np.array([complex(c) for c in poly.terms.values()],
                          dtype=np.complex128)) if poly else None
                for poly in polys]

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
    radius) are dropped, and so is a start whose residual or Jacobian is
    not finite, which cannot converge; the rest iterate until the residual
    max-norm falls below tolerance or the iteration budget runs out.
    """
    import numpy as np
    points = np.atleast_2d(starts).astype(np.complex128).copy()
    m = points.shape[1]
    alive = np.ones(points.shape[0], dtype=bool)
    converged: list[np.ndarray] = []
    # a start far out overflows; the finiteness checks below drop it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            index = np.flatnonzero(alive)
            batch = points[index]
            residual = eval_f(batch)
            done = np.max(np.abs(residual), axis=1) <= tolerance
            converged.extend(batch[done])
            alive[index[done]] = False
            index, batch, residual = index[~done], batch[~done], residual[~done]
            jac = eval_jac(batch).reshape(-1, m, m)[:, :, free]
            ok = (np.all(np.isfinite(residual), axis=1)
                  & np.all(np.isfinite(jac), axis=(1, 2)))
            alive[index[~ok]] = False
            index, batch = index[ok], batch[ok]
            if index.size == 0:
                break
            step = -(np.linalg.pinv(jac[ok])
                     @ residual[ok][:, :, np.newaxis])[:, :, 0]
            batch[:, free] += step
            points[index] = batch
            bad = (~np.all(np.isfinite(batch), axis=1)
                   | (np.max(np.abs(batch), axis=1) > _NEWTON_BLOWUP))
            alive[index[bad]] = False
        if alive.any():
            batch = points[alive]
            error = np.max(np.abs(eval_f(batch)), axis=1)
            converged.extend(batch[error <= tolerance])
    return converged


def _snap_point(z: Sequence[complex]) -> tuple[Scalar, ...] | None:
    snapped = []
    for value in z:
        candidate = snap_rational(complex(value))
        if candidate is None:
            return None
        snapped.append(candidate)
    return tuple(snapped)


def _merge_radius(tolerance: float) -> float:
    """The distance within which numeric points merge and, relative to
    their size, float exponents match.

    Newton stops once the residual is below tolerance, so a point is only
    about that accurate, and a multiple root only about its square root.
    """
    return max(_DEDUP_TOL, tolerance ** 0.5)


def _leaf_points(leaves: Sequence[Leaf], eqs: Sequence[MultiPoly],
                 free: Sequence[int], m: int,
                 tolerance: float) -> list[tuple[complex, ...]] | None:
    """The points of a pattern's leaves in the field's m coordinates (zero
    outside free), or None when their numerics fail.

    Each root of a leaf's factor comes from roots_of_product, which
    certifies its backward error, and the coordinates are the leaf's
    polynomials at it.  The numerics fail when roots_of_product raises
    NumericNonConvergence, or when a point leaves some equation of eqs
    above tolerance relative to the sum of the sizes of its terms (or that
    sum overflows).
    """
    points = []
    for leaf in leaves:
        try:
            roots = roots_of_product([((), leaf.factor)]).numeric_roots
        except NumericNonConvergence:
            return None
        for t, _, _ in roots:
            point = [0j] * m
            for i, coeffs in zip(free, leaf.coordinates):
                point[i] = poly_eval([complex(c) for c in coeffs], t)
            for eq in eqs:
                terms = [complex(c) * math.prod(z ** e for z, e
                                                in zip(point, exps) if e)
                         for exps, c in eq.terms.items()]
                size = sum(map(abs, terms))
                if not abs(sum(terms)) <= tolerance * size < math.inf:
                    return None
            points.append(tuple(point))
    return points


class _Found:
    """Loci in the order found: an exact point once, with the source that
    found it first, and a numeric point unless one is already within
    radius (in the max norm, on complex coordinates).

    The first numeric point indexes every locus found (``_buckets``), and
    each later locus is indexed as it comes: its coordinates, converted to
    complex once, go in the bucket of its projection P, the sum of the
    real and imaginary parts, with buckets width = 2 m radius wide (m the
    dimension).  Two points within radius have projections at most
    sqrt(2) m radius apart, so a point is compared only with the loci of
    its own bucket and the two beside it.  Float rounding moves P / width
    by at most (2m + 1) eps S / width, S the sum of the parts' sizes, so
    a point with S above width / (8 (2m + 1) eps) (or not finite) is kept
    under the key None, compared with every point, and compares with
    every locus: the points kept, and their order, are those of comparing
    with every locus.
    """

    def __init__(self, radius: float):
        self.radius = radius
        self.loci: list[IndicialLocus] = []
        self._exact: set[tuple] = set()
        self._buckets: dict | None = None

    def add_exact(self, point: tuple[Scalar, ...], source: str) -> None:
        if any(point) and point not in self._exact:
            self._exact.add(point)
            self.loci.append(IndicialLocus(point, "exact", source))
            if self._buckets is not None:
                self._index(tuple(map(complex, point)))

    def add_numeric(self, point: tuple[complex, ...], source: str) -> None:
        if self._buckets is None:
            self._buckets = {}
            self._width = 2 * len(point) * self.radius
            self._bound = self._width / (8 * (2 * len(point) + 1)
                                         * sys.float_info.epsilon)
            for known in self.loci:
                self._index(tuple(map(complex, known.point)))
        key = self._key(point)
        keys = ((key - 1, key, key + 1, None) if key is not None
                else tuple(self._buckets))
        radius = self.radius
        for k in keys:
            for known in self._buckets.get(k, ()):
                if max(abs(x - y) for x, y in zip(point, known)) <= radius:
                    return
        self.loci.append(IndicialLocus(point, "numeric", source))
        self._index(point)

    def _key(self, z: tuple[complex, ...]) -> int | None:
        parts = [v for x in z for v in (x.real, x.imag)]
        if not sum(map(abs, parts)) <= self._bound:
            return None
        return math.floor(sum(parts) / self._width)

    def _index(self, z: tuple[complex, ...]) -> None:
        self._buckets.setdefault(self._key(z), []).append(z)


class _Newton:
    """find_loci's float route, built on first use.

    A search in which the exact solver settles every pattern, with no user
    seed to refine, never uses it: it compiles no system, makes no
    generator and imports no numpy.  Each pattern draws its starts from a
    generator of its own, seeded by rng_seed and the pattern's index among
    its component's patterns, so a component gets the same starts whatever
    components come before it.
    """

    def __init__(self, eqs: Sequence[MultiPoly], variables: Sequence[str],
                 count: int, rng_seed: int, tolerance: float):
        self.eqs = eqs
        self.variables = variables
        self.count = count
        self.rng_seed = rng_seed
        self.tolerance = tolerance

    @cached_property
    def _system(self):
        """The compiled system and its Jacobian entries row by row."""
        return (_compile_system(self.eqs),
                _compile_system([eq.diff(v) for eq in self.eqs
                                 for v in self.variables]))

    def starts(self, free: Sequence[int], index: int) -> np.ndarray:
        """``count`` complex normal starts on the free coordinates, zero
        elsewhere, drawn by the generator of pattern ``index``."""
        import numpy as np
        rng, count = np.random.default_rng([self.rng_seed, index]), self.count
        starts = np.zeros((count, len(self.variables)), dtype=np.complex128)
        starts[:, free] = (rng.standard_normal((count, len(free)))
                           + 1j * rng.standard_normal((count, len(free))))
        return starts

    def refine(self, found: _Found, starts, free: Sequence[int],
               source: str) -> None:
        """Newton from the starts, moving only the free coordinates.  A
        converged point outside found's radius of the origin is recorded
        exact if it snaps and verifies, else numeric: _newton_refine
        returns only points whose residual is below tolerance."""
        import numpy as np
        eval_f, eval_jac = self._system
        for z in _newton_refine(eval_f, eval_jac, starts, np.asarray(free),
                                self.tolerance):
            if float(np.max(np.abs(z))) <= found.radius:
                continue
            snapped = _snap_point(z)
            if snapped is not None and _vanishes(self.eqs, self.variables,
                                                 snapped):
                found.add_exact(snapped, source)
            else:
                found.add_numeric(tuple(complex(v) for v in z), source)


def find_loci(field: VectorField, certificate: WeightCertificate,
              seeds: Sequence[Sequence[float]] = (), *,
              newton_starts: int = 64, rng_seed: int = 0,
              tolerance: float = DEFAULT_TOL,
              table: _ComponentTable | None = None) -> LocusSearch:
    """Hunt for indicial loci, exact strategies first, in this order.

    1. User seeds are snapped to rationals and verified exactly; failing
       that they start a Newton run on the whole field.
    2. The variables are split into the connected components of the
       indicial system (``_split``, ``exactalg._components``): two
       variables are linked when one occurs in the other's equation, and
       a field with a constant term is one component.  A component whose
       normalized form table holds settled takes its points c = lam^(-a) y
       from there (``_ComponentTable``), checked exactly where lam is not
       1 (RuntimeError if one fails).  Other components run steps 3 and 4.
    3. Structured search, the one exact search, which the zero-set check
       and the gamma >= 2 exact route run too: the exact solve of each
       zero pattern of the component that the support rule leaves
       (``exactalg._pattern_solves``).  Its points are certified by the
       solver, and the other components' equations vanish at their zero.
       A solution with a free coordinate at zero is kept
       (painleve1_coupled_4d's (3, 27, 0, -3) comes from the all-free
       pattern); only the origin is dropped.  When the pattern's only open
       branches are leaves, they are rooted (``_leaf_points``) into
       numeric loci with source ``structured_search`` (painleve1_coupled_4d's
       gamma = 3 flow subsystem ends in the leaf a2^3 - 64/3^11).  Once
       the solve of the whole system settles (complete, or leaves whose
       numerics hold) it has listed every balance of the component, and no
       other pattern is solved.
    4. Newton multistart (``_Newton``, built on first use), only on the
       patterns the exact solver left open (an irrational factor with
       variables still to solve over it, as in the coupled chain's
       all-free pattern at k >= 3, free coordinates, no handle, or the
       branch budget) and on a leaf pattern whose numerics fail:
       ``newton_starts`` pseudo-random complex starts each on the
       pattern's free coordinates, refined until the residual is below
       ``tolerance``, then snapped and re-verified exactly.  Pattern p
       (its index) draws from ``np.random.default_rng([rng_seed, p])``,
       so its starts depend neither on the components before it nor on
       which patterns the exact solver settled.
    5. The loci are the products of the component results: a choice of
       zero or one found point per component, the origin excluded.  By
       step 2 each part solves the whole system, so a product of exact
       points is exact, and a product with a numeric part has the largest
       of its parts' residuals; a numeric one is added unless a known
       locus is within the merge radius.  The source is ``newton`` if any
       part came from Newton, else ``structured_search``.  Exact loci come
       first, in lexicographic order, then numeric ones by (re, im).

    The search costs one exact solve per surviving support of each
    component not taken from table (one per suffix of blocks of a coupled
    chain), or one when its whole system settles (painleve1_coupled_4d).
    The enumeration scales with the surviving supports too, but unit
    propagation is not a complete test, so no bound is proved for a field
    whose supports defeat it.  A component with a numeric point is not
    stored in table.  A point is recorded with the first strategy
    that finds it, and numeric loci that snap and verify are upgraded to
    exact.  No claim of completeness is made; the strategies that ran are
    listed in the result, ``newton`` only when it ran on at least one
    pattern.  The result also keeps the field, the certificate and the
    (component, (table entry, scale)) pairs searched, from which
    spectra(search) reads the loci's spectra.
    """
    m = field.dim
    eqs = indicial_system(field, certificate)
    newton = _Newton(eqs, field.variables, newton_starts, rng_seed, tolerance)
    strategies: list[str] = []
    # numeric points are merged, and dropped near the origin, within this
    radius = _merge_radius(tolerance)

    found = _Found(radius)
    if seeds:
        strategies.append("user_seed")
        for seed in seeds:
            if len(seed) != m:
                raise ValueError(
                    f"seed has {len(seed)} coordinates, field has {m}")
            start = tuple(complex(x) for x in seed)
            snapped = _snap_point(start)
            if (snapped is not None
                    and _vanishes(eqs, field.variables, snapped)):
                found.add_exact(snapped, "user_seed")
                continue
            newton.refine(found, [start], range(m), "user_seed")

    strategies.append("structured_search")
    table = _ComponentTable() if table is None else table
    split = _split(eqs, certificate, table)
    parts: list[list[IndicialLocus]] = []
    for component, (entry, scale) in split:
        local_eqs = [eqs[i] for i in component]
        if entry.points is not None:
            points = [_embed(tuple(map(_exact_div, y, scale)) if scale else y,
                             component, m) for y in entry.points]
            if scale and not all(_vanishes(local_eqs, field.variables, c)
                                 for c in points):
                raise RuntimeError("mapped table point fails its exact check")
            parts.append([IndicialLocus(c, "exact", "structured_search")
                          for c in points])
            continue
        part = _Found(radius)
        incomplete: list[tuple[int, list[int]]] = []
        for index, free, result, whole in _pattern_solves(eqs, component,
                                                          field.variables):
            for partial in result.points:
                part.add_exact(_embed(partial, free, m), "structured_search")
            rooted = _leaf_points(result.leaves, local_eqs, free, m,
                                  tolerance)
            if rooted is None or not (result.complete or result.leaves):
                incomplete.append((index, free))
                continue
            for point in rooted:
                part.add_numeric(point, "structured_search")
            if whole:
                # every balance of the component is listed
                break
        if not incomplete:
            # a leaf's points are floats: only exact results are shared
            if all(locus.is_exact for locus in part.loci):
                local = (tuple(locus.point[i] for i in component)
                         for locus in part.loci)
                entry.points = tuple(_scaled(scale, c) if scale else c
                                     for c in local)
        elif newton_starts > 0:
            if "newton" not in strategies:
                strategies.append("newton")
            for index, free in incomplete:
                newton.refine(part, newton.starts(free, index), free, "newton")
        parts.append(part.loci)

    owner = {i: b for b, (component, _) in enumerate(split) for i in component}
    for choice in itertools.product(*([None] + loci for loci in parts)):
        chosen = [locus for locus in choice if locus is not None]
        if not chosen:
            continue
        source = ("newton" if any(locus.source == "newton" for locus in chosen)
                  else "structured_search")
        point = tuple(0 if choice[owner[i]] is None
                      else choice[owner[i]].point[i] for i in range(m))
        if all(locus.is_exact for locus in chosen):
            found.add_exact(point, source)
        else:
            found.add_numeric(tuple(complex(x) for x in point), source)

    loci = (sorted((loc for loc in found.loci if loc.is_exact),
                   key=lambda loc: loc.point)
            + sorted((loc for loc in found.loci if not loc.is_exact),
                     key=lambda loc: _canonical_key(loc.point)))
    if not loci:
        raise NoLocusFound("no indicial locus found by any strategy")
    return LocusSearch(tuple(loci), tuple(strategies), field, certificate,
                       tuple(split), tuple({} for _ in split))
