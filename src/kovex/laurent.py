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
never appears in them.  K(c) is block-diagonal over the components of
the indicial system, and each order is solved one block at a time.  A
block K_b - jI is inverted through the block's integer resolvent
(ExactMatrix.resolvent: det and adjugate of tI - sK_b, with sK_b
integer) evaluated at t = sj, so a regular order costs one fused sum of
products per component.  The resonant orders, which set the default
truncation, are the positive integers among the blocks' rational roots,
so a series runs no floating point.  Only a block whose det(sjI - sK_b)
is 0 eliminates K_b - jI; that solve yields its share of d_j, the
alpha-monomials of N_j that make its system inconsistent (rows past the
rank) and the kernel the parameters enter along.  The blocks' kernels,
embedded in all coordinates, are row-reduced together once more, for the
gauge.  The blocks come from a locus search (kovalevskaya._certify):
inside analyze the ones the locus stage computed the spectra from.

The recursion is incremental, as in Taylor-series integrators.  Every
monomial of the field is a chain of prefix products (q1, q1^2, q1^2*p2,
...), and one truncated series per distinct prefix is kept in a prefix
tree.  At order j each prefix gains one Cauchy coefficient, first with
the unknown d_j taken as 0, which yields N_j, and then corrected by its
part linear in d_j once d_j is solved.  An order costs O(j) parameter
polynomial products per prefix, so a series through N costs O(N^2) of
them, where re-expanding every monomial from order 0 at every order cost
O(N^3) per factor.  build_series leaves the finished tree on its solution,
and the first g_expansion along that solution takes it over: it adds G's
monomials to the tree and computes only the prefixes F did not have, so
a prefix F and G share is expanded once.  analyze drops every tree its
flow stage did not take over; a later expansion packs the series afresh.

The recursion runs on _IntPoly, not MultiPoly: integer numerators over
one positive denominator, reduced by their gcd once per fused sum of
products, with each monomial packed into one int that holds one bit field
per parameter, in the order the parameters are introduced.  A product of
monomials is then one integer addition, and a coefficient one integer
multiply-add, where MultiPoly builds an exponent tuple and normalizes a
Fraction per term.  The field width is a degree bound read off the
inputs, so an exponent can never carry into the next field.  Every
order-j coefficient of the series, and so of every prefix, has total
degree at most j, so truncation.bit_length() bits hold any exponent of
the series and of an expansion through the truncation; the tree keeps
that width.  An expansion without the tree (a hand-built solution, a
copy, a second expansion) packs the solution's MultiPoly coefficients on
entry, at a width read off them: their largest exponent times the
largest monomial degree of G.  Conversion happens only at the boundary:
the locus and the field coefficients enter as constants, solve_singular
takes the _IntPoly right-hand side as it is, and the finished
coefficients and expansion vectors leave as MultiPoly over the sorted
parameter names, each packed monomial decoded once per series or
expansion.  The expansion also keeps its packed form (_PackedExpansion:
the vectors, the packed series they were expanded along and its
solution, the parameter layout, the width), and the flow identities in
degeneration run on it with _dot, _diff and _key_weight; the parameter
flow's ghat0 and ghat are the one thing they unpack, once, in param_flow.
An input with no packed form is packed on entry by _pack_all, as
_expand_along packs a series without a tree.

residual_order deliberately keeps the from-scratch MultiPoly expansion
(_field_orders): it is the oracle that checks the recursion, so it must
not share the code it checks.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .exactalg import ExactMatrix, MultiPoly, _embed
from .kovalevskaya import _certify
from .vfmodel import VectorField, WeightCertificate, verify_weight

__all__ = [
    "LaurentSolution",
    "ResonanceRecord",
    "SeriesClass",
    "TruncationBelowResonance",
    "build_series",
    "classify",
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
    # build_series' prefix tree, until the first expansion along this
    # solution takes it over; not part of the value, and neither a
    # hand-built solution nor a dataclasses.replace copy has it
    _prefixes: _PrefixSeries | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

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


class _IntPoly:
    """A parameter polynomial as integer numerators over one denominator.

    terms maps a packed monomial to a nonzero integer numerator and den is
    a positive integer; the gcd of den and the numerators is 1, so every
    value has one representation (zero has no terms and den 1).  A packed
    monomial holds parameter k's exponent in bits [k*width, (k+1)*width),
    parameters numbered in the order they were introduced, so a product of
    monomials is a sum of ints as long as no exponent reaches 2**width.
    Instances are treated as immutable.  The arithmetic is what the
    recursion and ExactMatrix.solve_singular use: sums, negation, scalar
    multiples, and products only through _dot.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict[int, int], den: int = 1):
        self.terms = terms
        self.den = den

    @staticmethod
    def reduced(terms: dict[int, int], den: int) -> "_IntPoly":
        """Normalize a sum: drop zero numerators, divide out the gcd."""
        terms = {k: v for k, v in terms.items() if v}
        if not terms:
            return _ZERO
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {k: v // g for k, v in terms.items()}
                den //= g
        return _IntPoly(terms, den)

    @staticmethod
    def constant(value: Fraction) -> "_IntPoly":
        return _IntPoly.reduced({0: value.numerator}, value.denominator)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> "_IntPoly":
        return _IntPoly({k: -v for k, v in self.terms.items()}, self.den)

    def __add__(self, other: "_IntPoly") -> "_IntPoly":
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = {k: v * s for k, v in self.terms.items()}
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v * t
        return _IntPoly.reduced(out, den)

    def __sub__(self, other: "_IntPoly") -> "_IntPoly":
        return self + -other

    def __mul__(self, scalar) -> "_IntPoly":
        """Multiple by an int or Fraction."""
        num = scalar.numerator
        return _IntPoly.reduced({k: v * num for k, v in self.terms.items()},
                                self.den * scalar.denominator)

    def without(self, monomials: set[int]) -> "_IntPoly":
        return _IntPoly.reduced({k: v for k, v in self.terms.items()
                                 if k not in monomials}, self.den)


_ZERO = _IntPoly({})
_ONE = _IntPoly({0: 1})


def _dot(pairs: list[tuple[_IntPoly, _IntPoly]]) -> _IntPoly:
    """sum of a*b over the pairs, on one common denominator, reduced once."""
    den = 1
    for a, b in pairs:
        den = lcm(den, a.den * b.den)
    out: dict[int, int] = {}
    get = out.get
    for a, b in pairs:
        scale = den // (a.den * b.den)
        right = b.terms.items()
        for ka, va in a.terms.items():
            va *= scale
            for kb, vb in right:
                k = ka + kb
                out[k] = get(k, 0) + va * vb
    return _IntPoly.reduced(out, den)


def _regular_solve(resolvent: tuple, j: int,
                   rhs: Sequence[_IntPoly]) -> list[_IntPoly] | None:
    """The solution of (K - jI) x = rhs, or None where K - jI is singular.

    resolvent is ExactMatrix.resolvent() of K: s, chi and adj with sK
    integer.  (K - jI) x = rhs is (sjI - sK) x = -s rhs, so
    x = -s adj(sjI - sK) rhs / chi(sj), with chi(sj) and each entry of
    adj evaluated at sj by Horner.  Each component is one _dot; its
    constant factors share the denominator |chi(sj)| and are left
    unreduced, as _dot reduces the sum once.
    """
    s, chi, adj = resolvent
    t = s * j
    det = 0
    for c in chi:
        det = det * t + c
    if not det:
        return None
    scale, den = (-s if det > 0 else s), abs(det)
    out = []
    for row in adj:
        pairs = []
        for coeffs, b in zip(row, rhs):
            if b.terms:
                v = 0
                for c in coeffs:
                    v = v * t + c
                if v:
                    pairs.append((_IntPoly({0: v * scale}, den), b))
        out.append(_dot(pairs) if pairs else _ZERO)
    return out


def _pack(poly: MultiPoly, shift: Mapping[str, int]) -> _IntPoly:
    """A MultiPoly in the named parameters as an _IntPoly; shift[v] is the
    low bit of v's field."""
    unknown = [v for v in poly.vars if v not in shift]
    if unknown:
        raise ValueError(f"{unknown!r} are not parameters of the series")
    shifts = [shift[v] for v in poly.vars]
    den = lcm(*(c.denominator for c in poly.terms.values()))
    return _IntPoly.reduced(
        {sum(e << s for e, s in zip(exps, shifts)):
         c.numerator * (den // c.denominator)
         for exps, c in poly.terms.items()}, den)


def _unpacker(names: Sequence[str], width: int):
    """Back to MultiPoly over the sorted parameter names, one decode per
    packed monomial: the returned function memoizes the exponent tuples,
    so every polynomial of one series or expansion shares them."""
    order = sorted(range(len(names)), key=names.__getitem__)
    sorted_names = tuple(names[k] for k in order)
    shifts = [k * width for k in order]
    mask = (1 << width) - 1
    exponents: dict[int, tuple[int, ...]] = {}

    def unpack(poly: _IntPoly) -> MultiPoly:
        den = poly.den
        terms = {}
        for key, v in poly.terms.items():
            exps = exponents.get(key)
            if exps is None:
                exps = exponents[key] = tuple((key >> s) & mask
                                              for s in shifts)
            terms[exps] = Fraction(v) if den == 1 else Fraction(v, den)
        # clean by construction: distinct names, nonnegative exponents of
        # the right length, nonzero coefficients
        return MultiPoly._trusted(sorted_names, terms)

    return unpack


class _PrefixSeries:
    """Truncated series of every monomial prefix of one or more fields.

    A monomial prod_l y_l^{e_l} is multiplied out one factor at a time,
    lowest variable first.  Each partial product (a prefix) is keyed by its
    exponent vector, so q1, q1^2, q1^3, ... are expanded once and shared
    by every monomial and component that starts with them.  series[l] is
    the pole-stripped _IntPoly coefficient list of y_l; the caller may
    append to it between orders.  Every prefix keeps its coefficients,
    leaves included, so a second field added later (add, then extend)
    reads every prefix the first one had instead of recomputing it.  The
    coefficients of a lone variable's prefix y_l are series[l] itself, so
    neither extend nor settle computes them.
    """

    def __init__(self, dim: int, series: Sequence[Sequence[_IntPoly]]):
        self.series = series
        self.root = (0,) * dim
        # prefix -> (parent prefix, variable multiplied in); insertion
        # order puts every parent before its children
        self.links: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        # the prefixes with children
        self.parents: set[tuple[int, ...]] = set()
        # the constant prefix is 1: order 0 only
        self.history: dict[tuple[int, ...], list[_IntPoly]] = {
            self.root: [_ONE]}

    def add(self, field: VectorField) -> list[list[tuple]]:
        """Register field's monomials: per component, (prefix, coefficient)."""
        return [[(self._register(exps), _IntPoly.constant(c))
                 for exps, c in comp.terms.items()]
                for comp in field.components]

    def _register(self, exps: Sequence[int]) -> tuple[int, ...]:
        key = [0] * len(exps)
        parent = self.root
        for l, e in enumerate(exps):
            for _ in range(e):
                key[l] += 1
                child = tuple(key)
                if child not in self.links:
                    self.links[child] = (parent, l)
                    self.parents.add(parent)
                    self.history[child] = (self.series[l]
                                           if parent is self.root else [])
                parent = child
        return parent

    @staticmethod
    def _cauchy(left: Sequence[_IntPoly], right: Sequence[_IntPoly],
                j: int) -> _IntPoly:
        """Coefficient j of the product; missing coefficients count as 0."""
        pairs = []
        for i in range(max(0, j - len(right) + 1), min(j, len(left) - 1) + 1):
            a, b = left[i], right[j - i]
            if a.terms and b.terms:
                pairs.append((a, b))
        return _dot(pairs) if pairs else _ZERO

    def settle(self, j: int) -> None:
        """Add the d_j part to coefficient j of every prefix.

        Call after extend(j + 1) ran without d_j and d_j has been appended
        to series.  Coefficient j of a prefix P = Q y_l is linear in d_j:
        P_j - P_j|_{d_j=0} = Q_0 d_{l,j} + (Q_j - Q_j|_{d_j=0}) c_l.
        Only a parent's change is kept for its children; a leaf's is
        summed with its old coefficient in the same _dot.  A lone
        variable's prefix is series[l], which holds d_{l,j} already, and
        d_{l,j} is its change.
        """
        history, series, parents = self.history, self.series, self.parents
        root = self.root
        delta = {}
        for key, (parent, l) in self.links.items():
            right = series[l]
            if parent is root:
                delta[key] = right[j]
                continue
            pairs = []
            if history[parent][0].terms and right[j].terms:
                pairs.append((history[parent][0], right[j]))
            if delta[parent].terms and right[0].terms:
                pairs.append((delta[parent], right[0]))
            if key not in parents:
                if pairs:
                    history[key][j] = _dot([(history[key][j], _ONE)] + pairs)
                continue
            change = _dot(pairs) if pairs else _ZERO
            delta[key] = change
            if change.terms:
                history[key][j] = history[key][j] + change

    def extend(self, count: int) -> None:
        """Complete every prefix through order count-1; a prefix
        registered since the last order has none yet.

        Coefficients of y missing from series count as zero, so with
        series ending at order j-1, extend(j + 1) gives order j with the
        unknown d_j taken as 0 (settle adds its part afterwards).  A lone
        variable's prefix is series[l] and is skipped.
        """
        history, series, cauchy = self.history, self.series, self._cauchy
        root = self.root
        for key, (parent, l) in self.links.items():
            if parent is root:
                continue
            values = history[key]
            for k in range(len(values), count):
                values.append(cauchy(history[parent], series[l], k))

    def sums(self, rows: list[list[tuple]], k: int) -> list[_IntPoly]:
        """Order k of each component: its coefficients times its prefixes."""
        history = self.history
        out = []
        for row in rows:
            pairs = []
            for key, c in row:
                values = history[key]
                if k < len(values) and values[k].terms:
                    pairs.append((values[k], c))
            out.append(_dot(pairs) if pairs else _ZERO)
        return out


def _diff(poly: _IntPoly, low: int, width: int) -> _IntPoly:
    """d poly / d (the parameter whose field starts at bit low)."""
    mask, one = (1 << width) - 1, 1 << low
    terms = {}
    for key, v in poly.terms.items():
        e = (key >> low) & mask
        if e:
            terms[key - one] = v * e
    if not terms:
        return _ZERO
    # no numerator is zero, but the exponents can share a factor with den
    den = poly.den
    g = gcd(den, *terms.values()) if den != 1 else 1
    if g != 1:
        return _IntPoly({key: v // g for key, v in terms.items()}, den // g)
    return _IntPoly(terms, den)


def _key_weight(key: int, weights: Sequence[int], width: int) -> int:
    """The weight of a packed monomial, parameter k weighing weights[k]."""
    mask = (1 << width) - 1
    total = 0
    for w in weights:
        total += (key & mask) * w
        key >>= width
    return total


def _largest(rows: Iterable[Iterable[MultiPoly]]) -> int:
    """The largest exponent in rows of MultiPolys."""
    return max((e for row in rows for p in row for exps in p.terms
                for e in exps), default=0)


def _pack_all(names: Sequence[str], rows: Sequence[Sequence[MultiPoly]],
              top: int) -> tuple[int, dict[str, int], list[list[_IntPoly]]]:
    """(width, shift, packed rows): rows of MultiPolys in names packed as
    _IntPoly, each parameter a field of width bits starting at bit
    shift[v], in the order of names.  The width holds exponents up to top,
    the largest exponent the caller builds from them, so no product it
    forms carries into the next field.
    """
    width = top.bit_length()
    shift = {v: k * width for k, v in enumerate(names)}
    return width, shift, [[_pack(p, shift) for p in row] for row in rows]


@dataclass(frozen=True, eq=False)
class _PackedExpansion:
    """An expansion as _expand_along computed it, on _IntPoly.

    vectors[k][i] is the packed order-k coefficient of component i, and
    series[i][j] the packed d_{i,j} of solution, the family expanded
    along; both give parameter v a field of width bits starting at bit
    shift[v].  largest bounds every exponent of series, so a product of
    a series coefficient and a polynomial with exponents at most e cannot
    carry while largest + e < 2**width.
    """

    vectors: tuple[tuple[_IntPoly, ...], ...]
    series: Sequence[Sequence[_IntPoly]]
    solution: LaurentSolution
    shift: Mapping[str, int]
    width: int
    largest: int


def _expand_along(field: VectorField, sol: LaurentSolution, count: int
                  ) -> tuple[tuple[tuple[MultiPoly, ...], ...],
                             _PackedExpansion]:
    """Orders 0..count-1 of each component of field along the family sol,
    unpacked, and the packed expansion they were read off.

    The first call along a build_series result takes over its prefix tree
    and adds field's monomials to it, at the series' own width; an order-j
    coefficient has total degree at most j, so the truncation bounds its
    exponents.  Without a tree the series is packed once: a prefix of
    degree at most the field's largest monomial degree multiplies that
    many coefficients, so its exponents stay at most that degree times the
    series' largest exponent, which sets the field width.
    """
    names = sol.parameters
    prefixes = sol._prefixes
    if prefixes is not None:
        # hand-off: the solution drops the tree, which then lives no
        # longer than this call; only its series stays, on the result
        object.__setattr__(sol, "_prefixes", None)
        largest = sol.truncation
        # the tree is packed already; only its layout is read here
        width, shift, _ = _pack_all(names, (), largest)
    else:
        largest = _largest(sol.coefficients)
        degree = max((sum(exps) for comp in field.components
                      for exps in comp.terms), default=0)
        width, shift, series = _pack_all(names, sol.coefficients,
                                         degree * largest)
        prefixes = _PrefixSeries(field.dim, series)
    rows = prefixes.add(field)
    prefixes.extend(count)
    vectors = tuple(tuple(prefixes.sums(rows, k)) for k in range(count))
    unpack = _unpacker(names, width)
    return (tuple(tuple(unpack(p) for p in vec) for vec in vectors),
            _PackedExpansion(vectors, prefixes.series, sol, shift, width,
                             largest))


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
        for exps, c in comp.terms.items():
            term = _monomial_series(c, exps, partials, cap)
            total = [t + u for t, u in zip(total, term)]
        out.append(total)
    return out


def build_series(field: VectorField, certificate: WeightCertificate, locus,
                 truncation: int | None = None) -> LaurentSolution:
    """Run the order-by-order recursion at an exact locus.

    K(c) is block-diagonal over the components of the indicial system
    (LocusSearch._report), and the recursion runs one block at a time, on
    the blocks kovalevskaya._certify reads off the locus: those of the
    search's _CertifiedLocus that analyze hands over, or those of the
    one-locus search of any other point, after its exact check (ValueError
    at a point that is not a locus).  The resonant orders, which set the
    default truncation (twice the largest) and the warning, are the positive
    integers among the blocks' rational roots.  Each order is one exact
    solve of (K(c) - jI) d_j = -N_j per block, with the polynomial
    right-hand side taken whole: by the block's resolvent where its exact
    integer chi(sj) is nonzero (_regular_solve), by
    ExactMatrix.solve_singular on the block where it is zero and the block
    minus jI singular.  The residues of those solves name the
    alpha-monomials whose system is inconsistent: they are dropped from d_j
    and the order is recorded as an obstruction, and the recursion keeps
    going so later structure stays visible.  Free parameters enter along the
    blocks' kernels, embedded and row-reduced together for the anchor gauge
    on ResonanceRecord.  The block solves give what one solve on the whole
    K(c) gives: the reduced row echelon form of a block-diagonal matrix is
    made of its blocks', the kernels' reduced basis is canonical, and a
    monomial is inconsistent exactly when it is in some block.
    """
    if certificate.degree != 1:
        raise ValueError("series construction needs a degree-1 field")
    if not verify_weight(field, certificate).ok:
        raise ValueError("weight certificate does not match the field")
    certified = _certify(field, certificate, locus)
    point, blocks = certified.point, certified.blocks
    m = field.dim

    resonant_orders = sorted({int(r) for _, block in blocks
                              for r, _ in block.exact_roots[0]
                              if r > 0 and r.denominator == 1})
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

    # every order-j coefficient has total degree at most j (order 0 is
    # constant, a parameter enters with degree 1 at its own order, and the
    # orders of the factors of every product sum to j), so no exponent
    # reaches 2**width and packed monomials never carry into a neighbour
    width = truncation.bit_length()
    coeffs = [[_IntPoly.constant(c)] for c in point]
    resonances: list[ResonanceRecord] = []
    obstructions: list[int] = []
    prefixes = _PrefixSeries(m, coeffs)
    rows = prefixes.add(field)
    prefixes.extend(1)

    for j in range(1, truncation + 1):
        # d_j is not in coeffs yet, so this is N_j: order j with d_j = 0
        prefixes.extend(j + 1)
        rhs = [-n for n in prefixes.sums(rows, j)]
        d_j = [_ZERO] * m
        kernel: list[tuple[Fraction, ...]] = []
        inconsistent: set[int] = set()
        for component, block in blocks:
            local = [rhs[i] for i in component]
            x = _regular_solve(block.resolvent, j, local)
            if x is None:
                x, residue, basis = block.matrix.shifted(j).solve_singular(
                    local)
                inconsistent.update(*(r.terms for r in residue))
                kernel.extend(_embed(v, component, m) for v in basis)
            for i, v in zip(component, x):
                d_j[i] = v
        if kernel:
            if inconsistent:
                obstructions.append(j)
                d_j = [p.without(inconsistent) for p in d_j]
            # Reduced row echelon form of the kernel gives the anchor
            # gauge directly: each direction is 1 at its own anchor and 0
            # at every other direction's anchor, so each step leaves the
            # bare parameter at its anchor.
            reduced, anchors = ExactMatrix(kernel).rref()
            for anchor, direction in zip(anchors, reduced.data):
                bit = width * len(resonances)
                name = f"alpha{len(resonances) + 1}"
                resonances.append(ResonanceRecord(j, name, anchor, direction))
                step = _IntPoly({1 << bit: 1}) - d_j[anchor]
                d_j = [x + step * d if d else x
                       for x, d in zip(d_j, direction)]

        for i in range(m):
            coeffs[i].append(d_j[i])
        prefixes.settle(j)

    names = [r.parameter for r in resonances]
    unpack = _unpacker(names, width)
    sol = LaurentSolution(
        locus=point,
        weights=tuple(certificate.weights),
        truncation=truncation,
        parameters=tuple(names),
        coefficients=tuple(tuple(unpack(p) for p in row) for row in coeffs),
        resonances=tuple(resonances),
        obstructions=tuple(obstructions),
    )
    object.__setattr__(sol, "_prefixes", prefixes)
    return sol


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
