"""Exact rational arithmetic: multivariate polynomials, dense matrices, root isolation.

The analysis pipeline runs on exact rational arithmetic end to end: exact
scalars in one canonical form (as_fraction: an integral value is an int,
any other a Fraction in lowest terms, never Fraction(n, 1), a bool or a
float), or integers over a common denominator where that is cheaper
(_eliminate, the one fraction-free elimination; ExactMatrix.resolvent, the one
characteristic-polynomial recurrence, which yields det(tI - A) and the
adjugate of tI - A as integer polynomials; _exact_roots, the rational roots
and their multiplicities on the primitive integer part; the series kernel
in laurent).
There is deliberately no algebraic-number tower: when a quantity fails to be
rational, we keep the exact residual factor together with certified numeric
approximations of its roots instead of extending the scalar field.  Matrices
are dense; every system in this problem class is tiny (dimension = number of
phase-space variables).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]

DEFAULT_TOL = 1e-12
_ABERTH_MAX_ITER = 200
_MAX_BRANCHES = 512
_SNAP_MAX_DENOMINATOR = 10 ** 6
_SNAP_TOL = 1e-9


def as_fraction(value: object) -> Scalar:
    """The canonical exact scalar of an int or Fraction; floats (and any
    other type) raise TypeError, so inexactness can't sneak in.

    The canonical form is the one every exact value kovex builds takes: an
    integral value is an int (a bool becomes 0 or 1, an integral Fraction
    its numerator), any other value a Fraction in lowest terms.  Integer
    arithmetic then runs as int operations, which are tens of times
    cheaper than Fraction's, and points and roots hash as ints.  The name
    predates the canonical form and is kept: callers and the benchmark's
    tracer (bench/tracing.py leaves it unwrapped by this name) know it.
    """
    if value.__class__ is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def _canonical(value):
    """value, the result of exact arithmetic, in canonical form
    (as_fraction): an integral Fraction becomes its int.  Any other value,
    an int, a Fraction in lowest terms or a float, is returned as it is."""
    if value.__class__ is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _canonical_terms(terms: dict) -> dict:
    """terms with every value in canonical form (_canonical), in place."""
    for key, value in terms.items():
        if value.__class__ is Fraction and value.denominator == 1:
            terms[key] = value.numerator
    return terms


def _exact_div(a: Scalar, b: Scalar) -> Scalar:
    """a / b for exact scalars, in canonical form: the one division of
    exact scalars in the package (int / int would be a float).
    ZeroDivisionError when b is zero."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _canonical(a / b)


def _canonical_key(value) -> tuple:
    """The one sort key of exponent multisets and loci: (re, im), exact
    on an int or Fraction, which leads a tie with a float; a tuple (a
    point, a multiset, a collection of them) sorts by its entries' keys."""
    if isinstance(value, tuple):
        return tuple(map(_canonical_key, value))
    if isinstance(value, (int, Fraction)):
        return (value, 0, 0)
    z = complex(value)
    return (z.real, z.imag, 1)


class NumericNonConvergence(RuntimeError):
    """The numeric root refinement failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# multivariate polynomials


class MultiPoly:
    """Polynomial over Q in named variables.

    ``terms`` maps exponent tuples (aligned with ``vars``) to nonzero exact
    coefficients in canonical form (as_fraction: an int when integral, else
    a Fraction); the zero polynomial has an empty term map.  Every method
    that returns a scalar or a polynomial returns that form.  Instances are
    treated as immutable.  Arithmetic between polynomials with different
    variable tuples merges them into the sorted union.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str] = (),
                 terms: Mapping[tuple[int, ...], Scalar] | None = None):
        vs = tuple(vars)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs!r}")
        clean: dict[tuple[int, ...], Scalar] = {}
        for exps, coeff in (terms or {}).items():
            e = tuple(int(x) for x in exps)
            if len(e) != len(vs):
                raise ValueError(f"exponent tuple {e!r} does not match variables {vs!r}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e!r}")
            c = as_fraction(coeff)
            if c:
                clean[e] = c
        self.vars = vs
        self.terms = clean

    # -- constructors

    @classmethod
    def _trusted(cls, vars: tuple[str, ...],
                 terms: dict[tuple[int, ...], Scalar]) -> "MultiPoly":
        """Wrap arithmetic output without re-validating it.

        The caller guarantees distinct variable names, exponent tuples of
        matching length with nonnegative entries, and nonzero coefficients
        in canonical form (as_fraction).  Every arithmetic result below is
        clean by construction, and revalidating it took about a quarter of
        the Laurent-series profile.
        """
        poly = object.__new__(cls)
        poly.vars = vars
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, vars: Sequence[str] = ()) -> "MultiPoly":
        return cls(vars)

    @classmethod
    def constant(cls, value: Scalar, vars: Sequence[str] = ()) -> "MultiPoly":
        vs = tuple(vars)
        return cls(vs, {(0,) * len(vs): value})

    @classmethod
    def variable(cls, name: str, vars: Sequence[str] | None = None) -> "MultiPoly":
        vs = tuple(vars) if vars is not None else (name,)
        if name not in vs:
            raise ValueError(f"{name!r} not among {vs!r}")
        e = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {e: 1})

    # -- variable alignment

    def embed(self, new_vars: Sequence[str]) -> "MultiPoly":
        """Reindex onto a superset of the current variables."""
        nv = tuple(new_vars)
        if nv == self.vars:
            return self
        pos = {v: i for i, v in enumerate(nv)}
        missing = [v for v in self.vars if v not in pos]
        if missing:
            raise ValueError(f"cannot embed: {missing!r} absent from {nv!r}")
        out: dict[tuple[int, ...], Scalar] = {}
        for exps, c in self.terms.items():
            e = [0] * len(nv)
            for v, x in zip(self.vars, exps):
                e[pos[v]] = x
            out[tuple(e)] = c
        return MultiPoly._trusted(nv, out)

    def _aligned(self, other: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        if self.vars == other.vars:
            return self, other
        merged = tuple(sorted(set(self.vars) | set(other.vars)))
        return self.embed(merged), other.embed(merged)

    @staticmethod
    def _coerce(value: object, vars: Sequence[str]) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.constant(as_fraction(value), vars)

    # -- arithmetic

    def __add__(self, other: object) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            try:
                other = self._coerce(other, self.vars)
            except TypeError:
                return NotImplemented
        a, b = self._aligned(other)
        out = dict(a.terms)
        for e, c in b.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
                continue
            s += c
            if s:
                out[e] = _canonical(s)
            else:
                del out[e]
        return MultiPoly._trusted(a.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.vars,
                                  {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: object) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            try:
                other = self._coerce(other, self.vars)
            except TypeError:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: object) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            try:
                c = as_fraction(other)
            except TypeError:
                return NotImplemented
            if not c:
                return MultiPoly._trusted(self.vars, {})
            return MultiPoly._trusted(self.vars, _canonical_terms(
                {e: k * c for e, k in self.terms.items()}))
        a, b = self._aligned(other)
        out: dict[tuple[int, ...], Scalar] = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                e = tuple(map(operator.add, ea, eb))
                s = out.get(e)
                if s is None:
                    out[e] = ca * cb
                else:
                    s += ca * cb
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return MultiPoly._trusted(a.vars, _canonical_terms(out))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "MultiPoly":
        c = as_fraction(other)
        if not c:
            raise ZeroDivisionError("polynomial divided by zero scalar")
        return self * _exact_div(1, c)

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = MultiPoly.constant(1, self.vars)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    __hash__ = None  # mutable dict inside; compare by value only

    # -- calculus and evaluation

    def diff(self, var: str) -> "MultiPoly":
        if var not in self.vars:
            return MultiPoly.zero(self.vars)
        i = self.vars.index(var)
        out: dict[tuple[int, ...], Scalar] = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            e = list(exps)
            e[i] -= 1
            out[tuple(e)] = c * exps[i]
        # a nonzero coefficient times an exponent >= 1: nonzero
        return MultiPoly._trusted(self.vars, _canonical_terms(out))

    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at a point; exact (canonical, as_fraction) for exact
        inputs, numeric otherwise.

        Every variable that actually occurs must be assigned, else
        KeyError.  Returns 0 for the zero polynomial regardless of input
        types.  An int coefficient multiplies a complex value natively.
        """
        total = None
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(self.vars, exps):
                if e:
                    term = term * values[v] ** e
            total = term if total is None else total + term
        return 0 if total is None else _canonical(total)

    def substitute(self, mapping: Mapping[str, object]) -> "MultiPoly":
        """Substitute polynomials or exact scalars for variables, all at once.

        One pass over the terms: a scalar value multiplies into the
        coefficient (a zero drops the term), a variable left alone moves its
        exponent into the new monomial, and only polynomial values are
        multiplied out.  The result's variables are the sorted union of the
        variables left alone and the variables of the polynomial values,
        counting each only where its variable occurs.
        """
        for name in mapping:
            if name not in self.vars:
                raise KeyError(f"{name!r} is not a variable of this polynomial")
        polys = {name: value for name, value in mapping.items()
                 if isinstance(value, MultiPoly)}
        scalars = {name: as_fraction(value) for name, value in mapping.items()
                   if name not in polys}
        out_vars: set[str] = set()
        for i, v in enumerate(self.vars):
            if v not in scalars and any(e[i] for e in self.terms):
                out_vars.update(polys[v].vars if v in polys else (v,))
        vars_t = tuple(sorted(out_vars))
        pos = {v: i for i, v in enumerate(vars_t)}
        powers: dict[tuple[str, int], MultiPoly] = {}
        out: dict[tuple[int, ...], Scalar] = {}
        for exps, c in self.terms.items():
            mono = [0] * len(vars_t)
            factors = []
            for v, e in zip(self.vars, exps):
                if not e:
                    continue
                if v in scalars:
                    c = c * scalars[v] ** e
                    if not c:
                        break
                elif v in polys:
                    if (v, e) not in powers:
                        powers[v, e] = polys[v].embed(vars_t) ** e
                    factors.append(powers[v, e])
                else:
                    mono[pos[v]] = e
            else:
                term = {tuple(mono): c}
                for factor in factors:
                    term = (MultiPoly._trusted(vars_t, term) * factor).terms
                for e, k in term.items():
                    out[e] = out.get(e, 0) + k
        return MultiPoly._trusted(vars_t, _canonical_terms(
            {e: c for e, c in out.items() if c}))

    # -- structure queries

    def coefficient(self, exps: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(exps), 0)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * len(self.vars), 0)

    def total_degree(self) -> int | None:
        """Maximum total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    # -- presentation

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.vars, exps) if e)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({str(self)!r}, vars={self.vars!r})"


# ---------------------------------------------------------------------------
# dense exact matrices


def _eliminate(rows: Sequence[Sequence[Scalar]],
               width: int) -> tuple[list[list[int]], tuple[int, ...], int]:
    """The package's one elimination: fraction-free Gauss-Jordan (Bareiss,
    Math. Comp. 22, 1968, in the form of Nakos, Turner & Williams, 1997).

    Rows are scaled to integers by the lcm of their denominators; pivots
    are sought in the first width columns, and later columns (an identity
    block) are carried along.  Each step replaces every other row by
    (pivot * row - entry * pivot row) // previous pivot, an exact division
    of minors, so each row ends as the last pivot times its reduced row.
    Returns the integer rows, the pivot columns and the last pivot.
    """
    ints = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (scale // x.denominator) for x in row])
    pivots: list[int] = []
    previous = 1
    for c in range(width):
        r = len(pivots)
        if r == len(ints):
            break
        pivot_row = next((i for i in range(r, len(ints)) if ints[i][c]), None)
        if pivot_row is None:
            continue
        ints[r], ints[pivot_row] = ints[pivot_row], ints[r]
        top = ints[r]
        pv = top[c]
        for i, row in enumerate(ints):
            f = row[c]
            if i == r or not f and pv == previous:
                continue
            ints[i] = [(pv * a - f * b) // previous for a, b in zip(row, top)]
        pivots.append(c)
        previous = pv
    return ints, tuple(pivots), previous


def _kernel(n: int, rows: list, pivots: tuple, last: int) -> tuple:
    """Null-space basis of the first n columns of _eliminate's output."""
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [0] * n
        v[free] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = _exact_div(-row[free], last)
        basis.append(tuple(v))
    return tuple(basis)


class ExactMatrix:
    """Dense matrix over Q.

    data holds the rows as tuples of exact scalars in canonical form
    (as_fraction: an int when integral, else a Fraction), and every exact
    scalar a method returns takes that form too."""

    __slots__ = ("data", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        data = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        if width == 0:
            raise ValueError("matrix needs at least one column")
        self.data = data
        self.nrows = len(data)
        self.ncols = width

    def shifted(self, r: Scalar) -> "ExactMatrix":
        """A - rI, built in one pass."""
        r = as_fraction(r)
        return ExactMatrix([[x - r if i == j else x for j, x in enumerate(row)]
                            for i, row in enumerate(self.data)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.data == other.data

    __hash__ = None

    def matvec(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        v = [as_fraction(x) for x in vec]
        return tuple(_canonical(sum(map(operator.mul, row, v)))
                     for row in self.data)

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns, from _eliminate."""
        rows, pivots, last = _eliminate(self.data, self.ncols)
        return ExactMatrix([[_exact_div(a, last) for a in row]
                            for row in rows]), pivots

    def kernel(self) -> tuple[tuple[Scalar, ...], ...]:
        """Basis of the null space; one vector per free column, that entry 1."""
        return _kernel(self.ncols, *_eliminate(self.data, self.ncols))

    def solve_singular(self, rhs: Sequence) -> tuple[tuple, tuple, tuple]:
        """Solve A x = b for any A, with b rational or polynomial entries.

        Returns (particular, residue, kernel) from one _eliminate of [A | I]
        that pivots in A only; it yields the row transform T that brings A
        to reduced row echelon form.  Exact entries of b give exact entries
        in canonical form (as_fraction); any other entry, such as a
        MultiPoly, needs only sums and multiples by an int or a Fraction.
        The pivot rows of T b give the particular solution, free
        coordinates pinned to zero.  The rows past
        the rank give the residue, one entry per direction of the left
        kernel; the system is consistent exactly when every entry vanishes,
        and for polynomial entries the monomials of the residue are the
        ones whose coefficient system has no solution.  Inconsistency is a
        value, not an exception.  The kernel is kernel()'s basis, read off
        the reduced A block of the pivot rows.
        """
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side length mismatch")
        n = self.ncols
        zero = 0 if isinstance(rhs[0], (int, Fraction)) else rhs[0] * 0
        rows, pivots, last = _eliminate(
            [row + tuple(int(i == k) for k in range(self.nrows))
             for i, row in enumerate(self.data)], n)
        transformed = []
        for row in rows:
            total = zero
            for t, value in zip(row[n:], rhs):
                if t:
                    total = total + value * t
            transformed.append(
                _exact_div(total, last) if isinstance(total, (int, Fraction))
                else total * Fraction(1, last))
        x = [zero] * n
        for row, pc in enumerate(pivots):
            x[pc] = transformed[row]
        return (tuple(x), tuple(transformed[len(pivots):]),
                _kernel(n, rows, pivots, last))

    def charpoly(self) -> list[Scalar]:
        """Monic characteristic polynomial det(tI - A), descending coefficients.

        Read off resolvent(): with B = sA, det(tI - A) = s^-n det(stI - B),
        so its coefficient k is c_k / s^k.
        """
        if self.nrows != self.ncols:
            raise ValueError("characteristic polynomial needs a square matrix")
        return _charpoly(self.resolvent())

    def resolvent(self) -> tuple[int, list[int], list[list[list[int]]]]:
        """(tI - A)^{-1} = adj(tI - A) / det(tI - A) as integer polynomials.

        With s the lcm of A's denominators and B = sA an integer matrix,
        returns s, det(tI - B) = t^n + c_1 t^{n-1} + ... + c_n as the
        descending ints [1, c_1, ..., c_n], and adj(tI - B) entrywise as
        descending int coefficient lists of length n.  By Faddeev-LeVerrier
        (Householder, The Theory of Matrices in Numerical Analysis, 1964,
        sec. 6.7) adj(tI - B) = sum_k B_k t^{n-1-k} with B_0 = I,
        c_k = -tr(B B_{k-1}) / k and B_k = B B_{k-1} + c_k I; each division
        is exact, as the c_k of an integer matrix are integers.  It is the
        package's one characteristic-polynomial algorithm: charpoly, the
        spectra and the series all read chi from it.
        """
        if self.nrows != self.ncols:
            raise ValueError("resolvent needs a square matrix")
        n = self.nrows
        s = math.lcm(*(x.denominator for row in self.data for x in row))
        b = [[x.numerator * (s // x.denominator) for x in row]
             for row in self.data]
        chi = [1]
        step = [[int(i == k) for k in range(n)] for i in range(n)]  # B_0
        adj = [[[x] for x in row] for row in step]
        for k in range(1, n + 1):
            cols = list(zip(*step))
            step = [[sum(map(operator.mul, row, col)) for col in cols]
                    for row in b]
            chi.append(-sum(step[i][i] for i in range(n)) // k)
            if k < n:
                for i, row in enumerate(step):
                    row[i] += chi[k]
                    for entry, x in zip(adj[i], row):
                        entry.append(x)
        return s, chi, adj

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"ExactMatrix[{body}]"


def _charpoly(resolvent: tuple) -> list[Scalar]:
    """The monic det(tI - A) of ExactMatrix.resolvent()'s (s, chi, adj):
    chi is det(tI - sA), so coefficient k is chi_k / s^k."""
    s, chi, _ = resolvent
    return [_exact_div(c, s ** k) for k, c in enumerate(chi)]


# ---------------------------------------------------------------------------
# univariate root isolation: exact first, certified numerics for the rest


def poly_eval(coeffs: Sequence, x):
    """Horner evaluation; exact when both coefficient and point are exact."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_derivative(coeffs: Sequence[Scalar]) -> list[Scalar]:
    n = len(coeffs) - 1
    if n <= 0:
        return [0]
    return [_canonical(c * (n - i)) for i, c in enumerate(coeffs[:-1])]


def _trim(coeffs: list[Scalar]) -> list[Scalar]:
    i = 0
    while i < len(coeffs) - 1 and coeffs[i] == 0:
        i += 1
    return coeffs[i:]


def _poly_mul(a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple[Scalar, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(map(_canonical, out))


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder of descending coefficient lists, divided by
    _exact_div: canonical on exact coefficients, floats on float ones."""
    num = _trim(list(num))
    den = _trim(list(den))
    if den == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    if len(num) < len(den):
        return [0], num
    quot = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(quot)):
        q = _exact_div(rem[i], den[0])
        quot[i] = q
        if q:
            for j, d in enumerate(den):
                rem[i + j] -= q * d
    return quot, _trim(list(map(_canonical, rem)))


def _poly_gcd(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[Scalar]:
    """Monic gcd over Q."""
    x, y = _trim(list(a)), _trim(list(b))
    while y != [0]:
        x, y = y, _poly_divmod(x, y)[1]
    lead = x[0]
    return [_exact_div(c, lead) for c in x] if lead else x


def _squarefree_factors(coeffs: list[Scalar]) -> list[tuple[list[Scalar], int]]:
    """Yun decomposition of a monic polynomial: [(squarefree factor, multiplicity)]."""
    if len(coeffs) <= 1:
        return []
    deriv = poly_derivative(coeffs)
    a = _poly_gcd(coeffs, deriv)
    b = _poly_divmod(coeffs, a)[0]
    c = _poly_divmod(deriv, a)[0]
    d = [_canonical(x - y) for x, y in _padded(c, poly_derivative(b))]
    out: list[tuple[list[Scalar], int]] = []
    i = 1
    while len(b) > 1:
        factor = _poly_gcd(b, d)
        if len(factor) > 1:
            out.append((factor, i))
        b = _poly_divmod(b, factor)[0]
        c = _poly_divmod(d, factor)[0]
        d = [_canonical(x - y) for x, y in _padded(c, poly_derivative(b))]
        i += 1
    return out


def _padded(a: list[Scalar], b: list[Scalar]):
    """Zip two descending coefficient lists, aligning at the constant term."""
    la, lb = len(a), len(b)
    n = max(la, lb)
    pa = [0] * (n - la) + list(a)
    pb = [0] * (n - lb) + list(b)
    return zip(pa, pb)


def _integer_part(coeffs: Sequence[Scalar]) -> list[int]:
    """The primitive integer multiple of a rational polynomial (same order)."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _sign_changes(coeffs: Sequence[int]) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _shift_by_one(coeffs: Sequence[int]) -> list[int]:
    """Ascending coefficients of p(x + 1) from those of p(x) (Taylor shift)."""
    out = list(coeffs)
    n = len(out) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            out[j] += out[j + 1]
    return out


def _positive_rational_roots(coeffs: list[int], lead: int) -> list[Scalar]:
    """Positive rational roots of an integer polynomial with p(0) != 0.

    coeffs ascend.  Every positive rational root is k/lead for an integer
    k.  Intervals are bisected at dyadic points, which are tested for
    roots as they appear (Collins & Akritas 1976, on Python ints), until
    Descartes' rule of signs isolates: an interval with no sign variation
    holds no root, and one with a single variation holds one simple root,
    across which p changes sign.  Its candidates k/lead are then settled
    by binary search on the sign of lead^n p(k/lead), p having just right
    of the interval's left end the sign of the mapped polynomial's
    constant term (nonzero: a root found at a bisection point is divided
    out of the interval to its right).  An interval holding one candidate
    is settled by evaluating p there.  p need not be square-free:
    Descartes' rule only prunes, and the candidate count alone ends the
    bisection, so a multiple root cannot stall it.
    """
    if _sign_changes(coeffs) == 0:
        return []
    # Fujiwara: every root has |z| < 2 max_i |a_{n-i}/a_n|^(1/i) <= 2^bound
    top = coeffs[-1].bit_length()
    bound = max(0, 1 + max(-((top - 1 - abs(c).bit_length()) // i)
                           for i, c in enumerate(reversed(coeffs[:-1]), 1)
                           if c))

    def value(k: int) -> int:
        # lead^n p(k/lead), by Horner on integers
        acc, power = coeffs[-1], 1
        for c in reversed(coeffs[:-1]):
            power *= lead
            acc = acc * k + c * power
        return acc

    found: list[Scalar] = []
    # p(2^bound x) on (0, 1); an entry (q, num, e) stands for the interval
    # 2^bound (num, num + 1) / 2^e, q being p mapped onto (0, 1)
    pending = [([c << (bound * i) for i, c in enumerate(coeffs)], 0, 0)]
    while pending:
        poly, num, e = pending.pop()
        first = ((lead * num) << bound >> e) + 1
        last = (((lead * (num + 1)) << bound) - 1) >> e
        if first > last:
            continue
        # a lone candidate is evaluated, with no Descartes test
        changes = (1 if first == last
                   else _sign_changes(_shift_by_one(poly[::-1])))
        if changes == 0:
            continue
        if changes == 1:
            # one simple root: find the least candidate not left of it
            sign = 1 if poly[0] > 0 else -1
            while first < last:
                mid = (first + last) // 2
                if value(mid) * sign > 0:
                    first = mid + 1
                else:
                    last = mid
            if value(first) == 0:
                found.append(_exact_div(first, lead))
            continue
        d = len(poly) - 1
        left = [c << (d - i) for i, c in enumerate(poly)]
        right = _shift_by_one(left)
        if right[0] == 0:
            found.append(_exact_div((2 * num + 1) << bound, 1 << (e + 1)))
            while right[0] == 0:
                right = right[1:]
        pending.append((left, 2 * num, e + 1))
        pending.append((right, 2 * num + 1, e + 1))
    return found


def _divide_linear(coeffs: list[int], p: int, q: int) -> list[int] | None:
    """coeffs / (q x - p) on integers, coeffs descending; None if it does not divide.

    q x - p is primitive for p/q in lowest terms, so by Gauss's lemma every
    step of a division that succeeds is an exact integer division.
    """
    out: list[int] = []
    carry = 0
    for c in coeffs[:-1]:
        carry, rem = divmod(c + p * carry, q)
        if rem:
            return None
        out.append(carry)
    return out if coeffs[-1] + p * carry == 0 else None


def _aberth(coeffs: list[float], max_iter: int) -> list[complex]:
    """Simultaneous root refinement (Aberth-Ehrlich) for a squarefree polynomial."""
    n = len(coeffs) - 1
    if n == 1:
        return [complex(-coeffs[1] / coeffs[0])]
    deriv = [c * (n - i) for i, c in enumerate(coeffs[:-1])]
    radius = 1.0 + max(abs(c / coeffs[0]) for c in coeffs[1:])
    z = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    for _ in range(max_iter):
        shift = 0.0
        for k in range(n):
            pv = poly_eval(coeffs, z[k])
            dv = poly_eval(deriv, z[k])
            if dv == 0:
                z[k] += 1e-6 + 1e-6j
                shift = math.inf
                continue
            newton = pv / dv
            others = sum(1 / (z[k] - z[j]) for j in range(n)
                         if j != k and z[k] != z[j])
            denom = 1 - newton * others
            w = newton if denom == 0 else newton / denom
            z[k] -= w
            shift = max(shift, abs(w))
        if shift < 1e-15 * (1.0 + max(abs(v) for v in z)):
            break
    return z


@dataclass(frozen=True)
class RootSet:
    """Roots of a univariate rational polynomial, exact part separated.

    rational_roots lists (root, multiplicity) pairs by increasing root.
    residual_factor is the monic rational polynomial left after dividing
    them out (length 1 means fully factored).  Roots and coefficients are
    exact scalars in canonical form (as_fraction: an int when integral,
    else a Fraction).  numeric_roots approximate the residual's roots as
    (value, multiplicity, error).  The error is the backward error of the
    squarefree factor f the root came from: |f(z)| / max(1, sum |f_i|
    |z|^i), i.e. the relative coefficient perturbation under which z is an
    exact root.
    """

    rational_roots: tuple[tuple[Scalar, int], ...]
    residual_factor: tuple[Scalar, ...]
    numeric_roots: tuple[tuple[complex, int, float], ...]

    @property
    def is_fully_rational(self) -> bool:
        return len(self.residual_factor) == 1

    def multiset(self) -> tuple:
        """Every root repeated by multiplicity, in _canonical_key order.

        Rational roots stay exact, in canonical form (an int when
        integral, else a Fraction), and numeric ones stay complex.
        Without numeric roots the rational ones, already sorted, are the
        multiset as they stand.
        """
        out: list = []
        for r, m in self.rational_roots:
            out.extend([r] * m)
        if not self.numeric_roots:
            return tuple(out)
        for z, m, _ in self.numeric_roots:
            out.extend([z] * m)
        return tuple(sorted(out, key=_canonical_key))


def _exact_roots(coeffs: Sequence[Scalar], candidates: Sequence[Scalar] = ()
                 ) -> tuple[tuple[tuple[Scalar, int], ...],
                            tuple[Scalar, ...]]:
    """The rational stage of roots_exact_first, with no floating point.

    Returns the sorted (rational root, multiplicity) pairs and the monic
    residual left after dividing them out.  It runs on the primitive
    integer part f: trailing zero coefficients count the root 0, and exact
    division by q x - p counts the multiplicity of each root p/q.  The
    candidates, roots the caller's theory predicts, are divided out first,
    each as often as it divides; one that is not a root costs one failed
    division and changes nothing, so the result is the same for any
    candidates.  What is left is searched only while it has degree >= 2:
    _positive_rational_roots finds the rational roots of f(x), then of
    f(-x) on the quotient, and a quotient of degree 1 gives its root
    directly.
    """
    exact = [as_fraction(c) for c in coeffs]
    if not exact or exact[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    ints = _integer_part(exact)
    rational: dict[Scalar, int] = {}
    if ints[-1] == 0:
        while ints[-1] == 0:
            ints.pop()
        rational[0] = len(exact) - len(ints)

    def divide_out(root: Scalar) -> None:
        nonlocal ints
        p, q = root.numerator, root.denominator
        multiplicity = 0
        while (quotient := _divide_linear(ints, p, q)) is not None:
            ints = quotient
            multiplicity += 1
        if multiplicity:
            rational[root] = rational.get(root, 0) + multiplicity

    for candidate in candidates:
        divide_out(as_fraction(candidate))
    for sign in (1, -1):
        if len(ints) == 2:
            divide_out(_exact_div(-ints[1], ints[0]))
        if len(ints) <= 2:
            break
        ascending = ints[::-1] if sign > 0 else [
            -c if i % 2 else c for i, c in enumerate(reversed(ints))]
        for root in _positive_rational_roots(ascending, abs(ints[0])):
            divide_out(sign * root)
    return (tuple(sorted(rational.items())),
            tuple(_exact_div(c, ints[0]) for c in ints))


def roots_exact_first(coeffs: Sequence[Scalar]) -> RootSet:
    """Find all roots: complete rational search, then certified numerics.

    The rational stage (_exact_roots) finds every rational root with its
    exact multiplicity; roots_of_product runs the numeric stage on the
    residual.
    """
    return roots_of_product([_exact_roots(coeffs)])


def roots_of_product(factors: Sequence[tuple]) -> RootSet:
    """The roots of a product of polynomials, from each factor's _exact_roots.

    The rational roots are merged with their multiplicities summed, and
    the residual is the product of the factors' monic residuals: both are
    what _exact_roots returns on the product itself.  The merge keys each
    root on its (numerator, denominator), which hashes as two ints, where
    a Fraction's hash takes a modular inverse.  The residual's roots
    come from the numeric stage (_numeric_roots).
    """
    counts: dict[tuple[int, int], list] = {}
    residual: tuple[Scalar, ...] = (1,)
    for rational, factor in factors:
        for r, multiplicity in rational:
            known = counts.get((r.numerator, r.denominator))
            if known is None:
                counts[r.numerator, r.denominator] = [r, multiplicity]
            else:
                known[1] += multiplicity
        if len(factor) > 1:
            residual = _poly_mul(residual, factor)
    return RootSet(
        rational_roots=tuple(sorted(map(tuple, counts.values()),
                                    key=operator.itemgetter(0))),
        residual_factor=residual,
        numeric_roots=_numeric_roots(residual),
    )


def _numeric_roots(residual: tuple[Scalar, ...]) -> tuple:
    """roots_of_product's numeric stage: the roots of the monic residual
    as (value, multiplicity, backward error), in _canonical_key order.

    The residual is split into squarefree factors exactly (Yun), which
    hands Aberth's iteration only simple roots; each numeric root must
    have backward error <= DEFAULT_TOL or NumericNonConvergence is raised.
    """
    if len(residual) == 1:
        return ()
    numeric: list[tuple[complex, int, float]] = []
    for factor, multiplicity in _squarefree_factors(list(residual)):
        approx = _aberth([float(c) for c in factor], _ABERTH_MAX_ITER)
        for z in approx:
            scale = 1.0
            power = 1.0
            for c in reversed(factor):
                scale = max(scale, abs(c) * power)
                power *= abs(z)
            err = abs(poly_eval(factor, z)) / scale
            numeric.append((z, multiplicity, err))
    bad = [z for z, _, err in numeric if err > DEFAULT_TOL]
    if bad:
        raise NumericNonConvergence(
            f"numeric roots {bad} exceed tolerance {DEFAULT_TOL} after "
            f"{_ABERTH_MAX_ITER} iterations")
    return tuple(sorted(numeric, key=lambda t: _canonical_key(t[0])))


# ---------------------------------------------------------------------------
# exact solving of small polynomial systems


@dataclass(frozen=True)
class Leaf:
    """The solutions of a system at the roots of one irrational factor.

    factor is a monic squarefree polynomial over Q without rational roots
    (descending coefficients, degree >= 2).  coordinates gives each
    variable, in the order solved for, as a polynomial over Q in a root t
    of factor, reduced modulo it (descending; (r,) for a rational r).
    Each root t gives one solution, deg(factor) in all.
    """

    factor: tuple[Scalar, ...]
    coordinates: tuple[tuple[Scalar, ...], ...]


@dataclass(frozen=True)
class ExactSolveResult:
    """Concrete rational solutions of a polynomial system, and its leaves.

    complete is True only when the rational points alone provably list
    every solution.  Branches ending with leftover freedom contribute a
    witness point (free coordinates set to 1) and force complete=False, as
    does an irrational residual in any univariate branching step.  When
    that residual is the last step of its branch (no variable is left) it
    becomes a Leaf; leaves lists them only when the points and the leaves
    together provably list every solution, and is empty otherwise.  Every
    point and every leaf is checked exactly against the system, and their
    coordinates are exact scalars in canonical form (as_fraction).
    """

    points: tuple[tuple[Scalar, ...], ...]
    complete: bool
    leaves: tuple[Leaf, ...]


def _univariate_profile(poly: MultiPoly) -> str | None:
    """The single variable the polynomial actually uses, if there is one."""
    seen = None
    for exps in poly.terms:
        for var, e in zip(poly.vars, exps):
            if e:
                if seen is None:
                    seen = var
                elif seen != var:
                    return None
    return seen


def _coeff_list(poly: MultiPoly, var: str) -> list[Scalar]:
    """Descending coefficients of a univariate polynomial in var."""
    i = poly.vars.index(var)
    degree = max(exps[i] for exps in poly.terms)
    coeffs = [0] * (degree + 1)
    for exps, c in poly.terms.items():
        coeffs[degree - exps[i]] += c
    return coeffs


def _linear_constant_coefficient(poly: MultiPoly, var: str) -> tuple[Scalar, MultiPoly] | None:
    """Split poly as a*var + rest when a is a nonzero constant; else None."""
    if var not in poly.vars:
        return None
    i = poly.vars.index(var)
    if not all(exps[i] in (0, 1) for exps in poly.terms):
        return None
    coeff_terms = {}
    rest_terms = {}
    for exps, c in poly.terms.items():
        if exps[i] == 1:
            reduced = exps[:i] + (0,) + exps[i + 1:]
            coeff_terms[reduced] = c
        else:
            rest_terms[exps] = c
    coeff = MultiPoly(poly.vars, coeff_terms)
    if coeff.total_degree() != 0:
        return None
    return coeff.constant_term(), MultiPoly(poly.vars, rest_terms)


def _at_leaf(poly: MultiPoly, values: Mapping[str, Sequence[Scalar]],
             factor: Sequence[Scalar]) -> list[Scalar]:
    """poly at coordinates that are polynomials in a root of factor
    (descending coefficients), reduced modulo factor."""
    total = [0]
    for exps, c in poly.terms.items():
        term: Sequence[Scalar] = [c]
        for v, e in zip(poly.vars, exps):
            for _ in range(e):
                term = _poly_divmod(_poly_mul(term, values[v]), factor)[1]
        total = _trim([_canonical(a + b) for a, b in _padded(total, term)])
    return total


def _solve_branch(eqs: list[MultiPoly], remaining: tuple[str, ...],
                  budget: list[int]) -> tuple[list[dict[str, Scalar]], list,
                                              bool]:
    """Returns (solutions over remaining vars, leaves, complete).  A leaf
    is a pair (factor, coordinates) with each coordinate a polynomial in a
    root of factor; complete means that the solutions and the leaves list
    every solution."""
    live: list[MultiPoly] = []
    for eq in eqs:
        if not eq:
            continue
        if eq.total_degree() == 0:
            return [], [], True  # a nonzero constant: no solutions, provably
        live.append(eq)

    if not live:
        if not remaining:
            return [{}], [], True
        # a positive-dimensional family: witness with every free variable at 1
        return [{v: 1 for v in remaining}], [], False

    budget[0] -= 1
    if budget[0] < 0:
        return [], [], False

    # prefer a univariate equation: branching on its exact rational roots
    for eq in live:
        var = _univariate_profile(eq)
        if var is None:
            continue
        rational, residual = _exact_roots(_coeff_list(eq, var))
        others = tuple(v for v in remaining if v != var)
        if len(residual) > 1 and others:
            # branching would lose the irrational factor; a linear
            # elimination first can leave it to the last variable of the
            # branch, a leaf
            eliminated = _eliminate_linear(live, remaining, budget)
            if eliminated is not None:
                return eliminated
        solutions: list[dict[str, Scalar]] = []
        leaves: list = []
        complete = len(residual) == 1 or not others
        if len(residual) > 1 and not others:
            # the last variable: the irrational roots every equation
            # shares are those of a squarefree factor, kept as a leaf
            factor = _poly_divmod(list(residual), _poly_gcd(
                residual, poly_derivative(residual)))[0]
            for e in live:
                if e is not eq:
                    factor = _poly_gcd(factor, _coeff_list(e, var))
            if len(factor) > 1:
                leaves.append((tuple(factor), {var: (1, 0)}))
        for root, _mult in rational:
            reduced = [
                e.substitute({var: root}) if var in e.vars else e
                for e in live
                if e is not eq
            ]
            sub_solutions, sub_leaves, sub_complete = _solve_branch(
                reduced, others, budget)
            complete = complete and sub_complete
            for s in sub_solutions:
                s[var] = root
                solutions.append(s)
            for _, values in sub_leaves:
                values[var] = (root,)
            leaves += sub_leaves
        return solutions, leaves, complete

    # otherwise eliminate a variable that appears linearly with constant
    # coefficient; with neither move, numeric routes take over
    return (_eliminate_linear(live, remaining, budget)
            or ([], [], False))


def _eliminate_linear(live: list[MultiPoly], remaining: tuple[str, ...],
                      budget: list[int]):
    """_solve_branch after eliminating the first variable that appears
    linearly with a constant coefficient, or None if none does."""
    for eq in live:
        for var in remaining:
            split = _linear_constant_coefficient(eq, var)
            if split is None:
                continue
            a, rest = split
            if a == 0:
                continue
            expr = rest * _exact_div(-1, a)   # var := expr over the other vars
            others = tuple(v for v in remaining if v != var)
            reduced = [
                e.substitute({var: expr}) if var in e.vars else e
                for e in live
                if e is not eq
            ]
            sub_solutions, sub_leaves, sub_complete = _solve_branch(
                reduced, others, budget)
            for s in sub_solutions:
                s[var] = expr.evaluate(s)
            for factor, values in sub_leaves:
                values[var] = tuple(_at_leaf(expr, values, factor))
            return sub_solutions, sub_leaves, sub_complete
    return None


def solve_poly_system(eqs: Sequence[MultiPoly],
                      variables: Sequence[str]) -> ExactSolveResult:
    """Solve a small polynomial system exactly where the structure allows.

    The strategy alternates two moves: branch on the complete set of rational
    roots of a univariate equation, and eliminate a variable appearing
    linearly with a constant coefficient, which goes first where the
    univariate equation has an irrational residual and other variables
    are left (branching would lose it).  An irrational residual in the
    last variable of a branch is kept as a Leaf, the other coordinates
    composed into polynomials in its root; no floating point is used.
    Systems that offer neither move are left to the numeric pipeline; the
    completeness flag records whether the rational points alone are
    provably exhaustive.
    """
    vars_t = tuple(variables)
    normalized = [eq.embed(vars_t) if eq.vars != vars_t else eq for eq in eqs]
    budget = [_MAX_BRANCHES]
    raw, raw_leaves, complete = _solve_branch(list(normalized), vars_t,
                                              budget)

    points: list[tuple[Scalar, ...]] = []
    for solution in raw:
        point = tuple(solution[v] for v in vars_t)
        if all(eq.evaluate(solution) == 0 for eq in normalized) and point not in points:
            points.append(point)
    leaves = tuple(Leaf(factor, tuple(tuple(values[v]) for v in vars_t))
                   for factor, values in raw_leaves
                   if all(_at_leaf(eq, values, factor) == [0]
                          for eq in normalized))
    return ExactSolveResult(tuple(points), complete and not raw_leaves,
                            leaves if complete else ())


def _components(eqs: Sequence[MultiPoly]) -> list[list[int]]:
    """Connected components of the square system eqs, by union-find.

    Coordinate i is linked with every coordinate that occurs in eqs[i].
    Each component lists its indices in increasing order, and the
    components come in the order of their first index.  The system's
    zeros are the products of its components' only when every equation
    vanishes at the origin, so a constant term makes one component.
    """
    if any(eq.constant_term() for eq in eqs):
        return [list(range(len(eqs)))]
    parent = list(range(len(eqs)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, eq in enumerate(eqs):
        for j in {j for exps in eq.terms for j, e in enumerate(exps) if e}:
            parent[root(j)] = root(i)
    groups: dict[int, list[int]] = {}
    for i in range(len(eqs)):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def _surviving_patterns(supports: Sequence[Sequence[int]], n: int):
    """The zero patterns of n coordinates that the support rule leaves, in
    increasing index order, the all-zero pattern left out.

    supports lists each equation's terms as bit masks of the coordinates
    they read (coordinate k is bit n-1-k), and a pattern's index is the
    mask of its clamped coordinates.  The rule rejects a pattern in which
    some equation keeps exactly one term, all of whose coordinates are
    free.  A depth-first search assigns the coordinates in order, free
    before clamped, so a subtree holds a run of consecutive indices.  At
    each node a term is dead (it reads a clamped coordinate), alive (every
    coordinate it reads is free) or undecided.  A node is cut when some
    equation keeps one non-dead term and that term is alive; when that one
    term has a single undecided coordinate, the coordinate is clamped, or
    the term would come alive.
    """
    def propagate(free: int, clamped: int) -> int | None:
        """clamped with every forced coordinate added, or None if cut."""
        while True:
            forced = 0
            for support in supports:
                live = [s for s in support if not s & clamped]
                if len(live) == 1:
                    undecided = live[0] & ~free
                    if not undecided:
                        return None
                    if not undecided & (undecided - 1):
                        forced |= undecided
            if not forced:
                return clamped
            clamped |= forced

    full = (1 << n) - 1
    stack = [(0, 0)]
    while stack:
        free, clamped = stack.pop()
        clamped = propagate(free, clamped)
        if clamped is None:
            continue
        undecided = full & ~(free | clamped)
        if undecided:
            # the first undecided coordinate; free is popped first
            bit = 1 << (undecided.bit_length() - 1)
            stack += [(free, clamped | bit), (free | bit, clamped)]
        elif clamped != full:
            yield clamped


def _clamp(poly: MultiPoly, free: Sequence[int],
           free_vars: tuple[str, ...]) -> MultiPoly:
    """poly with every coordinate outside free set to zero, on free_vars
    (the variables at free), divided by the largest monomial that divides
    it.  The terms keep their order; a term with a clamped exponent drops
    out, and no two others meet, so no coefficient is touched."""
    terms = {}
    for exps, c in poly.terms.items():
        local = tuple(exps[j] for j in free)
        if sum(local) == sum(exps):
            terms[local] = c
    if terms:
        low = tuple(map(min, zip(*terms)))
        if any(low):
            terms = {tuple(map(operator.sub, e, low)): c
                     for e, c in terms.items()}
    return MultiPoly._trusted(free_vars, terms)


def _embed(local: Sequence[Scalar], coords: Sequence[int],
           m: int) -> tuple[Scalar, ...]:
    """A point on the coordinates coords in all m, zero elsewhere."""
    point = [0] * m
    for i, x in zip(coords, local):
        point[i] = x
    return tuple(point)


def _pattern_solves(eqs: Sequence[MultiPoly], component: Sequence[int],
                    variables: Sequence[str]):
    """The exact search of one component of the square system eqs
    (``_components``): (index, free, result, whole) for each zero pattern
    the support rule leaves (``_surviving_patterns``), solved as drawn.

    Bit n-1-k of index clamps the component's coordinate k to zero, free
    lists the others, and result is solve_poly_system of the pattern's
    saturated system (``_clamp``: ``q + u q^2 + 2v pq`` becomes ``1 + u q
    + 2v p``) on the variables at free, which holds every zero of the
    component nonzero just at free.  whole says that system is the
    component's own: the all-free one, when no coordinate divides every
    term of an equation.
    """
    n = len(component)
    bits = [1 << (n - 1 - k) for k in range(n)]
    local_eqs = [eqs[i].embed(variables) for i in component]
    supports = [[sum(b for b, j in zip(bits, component) if exps[j])
                 for exps in eq.terms] for eq in local_eqs]
    whole = not any(reduce(operator.and_, support, 2 ** n - 1)
                    for support in supports)
    for index in _surviving_patterns(supports, n):
        free = [i for b, i in zip(bits, component) if not index & b]
        free_vars = tuple(variables[i] for i in free)
        yield index, free, solve_poly_system(
            [_clamp(eq, free, free_vars) for eq in local_eqs],
            free_vars), whole and index == 0


def _component_points(eqs: Sequence[MultiPoly], component: Sequence[int],
                      variables: Sequence[str]) -> tuple[list, bool]:
    """The exact points of a component's pattern solves
    (``_pattern_solves``), once each, zero off the component, and whether
    every solve was complete (then they hold all its zeros but the
    origin).  A complete solve of the whole system ends the search."""
    points: list[tuple[Scalar, ...]] = []
    complete = True
    for _, free, result, whole in _pattern_solves(eqs, component, variables):
        for partial in result.points:
            point = _embed(partial, free, len(variables))
            if point not in points:
                points.append(point)
        complete = complete and result.complete
        if whole and result.complete:
            break
    return points, complete


def snap_rational(value) -> Scalar | None:
    """Closest rational with denominator at most 10^6 within 1e-9, or None;
    an exact scalar in canonical form (as_fraction).

    Complex inputs qualify only when the imaginary part is below 1e-9.  Being
    within 1e-9 is not enough on its own: under a denominator cap D every real
    has an approximant with error about 1/D^2, so the candidate must also beat
    the generic convergent quality 1/q^2 by a factor of 1000.  The caller is
    expected to re-verify the snapped value exactly; this function only
    proposes a candidate.
    """
    if isinstance(value, (int, Fraction)):
        return as_fraction(value)
    if isinstance(value, complex):
        if abs(value.imag) > _SNAP_TOL:
            return None
        value = value.real
    if not math.isfinite(value):
        return None
    candidate = Fraction(value).limit_denominator(_SNAP_MAX_DENOMINATOR)
    err = abs(candidate - value)
    if err > _SNAP_TOL:
        return None
    if err * 1000 * candidate.denominator ** 2 > 1:
        return None
    return _canonical(candidate)
