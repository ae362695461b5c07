"""Exact rational arithmetic: multivariate polynomials, dense matrices, root isolation.

The analysis pipeline runs on fractions.Fraction end to end.  There is deliberately
no algebraic-number tower: when a quantity fails to be rational, we keep the exact
residual factor together with certified numeric approximations of its roots instead
of extending the scalar field.  Matrices are dense; every system in this problem
class is tiny (dimension = number of phase-space variables).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200


def as_fraction(value: object) -> Fraction:
    """Coerce an int or Fraction; reject floats so inexactness can't sneak in."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


class NumericNonConvergence(RuntimeError):
    """The numeric root refinement failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# multivariate polynomials


class MultiPoly:
    """Polynomial over Q in named variables.

    ``terms`` maps exponent tuples (aligned with ``vars``) to nonzero Fraction
    coefficients; the zero polynomial has an empty term map.  Instances are
    treated as immutable.  Arithmetic between polynomials with different
    variable tuples merges them into the sorted union.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str] = (),
                 terms: Mapping[tuple[int, ...], Scalar] | None = None):
        vs = tuple(vars)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs!r}")
        clean: dict[tuple[int, ...], Fraction] = {}
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
                 terms: dict[tuple[int, ...], Fraction]) -> "MultiPoly":
        """Wrap arithmetic output without re-validating it.

        The caller guarantees distinct variable names, exponent tuples of
        matching length with nonnegative entries, and nonzero Fraction
        coefficients.  Every arithmetic result below is clean by
        construction, and revalidating it took about a quarter of the
        Laurent-series profile.
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
        out: dict[tuple[int, ...], Fraction] = {}
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
                out[e] = s
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
            return MultiPoly._trusted(
                self.vars, {e: k * c for e, k in self.terms.items()})
        a, b = self._aligned(other)
        out: dict[tuple[int, ...], Fraction] = {}
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
        return MultiPoly._trusted(a.vars, out)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "MultiPoly":
        c = as_fraction(other)
        if not c:
            raise ZeroDivisionError("polynomial divided by zero scalar")
        return self * (Fraction(1) / c)

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
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            e = list(exps)
            e[i] -= 1
            out[tuple(e)] = c * exps[i]
        return MultiPoly(self.vars, out)

    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at a point; exact for Fraction/int inputs, numeric otherwise.

        Every variable that actually occurs must be assigned.  Returns
        Fraction(0) for the zero polynomial regardless of input types.
        """
        for i, v in enumerate(self.vars):
            if v not in values and any(e[i] for e in self.terms):
                raise KeyError(f"no value supplied for {v!r}")
        total = None
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(self.vars, exps):
                if e:
                    term = term * values[v] ** e
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

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
        out: dict[tuple[int, ...], Fraction] = {}
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
        return MultiPoly._trusted(vars_t, {e: c for e, c in out.items() if c})

    # -- structure queries

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def total_degree(self) -> int | None:
        """Maximum total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def weighted_degrees(self, weights: Sequence[Scalar]) -> set[Fraction]:
        """Set of weighted degrees sum(w_i * e_i) over the support."""
        ws = [as_fraction(w) for w in weights]
        if len(ws) != len(self.vars):
            raise ValueError("weight vector length must match variable count")
        return {sum(w * e for w, e in zip(ws, exps)) for exps in self.terms}

    def quasi_homogeneous_degree(self, weights: Sequence[Scalar]) -> Fraction | None:
        """The common weighted degree of all terms, or None if mixed or zero."""
        degs = self.weighted_degrees(weights)
        if len(degs) != 1:
            return None
        return next(iter(degs))

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


class ExactMatrix:
    """Dense matrix over Q."""

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

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls([[0] * ncols for _ in range(nrows)])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.data[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.data == other.data

    __hash__ = None

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return ExactMatrix([[a + b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + (other * Fraction(-1))

    def __mul__(self, other: object) -> "ExactMatrix":
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in matrix product")
            cols = list(zip(*other.data))
            return ExactMatrix([[sum(a * b for a, b in zip(row, col))
                                 for col in cols] for row in self.data])
        c = as_fraction(other)
        return ExactMatrix([[x * c for x in row] for row in self.data])

    def __rmul__(self, other: object) -> "ExactMatrix":
        return self * other

    def matvec(self, vec: Sequence[Scalar]) -> tuple[Fraction, ...]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        v = [as_fraction(x) for x in vec]
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace needs a square matrix")
        return sum((self.data[i][i] for i in range(self.nrows)), Fraction(0))

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        rows = [list(r) for r in self.data]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            if r == self.nrows:
                break
            pivot_row = next((i for i in range(r, self.nrows) if rows[i][c]), None)
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            pv = rows[r][c]
            rows[r] = [x / pv for x in rows[r]]
            for i in range(self.nrows):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        return ExactMatrix(rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> tuple[tuple[Fraction, ...], ...]:
        """Basis of the null space; one vector per free column, that entry 1."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free_col in range(self.ncols):
            if free_col in pivot_set:
                continue
            v = [Fraction(0)] * self.ncols
            v[free_col] = Fraction(1)
            for row, pc in enumerate(pivots):
                v[pc] = -reduced.data[row][free_col]
            basis.append(tuple(v))
        return tuple(basis)

    def solve_singular(self, rhs: Sequence) -> tuple[tuple, tuple]:
        """Solve A x = b for any A, with b rational or MultiPoly entries.

        One elimination of [A | I] yields the row transform T that brings A
        to reduced row echelon form; T b is read off in two parts.  The
        pivot rows give the particular solution, free coordinates pinned to
        zero so the answer is deterministic.  The rows past the rank give
        the residue, one entry per direction of the left kernel, so a square
        A is singular exactly when the residue is nonempty.  The system is
        consistent exactly when every residue entry vanishes; for aligned
        polynomial entries, the monomials of the residue are the ones whose
        coefficient system has no solution.  Inconsistency is a value, not
        an exception: the series recursion records it as data.
        """
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side length mismatch")
        n = self.ncols
        b = [x if isinstance(x, MultiPoly) else as_fraction(x) for x in rhs]
        zero = b[0] * 0
        reduced, pivots = ExactMatrix(
            [list(row) + [int(i == k) for k in range(self.nrows)]
             for i, row in enumerate(self.data)]).rref()
        transformed = []
        for row in reduced.data:
            total = zero
            for t, value in zip(row[n:], b):
                if t:
                    total = total + value * t
            transformed.append(total)
        rank = sum(1 for pc in pivots if pc < n)
        x = [zero] * n
        for row, pc in enumerate(pivots[:rank]):
            x[pc] = transformed[row]
        return tuple(x), tuple(transformed[rank:])

    def charpoly(self) -> list[Fraction]:
        """Monic characteristic polynomial det(tI - A), descending coefficients.

        Exact similarity transforms bring A to upper Hessenberg form H (a
        zero pivot is replaced by swapping a row and the matching column,
        and a column already zero below the subdiagonal is left as it is);
        the characteristic polynomials of H's leading blocks then follow
        from a recurrence along the subdiagonal (Cohen, A Course in
        Computational Algebraic Number Theory, Alg. 2.2.9).  Both steps
        take O(n^3) operations.
        """
        if self.nrows != self.ncols:
            raise ValueError("characteristic polynomial needs a square matrix")
        n = self.nrows
        h = [list(row) for row in self.data]
        for m in range(1, n - 1):
            pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
            if pivot is None:
                continue
            if pivot != m:
                h[m], h[pivot] = h[pivot], h[m]
                for row in h:
                    row[m], row[pivot] = row[pivot], row[m]
            t = h[m][m - 1]
            for i in range(m + 1, n):
                u = h[i][m - 1] / t
                if not u:
                    continue
                # row i -= u * row m, then column m += u * column i
                h[i] = [a - u * b for a, b in zip(h[i], h[m])]
                for row in h:
                    if row[i]:
                        row[m] += u * row[i]
        # polys[k] = det(tI - H[:k, :k]), descending coefficients
        polys = [[Fraction(1)]]
        for m in range(n):
            prev = polys[-1]
            p = [a - h[m][m] * b for a, b in zip(prev + [0], [0] + prev)]
            t = Fraction(1)
            for i in range(m - 1, -1, -1):
                t *= h[i + 1][i]
                if not t:
                    break
                c = h[i][m] * t
                if c:
                    lower = polys[i]
                    offset = len(p) - len(lower)
                    for k, b in enumerate(lower):
                        p[offset + k] -= c * b
            polys.append(p)
        return polys[-1]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"ExactMatrix[{body}]"


# ---------------------------------------------------------------------------
# univariate root isolation: exact first, certified numerics for the rest


def poly_eval(coeffs: Sequence, x):
    """Horner evaluation; exact when both coefficient and point are exact."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_derivative(coeffs: Sequence[Fraction]) -> list[Fraction]:
    n = len(coeffs) - 1
    if n <= 0:
        return [Fraction(0)]
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _trim(coeffs: list[Fraction]) -> list[Fraction]:
    i = 0
    while i < len(coeffs) - 1 and coeffs[i] == 0:
        i += 1
    return coeffs[i:]


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = _trim(list(num))
    den = _trim(list(den))
    if den == [Fraction(0)]:
        raise ZeroDivisionError("polynomial division by zero")
    if len(num) < len(den):
        return [Fraction(0)], num
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(quot)):
        q = rem[i] / den[0]
        quot[i] = q
        if q:
            for j, d in enumerate(den):
                rem[i + j] -= q * d
    return quot, _trim(rem)


def _poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd over Q."""
    x, y = _trim(list(a)), _trim(list(b))
    while y != [Fraction(0)]:
        x, y = y, _poly_divmod(x, y)[1]
    lead = x[0]
    return [c / lead for c in x] if lead else x


def _squarefree_factors(coeffs: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun decomposition of a monic polynomial: [(squarefree factor, multiplicity)]."""
    if len(coeffs) <= 1:
        return []
    deriv = poly_derivative(coeffs)
    a = _poly_gcd(coeffs, deriv)
    b = _poly_divmod(coeffs, a)[0]
    c = _poly_divmod(deriv, a)[0]
    d = [x - y for x, y in _padded(c, poly_derivative(b))]
    out: list[tuple[list[Fraction], int]] = []
    i = 1
    while len(b) > 1:
        factor = _poly_gcd(b, d)
        if len(factor) > 1:
            out.append((factor, i))
        b = _poly_divmod(b, factor)[0]
        c = _poly_divmod(d, factor)[0]
        d = [x - y for x, y in _padded(c, poly_derivative(b))]
        i += 1
    return out


def _padded(a: list[Fraction], b: list[Fraction]):
    """Zip two descending coefficient lists, aligning at the constant term."""
    la, lb = len(a), len(b)
    n = max(la, lb)
    pa = [Fraction(0)] * (n - la) + list(a)
    pb = [Fraction(0)] * (n - lb) + list(b)
    return zip(pa, pb)


def _integer_part(coeffs: Sequence[Fraction]) -> list[int]:
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


def _positive_rational_roots(coeffs: list[int], lead: int) -> list[Fraction]:
    """Positive rational roots of an integer polynomial with p(0) != 0.

    coeffs ascend.  Every positive rational root is k/lead for an integer
    k, so an interval needs a closer look only while it holds two or more
    such candidates and Descartes' rule of signs allows a root in it; an
    interval holding one candidate is settled by evaluating p there
    exactly.  Intervals are bisected at dyadic points, which are tested
    for roots as they appear (Collins & Akritas 1976, on Python ints).
    """
    if _sign_changes(coeffs) == 0:
        return []
    # Fujiwara: every root has |z| < 2 max_i |a_{n-i}/a_n|^(1/i) <= 2^bound
    top = coeffs[-1].bit_length()
    bound = max(0, 1 + max(-((top - 1 - abs(c).bit_length()) // i)
                           for i, c in enumerate(reversed(coeffs[:-1]), 1)
                           if c))

    def vanishes_at(k: int) -> bool:
        # lead^n p(k/lead), by Horner on integers
        acc, power = coeffs[-1], 1
        for c in reversed(coeffs[:-1]):
            power *= lead
            acc = acc * k + c * power
        return acc == 0

    found: list[Fraction] = []
    # p(2^bound x) on (0, 1); an entry (q, num, e) stands for the interval
    # 2^bound (num, num + 1) / 2^e, q being p mapped onto (0, 1)
    pending = [([c << (bound * i) for i, c in enumerate(coeffs)], 0, 0)]
    while pending:
        poly, num, e = pending.pop()
        first = ((lead * num) << bound >> e) + 1
        last = (((lead * (num + 1)) << bound) - 1) >> e
        if first > last:
            continue
        if first == last:
            if vanishes_at(first):
                found.append(Fraction(first, lead))
            continue
        if _sign_changes(_shift_by_one(poly[::-1])) == 0:
            continue
        d = len(poly) - 1
        left = [c << (d - i) for i, c in enumerate(poly)]
        right = _shift_by_one(left)
        if right[0] == 0:
            found.append(Fraction((2 * num + 1) << bound, 1 << (e + 1)))
            while right[0] == 0:
                right = right[1:]
        pending.append((left, 2 * num, e + 1))
        pending.append((right, 2 * num + 1, e + 1))
    return found


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Every distinct rational root of a rational polynomial, ascending.

    coeffs descend.  The search runs on the square-free integer part f of
    the polynomial: by the rational root theorem each rational root of f
    is k/lead with lead the leading coefficient of f, and exact real-root
    isolation narrows every interval that may hold a root until it holds
    at most one such candidate (at the latest once it is narrower than
    1/lead), which exact evaluation then accepts or rejects.  The search
    is complete, and its cost grows with the bit size of the coefficients
    rather than with their magnitude.
    """
    exact = _trim([as_fraction(c) for c in coeffs])
    found: list[Fraction] = []
    if len(exact) > 1 and exact[-1] == 0:
        found.append(Fraction(0))
        while exact[-1] == 0:
            exact.pop()
    if len(exact) > 1:
        squarefree = _poly_divmod(
            exact, _poly_gcd(exact, poly_derivative(exact)))[0]
        ascending = _integer_part(squarefree)[::-1]
        lead = abs(ascending[-1])
        found.extend(_positive_rational_roots(ascending, lead))
        mirrored = [-c if i % 2 else c for i, c in enumerate(ascending)]
        found.extend(-r for r in _positive_rational_roots(mirrored, lead))
    return sorted(found)


def _deflate(coeffs: list[Fraction],
             root: Fraction) -> tuple[list[Fraction], Fraction]:
    """Exact synthetic division by (x - root): (quotient, remainder)."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1] * root)
    return out, coeffs[-1] + out[-1] * root


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
    return sorted(z, key=lambda v: (v.real, v.imag))


@dataclass(frozen=True)
class RootSet:
    """Roots of a univariate rational polynomial, exact part separated.

    rational_roots lists (root, multiplicity) pairs.  residual_factor is the
    monic rational polynomial left after dividing them out (length 1 means
    fully factored); numeric_roots approximate its roots as
    (value, multiplicity, error).  The error is the backward error of the
    squarefree factor f the root came from: |f(z)| / max(1, sum |f_i| |z|^i),
    i.e. the relative coefficient perturbation under which z is an exact root.
    """

    rational_roots: tuple[tuple[Fraction, int], ...]
    residual_factor: tuple[Fraction, ...]
    numeric_roots: tuple[tuple[complex, int, float], ...]

    @property
    def is_fully_rational(self) -> bool:
        return len(self.residual_factor) == 1

    def multiset(self) -> tuple:
        """Every root repeated by multiplicity, sorted by (re, im).

        Rational roots stay Fractions and numeric ones stay complex; on a
        tie the rational root comes first.
        """
        out: list = []
        for r, m in self.rational_roots:
            out.extend([r] * m)
        for z, m, _ in self.numeric_roots:
            out.extend([z] * m)
        return tuple(sorted(out, key=lambda v: (complex(v).real,
                                                complex(v).imag)))


def roots_exact_first(coeffs: Sequence[Scalar], tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> RootSet:
    """Find all roots: complete rational search, then certified numerics.

    The rational stage is complete: ``rational_roots`` isolates the real
    roots once, without trial division, and finds every rational root;
    exact deflation by each of them then gives its multiplicity, so every
    rational root lands in ``rational_roots`` with its exact multiplicity.
    The residual is split into squarefree factors exactly (Yun), which
    hands the numeric stage only simple roots; each numeric root must have
    backward error <= tol or NumericNonConvergence is raised.
    """
    exact = [as_fraction(c) for c in coeffs]
    if not exact or exact[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    monic = [c / exact[0] for c in exact]

    rational: dict[Fraction, int] = {}
    for root in rational_roots(monic):
        rational[root] = 0
        while len(monic) > 1:
            quotient, remainder = _deflate(monic, root)
            if remainder:
                break
            monic = quotient
            rational[root] += 1

    residual = tuple(monic)
    numeric: list[tuple[complex, int, float]] = []
    if len(monic) > 1:
        for factor, multiplicity in _squarefree_factors(list(monic)):
            approx = _aberth([float(c) for c in factor], max_iter)
            for z in approx:
                scale = 1.0
                power = 1.0
                for c in reversed(factor):
                    scale = max(scale, abs(c) * power)
                    power *= abs(z)
                err = abs(poly_eval(factor, z)) / scale
                numeric.append((z, multiplicity, err))
        bad = [z for z, _, err in numeric if err > tol]
        if bad:
            raise NumericNonConvergence(
                f"numeric roots {bad} exceed tolerance {tol} after {max_iter} iterations")

    return RootSet(
        rational_roots=tuple(sorted(rational.items())),
        residual_factor=residual,
        numeric_roots=tuple(sorted(numeric, key=lambda t: (t[0].real, t[0].imag))),
    )


# ---------------------------------------------------------------------------
# exact solving of small polynomial systems


@dataclass(frozen=True)
class ExactSolveResult:
    """Concrete rational solutions of a polynomial system.

    complete is True only when the branching provably enumerated every
    solution.  Branches ending with leftover freedom contribute a witness
    point (free coordinates set to 1) and force complete=False, as does an
    irrational residual in any univariate branching step.
    """

    points: tuple[tuple[Fraction, ...], ...]
    complete: bool
    has_free_parameters: bool


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


def _coeff_list(poly: MultiPoly, var: str) -> list[Fraction]:
    """Descending coefficients of a univariate polynomial in var."""
    i = poly.vars.index(var)
    degree = max(exps[i] for exps in poly.terms)
    coeffs = [Fraction(0)] * (degree + 1)
    for exps, c in poly.terms.items():
        coeffs[degree - exps[i]] += c
    return coeffs


def _linear_constant_coefficient(poly: MultiPoly, var: str) -> tuple[Fraction, MultiPoly] | None:
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


def _solve_branch(eqs: list[MultiPoly], remaining: tuple[str, ...],
                  budget: list[int]) -> tuple[list[dict[str, Fraction]], bool, bool]:
    """Returns (solutions over remaining vars, complete, saw free parameters)."""
    live: list[MultiPoly] = []
    for eq in eqs:
        if not eq:
            continue
        if eq.total_degree() == 0:
            return [], True, False  # a nonzero constant: no solutions, provably
        live.append(eq)

    if not live:
        if not remaining:
            return [{}], True, False
        # a positive-dimensional family: witness with every free variable at 1
        return [{v: Fraction(1) for v in remaining}], False, True

    budget[0] -= 1
    if budget[0] < 0:
        return [], False, False

    # prefer a univariate equation: branching on its exact rational roots
    for eq in live:
        var = _univariate_profile(eq)
        if var is None:
            continue
        coeffs = _coeff_list(eq, var)
        try:
            root_set = roots_exact_first(coeffs)
        except NumericNonConvergence:
            return [], False, False
        others = tuple(v for v in remaining if v != var)
        solutions: list[dict[str, Fraction]] = []
        complete = root_set.is_fully_rational
        saw_free = False
        for root, _mult in root_set.rational_roots:
            reduced = [
                e.substitute({var: root}) if var in e.vars else e
                for e in live
                if e is not eq
            ]
            sub_solutions, sub_complete, sub_free = _solve_branch(reduced, others, budget)
            complete = complete and sub_complete
            saw_free = saw_free or sub_free
            for s in sub_solutions:
                s[var] = root
                solutions.append(s)
        return solutions, complete, saw_free

    # otherwise eliminate a variable that appears linearly with constant coefficient
    for eq in live:
        for var in remaining:
            split = _linear_constant_coefficient(eq, var)
            if split is None:
                continue
            a, rest = split
            if a == 0:
                continue
            expr = rest * (Fraction(-1) / a)   # var := expr over the other vars
            others = tuple(v for v in remaining if v != var)
            reduced = [
                e.substitute({var: expr}) if var in e.vars else e
                for e in live
                if e is not eq
            ]
            sub_solutions, sub_complete, sub_free = _solve_branch(reduced, others, budget)
            for s in sub_solutions:
                s[var] = expr.evaluate(s)
            return sub_solutions, sub_complete, sub_free

    return [], False, False  # no handle on this system; numeric routes take over


def solve_poly_system(eqs: Sequence[MultiPoly], variables: Sequence[str],
                      max_branches: int = 512) -> ExactSolveResult:
    """Solve a small polynomial system exactly where the structure allows.

    The strategy alternates two moves: branch on the complete set of rational
    roots of a univariate equation, and eliminate a variable appearing
    linearly with a constant coefficient.  Systems that offer neither move are
    left to the numeric pipeline; the completeness flag records whether the
    enumeration is provably exhaustive.
    """
    vars_t = tuple(variables)
    normalized = [eq.embed(vars_t) if eq.vars != vars_t else eq for eq in eqs]
    budget = [max_branches]
    raw, complete, has_free = _solve_branch(list(normalized), vars_t, budget)

    points: list[tuple[Fraction, ...]] = []
    for solution in raw:
        point = tuple(solution[v] for v in vars_t)
        if all(eq.evaluate(solution) == 0 for eq in normalized) and point not in points:
            points.append(point)
    return ExactSolveResult(tuple(points), complete, has_free)


def snap_rational(value, max_denominator: int = 10 ** 6,
                  tol: float = 1e-9) -> Fraction | None:
    """Closest small-denominator rational within tol, or None.

    Complex inputs qualify only when the imaginary part is below tol.  Being
    within tol is not enough on its own: under a denominator cap D every real
    has an approximant with error about 1/D^2, so the candidate must also beat
    the generic convergent quality 1/q^2 by a factor of 1000.  The caller is
    expected to re-verify the snapped value exactly; this function only
    proposes a candidate.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, complex):
        if abs(value.imag) > tol:
            return None
        value = value.real
    if not math.isfinite(value):
        return None
    candidate = Fraction(value).limit_denominator(max_denominator)
    err = abs(candidate - value)
    if err > tol:
        return None
    if err * 1000 * candidate.denominator ** 2 > 1:
        return None
    return candidate
