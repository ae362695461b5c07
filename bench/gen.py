"""Seeded generator of the ``loci_scale`` problems, with closed-form answers.

Each problem is a set of uncoupled copies of three one-degree-of-freedom
blocks, every one quasi-homogeneous of degree 1 with random rational
coefficients:

* ``cubic``   weights (2, 3):  q' = a p,             p' = b q^2
* ``quartic`` weights (1, 2):  q' = a p,             p' = b q^3
* ``p4``      weights (1, 1):  q' = u q^2 + 2 v p q, p' = -2 u p q - v p^2

Their nonzero balances (-w_q c_q = f_q(c), -w_p c_p = f_p(c)) and the
Kovalevskaya exponents there follow by hand:

* cubic:   (6/(ab), -12/(a^2 b)), exponents {-1, 6}
* quartic: (+-s, -+s/a) where b = 2/(a s^2), exponents {-1, 4}
* p4:      (-1/u, 0), (0, 1/v), (1/u, -1/v), exponents {-1, 3} at each

At a zero block the exponents are its weights (the block is linear or
zero near the origin, plus diag(weights)).  The balances of the uncoupled
problem are the products of per-block balances, the zero block included,
minus the origin, and its spectrum is the union of the block spectra.
The program only ever sees the generated ``.kov`` text.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

WEIGHTS = {"cubic": (2, 3), "quartic": (1, 2), "p4": (1, 1)}
_NONZERO_EXPONENTS = {"cubic": (-1, 6), "quartic": (-1, 4), "p4": (-1, 3)}


@dataclass(frozen=True)
class Block:
    kind: str
    coeffs: tuple[Fraction, ...]
    """(a, b) for cubic and quartic, (u, v) for p4."""

    def components(self, q: str, p: str) -> tuple[list, list]:
        """The two field components as [(coefficient, monomial), ...]."""
        c0, c1 = self.coeffs
        if self.kind == "cubic":
            return [(c0, p)], [(c1, f"{q}^2")]
        if self.kind == "quartic":
            return [(c0, p)], [(c1, f"{q}^3")]
        return ([(c0, f"{q}^2"), (2 * c1, f"{p}*{q}")],
                [(-2 * c0, f"{p}*{q}"), (-c1, f"{p}^2")])

    def evaluate(self, q: Fraction, p: Fraction) -> tuple[Fraction, Fraction]:
        """The block's field at (q, p), in the benchmark's own arithmetic."""
        c0, c1 = self.coeffs
        if self.kind == "cubic":
            return c0 * p, c1 * q * q
        if self.kind == "quartic":
            return c0 * p, c1 * q ** 3
        return c0 * q * q + 2 * c1 * p * q, -2 * c0 * p * q - c1 * p * p

    def balances(self) -> list[tuple[Fraction, Fraction]]:
        """Every balance of the block, the zero one first."""
        c0, c1 = self.coeffs
        zero = (Fraction(0), Fraction(0))
        if self.kind == "cubic":
            return [zero, (6 / (c0 * c1), -12 / (c0 * c0 * c1))]
        if self.kind == "quartic":
            s = self.root
            return [zero, (s, -s / c0), (-s, s / c0)]
        return [zero, (-1 / c0, Fraction(0)), (Fraction(0), 1 / c1),
                (1 / c0, -1 / c1)]

    @property
    def root(self) -> Fraction:
        """s with b = 2/(a s^2), s > 0 (quartic only)."""
        c0, c1 = self.coeffs
        square = Fraction(2) / (c0 * c1)
        num, den = _isqrt_exact(square.numerator), _isqrt_exact(square.denominator)
        return Fraction(num, den)

    def exponents(self, balance) -> tuple[int, ...]:
        if any(balance):
            return _NONZERO_EXPONENTS[self.kind]
        return WEIGHTS[self.kind]


def _isqrt_exact(n: int) -> int:
    r = math.isqrt(n)
    if r * r != n:
        raise ValueError(f"{n} is not a perfect square")
    return r


@dataclass(frozen=True)
class Problem:
    name: str
    blocks: tuple[Block, ...]
    height: int
    declared: bool

    @property
    def dim(self) -> int:
        return 2 * len(self.blocks)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(w for b in self.blocks for w in WEIGHTS[b.kind])

    def text(self) -> str:
        names = [(f"q{k + 1}", f"p{k + 1}") for k in range(len(self.blocks))]
        if self.declared:
            decl = ", ".join(f"{v}:{w}" for v, w in
                             zip((v for pair in names for v in pair), self.weights))
        else:
            decl = ", ".join(v for pair in names for v in pair)
        lines = [f"# generated: {', '.join(b.kind for b in self.blocks)}; "
                 f"coefficient height {self.height}",
                 f"variables = [{decl}]"]
        comp = 1
        for block, (q, p) in zip(self.blocks, names):
            for terms in block.components(q, p):
                lines.append(f'F.{comp} = "{_poly_text(terms)}"')
                comp += 1
        return "\n".join(lines) + "\n"

    def expected_loci(self) -> dict[tuple[Fraction, ...], tuple[int, ...]]:
        """Every balance of the problem mapped to its sorted exponents."""
        out = {}
        for combo in product(*(b.balances() for b in self.blocks)):
            point = tuple(x for pair in combo for x in pair)
            if not any(point):
                continue
            spectrum = sorted(e for b, bal in zip(self.blocks, combo)
                              for e in b.exponents(bal))
            out[point] = tuple(spectrum)
        return out

    def indicial_residual(self, point) -> list[Fraction]:
        """-a_i c_i - F_i(c), component by component; all zero at a balance."""
        out = []
        for k, block in enumerate(self.blocks):
            q, p = point[2 * k], point[2 * k + 1]
            fq, fp = block.evaluate(q, p)
            wq, wp = WEIGHTS[block.kind]
            out += [-wq * q - fq, -wp * p - fp]
        return out


def _poly_text(terms) -> str:
    parts = []
    for coeff, mono in terms:
        sign = "-" if coeff < 0 else "+"
        parts.append(f"{sign} {abs(coeff)}*{mono}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _primes(low: int, high: int) -> list[int]:
    return [n for n in range(max(low, 2), high + 1)
            if all(n % d for d in range(2, int(n ** 0.5) + 1))]


def _rationals(rng: random.Random, height: int, count: int,
               used: set[int]) -> list[Fraction]:
    """``count`` random nonzero rationals of about the given height.

    Numerators and denominators are primes from the top fifth of
    [1, height], or from its top half when the fifth holds too few, all
    distinct and none in ``used`` (which gains them); when too few are
    left, only the two primes of each rational differ.  At heights 1 and 2
    the values are +-1.  The size of the integers the exact solver clears
    and trial-divides is then set by the height rather than by the luck of
    the draw (no cancellation, no small factors), so the cost of a pass
    does not swing with the seed.
    """
    pool = [p for p in _primes(-(-4 * height // 5), height) if p not in used]
    if len(pool) < 2 * count:
        pool = [p for p in _primes((height + 1) // 2, height) if p not in used]
    if len(pool) >= 2 * count:
        picked = rng.sample(pool, 2 * count)
        used.update(picked)
        pairs = list(zip(picked[::2], picked[1::2]))
    else:
        pool = _primes((height + 1) // 2, height)
        pairs = ([rng.sample(pool, 2) for _ in range(count)]
                 if len(pool) >= 2 else [(1, 1)] * count)
    return [Fraction(p, q) * rng.choice((1, -1)) for p, q in pairs]


def make_block(rng: random.Random, kind: str, height: int,
               used: set[int]) -> Block:
    if kind == "quartic":
        # b = 2/(a s^2) keeps the balance rational; s takes a cube root of
        # the height so that b stays near the size of a
        a, = _rationals(rng, height, 1, used)
        s = abs(_rationals(rng, round(height ** (1 / 3)), 1, used)[0])
        return Block(kind, (a, Fraction(2) / (a * s * s)))
    return Block(kind, tuple(_rationals(rng, height, 2, used)))


# One pass of loci_scale: (blocks, coefficient height, weights declared).
# Dimensions 4 to 8, heights 1 to 10^3, every block kind at height 10^3,
# and half the problems leave their weights to inference.  p4 blocks stay
# at dimension 4: the cost of their Newton-only balances swings by half
# with the seed at dimension 6.  The caps keep a
# run short; they do not hide the costs, which show inside them (two cubic
# blocks take about 10x longer at height 10^3 than at height 1).  Past the
# caps, on 2 cores: two cubic blocks take 34 s at height 10^4 and do not
# end in 45 s at height 10^5 (trial division in exactalg._divisors via
# _rational_root); inferring the weights of three cubic blocks takes 11 s
# (infer_weights enumerates max_weight^m vectors); four cubic blocks at
# height 1 take 3.7 s, nearly all of it the locus search.
SLOTS = (
    (("cubic", "quartic"), 1000, False),
    (("quartic", "p4"), 100, False),
    (("p4", "p4"), 1000, False),
    (("cubic", "p4"), 10, False),
    (("quartic", "cubic"), 10, False),
    (("quartic", "quartic"), 1000, True),
    (("cubic", "cubic"), 1000, True),
    (("p4", "quartic"), 1, True),
    (("cubic", "quartic", "quartic"), 10, True),
    (("cubic", "cubic", "cubic", "cubic"), 1, True),
)


def make_problems(seed: int) -> list[Problem]:
    """The loci_scale problems for one seed: the coefficients come from the
    seed, the slot table above fixes everything else."""
    rng = random.Random(seed)
    problems = []
    for index, (kinds, height, declared) in enumerate(SLOTS):
        used: set[int] = set()
        blocks = tuple(make_block(rng, kind, height, used) for kind in kinds)
        name = f"g{index}_d{2 * len(kinds)}_h{height}_{'w' if declared else 'i'}"
        problems.append(Problem(name, blocks, height, declared))
    return problems
