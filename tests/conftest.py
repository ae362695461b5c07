"""Shared fixtures: the worked systems every suite keeps coming back to."""

from fractions import Fraction

import pytest

from kovex.vfmodel import WeightCertificate, fields_from_problem
from kovex.vfparse import parse_problem

CUBIC_2D = """
variables = [x:2, y:3]
F.1 = "y"
F.2 = "6*x^2"
"""

# two uncoupled copies of the cubic-potential oscillator; the commuting field
# generates the flow of the first copy alone (degree 1)
PAIR_4D_DEG1 = """
variables = [q1:2, p1:3, q2:2, p2:3]
H_F = "1/2*p1^2 - 2*q1^3 + 1/2*p2^2 - 2*q2^3"
H_G = "1/2*p1^2 - 2*q1^3"
"""

# coupled 4-dimensional pair with a commuting field of degree 3
PAIR_4D_DEG3 = """
variables = [q1:2, p1:5, q2:4, p2:3]
H_F = "2*p1*p2 + 3*p2^2*q1 + q1^4 - q1^2*q2 - q2^2"
H_G = "p1^2 + 2*p1*p2*q1 - q1^5 + p2^2*q2 + 3*q1^3*q2 - 2*q1*q2^2"
"""


def canonical(value) -> bool:
    """Whether value is an exact scalar in kovex's canonical form
    (exactalg.as_fraction): an int, never a bool, exactly when its
    denominator is 1, else a Fraction.  A float or complex is not."""
    if type(value) is int:
        return True
    return type(value) is Fraction and value.denominator != 1


# session scope is safe: every object handed out here and in the suites'
# own session fixtures is a frozen dataclass built from tuples.  The one
# private state, the prefix tree a LaurentSolution from build_series keeps
# for its first expansion, is no part of its value and leaves it on that
# expansion; a later expansion packs the coefficients and gives the same
# vectors, so no test can change what another one sees

@pytest.fixture(scope="session")
def cubic2d():
    spec = parse_problem(CUBIC_2D)
    f, _ = fields_from_problem(spec)
    return f, WeightCertificate(spec.weights, 1)


@pytest.fixture(scope="session")
def pair4d_deg1():
    spec = parse_problem(PAIR_4D_DEG1)
    f, g = fields_from_problem(spec)
    return f, g, WeightCertificate(spec.weights, 1)


@pytest.fixture(scope="session")
def pair4d_deg3():
    spec = parse_problem(PAIR_4D_DEG3)
    f, g = fields_from_problem(spec)
    return f, g, WeightCertificate(spec.weights, 1)
