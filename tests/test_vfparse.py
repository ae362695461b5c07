"""Expression grammar and problem-file format."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kovex.exactalg import MultiPoly
from kovex.vfparse import (
    DuplicateVariableError,
    ExpressionSyntaxError,
    MissingFieldError,
    NonPolynomialError,
    OddVariableCountError,
    ParseError,
    ProblemFormatError,
    UnknownVariableError,
    _tokenize,
    parse_expression,
    parse_problem,
)

XY = ("x", "y")


def test_simple_sum():
    assert parse_expression("x + y", XY) == MultiPoly(XY, {(1, 0): 1, (0, 1): 1})


def test_coefficient_and_power():
    assert parse_expression("6*x^2", XY) == MultiPoly(XY, {(2, 0): 6})


def test_rational_literal_is_division():
    assert parse_expression("3/2*x", XY) == MultiPoly(XY, {(1, 0): F(3, 2)})
    assert parse_expression("p^2/2", ("q", "p")) == MultiPoly(("q", "p"), {(0, 2): F(1, 2)})


def test_unary_minus_precedence():
    # -x^2 + 3 must read as (-(x^2)) + 3, never -(x^2 + 3)
    p = parse_expression("-x^2 + 3", XY)
    assert p == MultiPoly(XY, {(2, 0): -1, (0, 0): 3})


def test_hamiltonian_style_expression():
    # the reading of chained minus terms pins the whole downstream analysis
    vars4 = ("q1", "p1", "q2", "p2")
    p = parse_expression("-p2^2-3*q1^3+4*q1*q2", vars4)
    assert p == MultiPoly(vars4, {
        (0, 0, 0, 2): -1,
        (3, 0, 0, 0): -3,
        (1, 0, 1, 0): 4,
    })


def test_parenthesized_power():
    assert parse_expression("(x+y)^2", XY) == parse_expression("x^2+2*x*y+y^2", XY)


def test_minus_after_times():
    assert parse_expression("2*-x", XY) == MultiPoly(XY, {(1, 0): -2})


def test_double_negation():
    assert parse_expression("--x", XY) == MultiPoly(XY, {(1, 0): 1})


def test_constant_expression():
    assert parse_expression("7/3 - 1", ()) == MultiPoly((), {(): F(4, 3)})


def test_no_implicit_multiplication():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("2x", XY)
    assert err.value.col == 2


def test_unknown_variable_carries_name_and_position():
    with pytest.raises(UnknownVariableError) as err:
        parse_expression("x + zz", XY)
    assert err.value.name == "zz"
    assert (err.value.line, err.value.col) == (1, 5)


def test_error_position_tracks_lines():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x +\n  $", XY)
    assert (err.value.line, err.value.col) == (2, 3)


def test_negative_exponent_is_non_polynomial():
    with pytest.raises(NonPolynomialError):
        parse_expression("x^-1", XY)


def test_variable_exponent_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x^y", XY)


def test_division_by_variable_is_non_polynomial():
    with pytest.raises(NonPolynomialError):
        parse_expression("1/x", XY)


def test_division_by_zero_constant():
    with pytest.raises(NonPolynomialError):
        parse_expression("x/0", XY)


def test_division_by_parenthesized_constant():
    assert parse_expression("x/(1+1)", XY) == MultiPoly(XY, {(1, 0): F(1, 2)})


def test_unclosed_paren():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(x + y", XY)


def test_trailing_garbage():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x + y )", XY)


def test_empty_expression():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("", XY)


def test_deep_nesting_stays_structured():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(" * 500 + "x" + ")" * 500, XY)


def test_huge_exponent_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x^100000", XY)


def test_float_literal_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("0.5*x", XY)


@st.composite
def printable_polys(draw):
    vars = ("u", "v")
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        e = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
        terms[e] = F(draw(st.integers(-20, 20)), draw(st.integers(1, 9)))
    return MultiPoly(vars, terms)


@settings(max_examples=100)
@given(printable_polys())
def test_str_round_trips_through_parser(p):
    assert parse_expression(str(p), ("u", "v")) == p


# ---------------------------------------------------------------------------
# problem files


WEIERSTRASS = """
# cubic-potential system
variables = [x:2, y:3]
F.1 = "y"
F.2 = "6*x^2"
truncation = 14
"""


def test_parse_problem_componentwise():
    spec = parse_problem(WEIERSTRASS)
    assert spec.variables == ("x", "y")
    assert spec.weights == (2, 3)
    assert spec.f_components == (
        MultiPoly(("x", "y"), {(0, 1): 1}),
        MultiPoly(("x", "y"), {(2, 0): 6}),
    )
    assert spec.h_f is None
    assert spec.g_components is None and spec.h_g is None
    assert spec.truncation == 14


def test_parse_problem_hamiltonian_pair():
    spec = parse_problem("""
    variables = [q1:2, p1:3, q2:2, p2:3]
    H_F = "1/2*p1^2 - 2*q1^3 + 1/2*p2^2 - 2*q2^3"
    H_G = "1/2*p1^2 - 2*q1^3"
    seeds = [[1, -2, 0, 0], [1.0, -2.0, 1.0, -2.0]]
    """)
    assert spec.variables == ("q1", "p1", "q2", "p2")
    assert spec.h_f is not None and spec.h_g is not None
    assert spec.f_components is None
    assert spec.seeds == ((1.0, -2.0, 0.0, 0.0), (1.0, -2.0, 1.0, -2.0))


def test_variables_without_weights():
    spec = parse_problem('variables = [x, y]\nF.1 = "y"\nF.2 = "x"')
    assert spec.weights is None


def test_comment_inside_quotes_preserved():
    # '#' inside a quoted expression is not a comment marker: the tokenizer
    # must actually see it (had it been stripped, the dangling quote would
    # surface as a format error instead)
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_problem('variables = [x]\nF.1 = "x # y"')
    assert "'#'" in err.value.message


def test_duplicate_variable():
    with pytest.raises(DuplicateVariableError):
        parse_problem('variables = [x:1, x:2]\nF.1 = "x"\nF.2 = "x"')


def test_missing_variables_field():
    with pytest.raises(MissingFieldError):
        parse_problem('F.1 = "x"')


def test_missing_field_component():
    with pytest.raises(MissingFieldError) as err:
        parse_problem('variables = [x:1, y:1]\nF.1 = "y"')
    assert "F.2" in str(err.value)


def test_component_out_of_range():
    with pytest.raises(ProblemFormatError):
        parse_problem('variables = [x:1]\nF.1 = "x"\nF.2 = "x"')


def test_both_f_and_hamiltonian():
    with pytest.raises(ProblemFormatError):
        parse_problem('variables = [q:1, p:1]\nF.1 = "p"\nF.2 = "q"\nH_F = "p*q"')


def test_odd_variable_count_for_hamiltonian():
    with pytest.raises(OddVariableCountError):
        parse_problem('variables = [x:1]\nH_F = "x^2"')


def test_mixed_weighted_and_unweighted():
    with pytest.raises(ProblemFormatError):
        parse_problem('variables = [x:1, y]\nF.1 = "y"\nF.2 = "x"')


def test_unknown_key():
    with pytest.raises(ProblemFormatError):
        parse_problem('variables = [x:1]\nF.1 = "x"\nbogus = 3')


def test_duplicate_key():
    with pytest.raises(ProblemFormatError):
        parse_problem('variables = [x:1]\nF.1 = "x"\nF.1 = "x"')


def test_unquoted_expression_rejected():
    with pytest.raises(ProblemFormatError):
        parse_problem("variables = [x:1]\nF.1 = x")


def test_seed_length_mismatch():
    with pytest.raises(ProblemFormatError):
        parse_problem('variables = [x:1, y:1]\nF.1 = "y"\nF.2 = "x"\nseeds = [[1]]')


def test_seed_entries_must_be_numbers():
    with pytest.raises(ProblemFormatError):
        parse_problem('variables = [x:1]\nF.1 = "x"\nseeds = [["a"]]')


def test_bad_truncation():
    with pytest.raises(ProblemFormatError):
        parse_problem('variables = [x:1]\nF.1 = "x"\ntruncation = soon')
    with pytest.raises(ProblemFormatError):
        parse_problem('variables = [x:1]\nF.1 = "x"\ntruncation = -2')


def test_expression_error_reports_file_line():
    with pytest.raises(ParseError) as err:
        parse_problem('variables = [x:1]\n\nF.1 = "x + qq"')
    assert err.value.line == 3
    assert "F.1" in err.value.message


@pytest.mark.parametrize("text, col", [("²*x^2", 1), ("x^²", 3), ("x^٣", 3)])
def test_only_ascii_digits_are_numbers(text, col):
    # str.isdigit() holds for superscripts and other scripts' digits,
    # which int() then rejects or reads as a different number
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(text, XY)
    assert (err.value.line, err.value.col) == (1, col)


@pytest.mark.parametrize("line, col", [('F.2 = "$*x^2"', 8),
                                       ('F.2 = "x^²"', 10),
                                       ('  F.2 =   "x^²"  # c', 14)])
def test_expression_error_column_counts_from_the_line_start(line, col):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_problem(f'variables = [x:2, y:3]\nF.1 = "y"\n{line}\n')
    assert (err.value.line, err.value.col) == (3, col)
    assert err.value.message.startswith("F.2: unexpected character")


def test_zero_weight_rejected():
    with pytest.raises(ProblemFormatError):
        parse_problem('variables = [x:0]\nF.1 = "x"')


WEIERSTRASS_2 = 'variables = [x:2, y:3]\nF.1 = "y"\nF.2 = "6*x^2"\n'
CUBES_3 = ('variables = [x:1, y:1, z:1]\nF.1 = "x^2"\nF.2 = "y^2"\n'
           'F.3 = "z^2"\nG.1 = "x^2"\nG.2 = "y^2"\n')


@pytest.mark.parametrize("text, message", [
    (WEIERSTRASS_2.replace("F.2", "F.\u0662"), "unknown key 'F.\u0662'"),
    (CUBES_3 + 'G.\u0663 = "z^2"', "unknown key 'G.\u0663'"),
    (WEIERSTRASS_2 + "truncation = \u0663", "truncation must be an integer"),
    (WEIERSTRASS_2 + "truncation = 1_2", "truncation must be an integer"),
    (WEIERSTRASS_2.replace("x:2", "x:\u0662"), "bad weight"),
    (WEIERSTRASS_2.replace("x:2", "x:1_0"), "bad weight"),
], ids=["key_F", "key_G", "truncation_digit", "truncation_underscore",
        "weight_digit", "weight_underscore"])
def test_only_ascii_digits_are_integers(text, message):
    # int() reads the Arabic-Indic digits and the underscores that these
    # lines carry in place of 2, 3, 10 and 12
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(text)
    assert err.value.message.startswith(message)


# the file format's own delimiters stay out of the slots below, so that a
# slot's text is all the parser reads for it
_DELIMITERS = '"#\n,:=[]'
_SLOT = st.text(st.one_of(
    st.characters(categories=("Nd", "No")),
    st.sampled_from("0123456789_+- "),
    st.characters(exclude_characters=_DELIMITERS)), max_size=4)
_ASCII_INT = re.compile(r"[+-]?[0-9]+")


@settings(max_examples=500, deadline=None)
@given(expr=st.one_of(st.just("y"), st.text(
           st.one_of(st.characters(categories=("Nd", "No")),
                     st.characters(exclude_characters='"\n')), max_size=12)),
       suffix=st.one_of(st.just("2"), _SLOT),
       weight=st.one_of(st.just("2"), _SLOT),
       truncation=st.one_of(st.just("14"), _SLOT))
def test_fuzz_reaches_every_integer_and_the_tokenizer(expr, suffix, weight,
                                                      truncation):
    # a valid file with arbitrary Unicode in four places: the F.1
    # expression, the suffix of the key F.2, the weight of x and the
    # truncation; only a ParseError may escape, and every integer that is
    # accepted was written in ASCII digits
    text = (f"variables = [x:{weight}, y:3]\nF.1 = \"{expr}\"\n"
            f"F.{suffix} = \"6*x^2\"\ntruncation = {truncation}\n")
    try:
        spec = parse_problem(text)
    except ParseError:
        return
    assert all(ch.isascii() for ch in expr if ch.isnumeric())
    assert re.fullmatch("[0-9]+", suffix.strip())
    assert _ASCII_INT.fullmatch(weight.strip())
    assert _ASCII_INT.fullmatch(truncation.strip())
    assert spec.weights[0] == int(weight.strip())
    assert spec.truncation == int(truncation.strip())


@settings(max_examples=2000, deadline=None)
@given(st.binary(max_size=120))
def test_fuzz_never_raises_unstructured(data):
    text = data.decode("latin-1")
    try:
        parse_problem(text)
    except ParseError:
        pass


def _tokenize_by_character(text):
    """The character loop the tokenizer replaced: the oracle of the
    property below, as (kind, text, line, col) tuples."""
    tokens, line, col, i, n = [], 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        for kind, first, body in (("NUMBER", "[0-9]", "[0-9]"),
                                  ("IDENT", "[A-Za-z_]", "[A-Za-z0-9_]")):
            if re.match(first, ch):
                j = i
                while j < n and re.match(body, text[j]):
                    j += 1
                tokens.append((kind, text[i:j], line, col))
                col, i = col + j - i, j
                break
        else:
            kind = {"(": "LPAREN", ")": "RPAREN"}.get(
                ch, "OP" if ch in "+-*/^" else None)
            if kind is None:
                raise ExpressionSyntaxError(f"unexpected character {ch!r}",
                                            line, col)
            tokens.append((kind, ch, line, col))
            i, col = i + 1, col + 1
    return tokens + [("END", "", line, col)]


def _tokens_or_error(tokenize, text):
    try:
        return [tuple(t) if isinstance(t, tuple)
                else (t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ExpressionSyntaxError as err:
        return ("error", err.message, err.line, err.col, str(err))


@settings(max_examples=1000, deadline=None)
@given(st.text(st.one_of(
    st.sampled_from(list("xy_Az09+-*/^() \t\r\n#$\u0663\u00b2.,\"")),
    st.characters()), max_size=30))
def test_tokenizer_matches_the_character_loop(text):
    # every token with its (line, col), or the same error at the same place
    assert (_tokens_or_error(_tokenize, text)
            == _tokens_or_error(_tokenize_by_character, text))
