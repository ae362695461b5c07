"""Parsing of polynomial expressions and problem files.

Expressions are polynomials over declared variables with exact rational
literals.  The grammar is deliberately small: no implicit multiplication,
exponents are literal nonnegative integers, and ``/`` is only defined for
nonzero constant divisors (which is how rational literals like ``3/2`` are
formed).  Every failure raises a ParseError subclass carrying line and column;
nothing else may escape, no matter how hostile the input.

Problem files are flat ``key = value`` lines with ``#`` comments::

    variables = [q1:2, p1:3]
    H_F = "1/2*p1^2 - 2*q1^3"
    seeds = [[1.0, -2.0]]
    truncation = 18
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import MultiPoly

_MAX_NESTING = 100
_MAX_EXPONENT = 512


class ParseError(ValueError):
    """Base for all structured input errors; carries a source location."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        where = f"line {line}, col {col}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class ExpressionSyntaxError(ParseError):
    pass


class UnknownVariableError(ParseError):
    def __init__(self, name: str, line: int | None = None, col: int | None = None):
        self.name = name
        super().__init__(f"unknown variable {name!r}", line, col)


class NonPolynomialError(ParseError):
    pass


class ProblemFormatError(ParseError):
    pass


class MissingFieldError(ParseError):
    pass


class DuplicateVariableError(ParseError):
    pass


class OddVariableCountError(ParseError):
    pass


# ---------------------------------------------------------------------------
# expression tokenizer / parser


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER, IDENT, OP, LPAREN, RPAREN, END
    text: str
    line: int
    col: int


_INTEGER = re.compile(r"[+-]?[0-9]+")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# one alternative per token kind, tried in this order; a newline, blanks
# and any other character (an error) are the last three
_TOKEN = re.compile(rf"(?P<NUMBER>[0-9]+)|(?P<IDENT>{_IDENT.pattern})"
                    r"|(?P<OP>[-+*/^])|(?P<LPAREN>\()|(?P<RPAREN>\))"
                    r"|(?P<NEWLINE>\n)|(?P<BLANK>[ \t\r]+)|(?P<OTHER>.)")


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text, each at its 1-based line and column, ending in
    END; ExpressionSyntaxError at a character no token starts with."""
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
        elif kind == "OTHER":
            raise ExpressionSyntaxError(
                f"unexpected character {match.group()!r}", line,
                match.start() - line_start + 1)
        elif kind != "BLANK":
            tokens.append(_Token(kind, match.group(), line,
                                 match.start() - line_start + 1))
    tokens.append(_Token("END", "", line, len(text) - line_start + 1))
    return tokens


class _ExprParser:
    """expr := term (('+'|'-') term)*
    term := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power := atom ('^' NUMBER)?
    atom := NUMBER | IDENT | '(' expr ')'
    """

    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.vars = variables
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> MultiPoly:
        acc = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.take()
            rhs = self.term()
            acc = acc + rhs if op.text == "+" else acc - rhs
        return acc

    def term(self) -> MultiPoly:
        acc = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.take()
            rhs = self.factor()
            if op.text == "*":
                acc = acc * rhs
                continue
            divisor = rhs.constant_term()
            if rhs.total_degree() not in (None, 0):
                raise NonPolynomialError(
                    "divisor must be a nonzero rational constant", op.line, op.col)
            if divisor == 0:
                raise NonPolynomialError("division by zero", op.line, op.col)
            acc = acc * (Fraction(1) / divisor)
        return acc

    def factor(self) -> MultiPoly:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            tok = self.peek()
            raise ExpressionSyntaxError("expression nests too deeply", tok.line, tok.col)
        try:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "-":
                self.take()
                return -self.factor()
            return self.power()
        finally:
            self.depth -= 1

    def power(self) -> MultiPoly:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.take()
            exp_tok = self.peek()
            if exp_tok.kind == "OP" and exp_tok.text == "-":
                raise NonPolynomialError(
                    "negative exponents are not polynomial", exp_tok.line, exp_tok.col)
            if exp_tok.kind != "NUMBER":
                raise ExpressionSyntaxError(
                    "exponent must be a nonnegative integer literal",
                    exp_tok.line, exp_tok.col)
            self.take()
            exponent = int(exp_tok.text)
            if exponent > _MAX_EXPONENT:
                raise ExpressionSyntaxError(
                    f"exponent {exponent} exceeds the supported maximum {_MAX_EXPONENT}",
                    exp_tok.line, exp_tok.col)
            return base ** exponent
        return base

    def atom(self) -> MultiPoly:
        tok = self.take()
        if tok.kind == "NUMBER":
            value = int(tok.text)
            return MultiPoly._trusted(
                self.vars, {(0,) * len(self.vars): Fraction(value)} if value
                else {})
        if tok.kind == "IDENT":
            if tok.text not in self.vars:
                raise UnknownVariableError(tok.text, tok.line, tok.col)
            return MultiPoly._trusted(
                self.vars, {tuple(int(v == tok.text) for v in self.vars):
                            Fraction(1)})
        if tok.kind == "LPAREN":
            inner = self.expr()
            closing = self.take()
            if closing.kind != "RPAREN":
                raise ExpressionSyntaxError("expected ')'", closing.line, closing.col)
            return inner
        if tok.kind == "END":
            raise ExpressionSyntaxError("unexpected end of expression", tok.line, tok.col)
        raise ExpressionSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.col)


def parse_expression(text: str, variables: Sequence[str]) -> MultiPoly:
    """Parse a polynomial expression over the given variables."""
    vars_t = tuple(variables)
    # the parser's atoms are built unchecked (MultiPoly._trusted)
    if len(set(vars_t)) != len(vars_t):
        raise ValueError(f"duplicate variable names in {vars_t!r}")
    parser = _ExprParser(_tokenize(text), vars_t)
    result = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "END":
        raise ExpressionSyntaxError(
            f"unexpected {trailing.text!r} after expression", trailing.line, trailing.col)
    return result


# ---------------------------------------------------------------------------
# problem files


@dataclass(frozen=True)
class ProblemSpec:
    """A parsed problem: the field (direct or Hamiltonian), weights, options."""

    variables: tuple[str, ...]
    weights: tuple[int, ...] | None
    f_components: tuple[MultiPoly, ...] | None
    h_f: MultiPoly | None
    g_components: tuple[MultiPoly, ...] | None
    h_g: MultiPoly | None
    seeds: tuple[tuple[float, ...], ...] = ()
    truncation: int | None = None


def _strip_comment(line: str) -> str:
    in_quote = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return line[:i]
    return line


def _ascii_int(text: str) -> int:
    """int(text) for ASCII digits only; int() alone also reads other
    scripts' digits and underscores."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_variables(value: str, line_no: int) -> tuple[tuple[str, ...], tuple[int, ...] | None]:
    body = value.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ProblemFormatError("variables must be a [..] list", line_no, 1)
    items = [s.strip() for s in body[1:-1].split(",")]
    if items == [""]:
        raise ProblemFormatError("variable list is empty", line_no, 1)
    names: list[str] = []
    weights: list[int] = []
    weighted = None
    for item in items:
        if ":" in item:
            name, _, weight_text = item.partition(":")
            name = name.strip()
            try:
                weight = _ascii_int(weight_text.strip())
            except ValueError:
                raise ProblemFormatError(
                    f"bad weight {weight_text.strip()!r} for {name!r}", line_no, 1) from None
            if weight < 1:
                raise ProblemFormatError(
                    f"weight for {name!r} must be a positive integer", line_no, 1)
            this_weighted = True
        else:
            name, weight, this_weighted = item, 0, False
        if weighted is None:
            weighted = this_weighted
        elif weighted != this_weighted:
            raise ProblemFormatError(
                "either all variables carry weights or none do", line_no, 1)
        if not _IDENT.fullmatch(name):
            raise ProblemFormatError(f"bad variable name {item!r}", line_no, 1)
        if name in names:
            raise DuplicateVariableError(f"variable {name!r} declared twice", line_no, 1)
        names.append(name)
        weights.append(weight)
    return tuple(names), (tuple(weights) if weighted else None)


def _parse_field_expression(value: str, variables: tuple[str, ...], key: str,
                            line_no: int, col: int) -> MultiPoly:
    """Parse a quoted expression whose opening quote is at column col."""
    if len(value) < 2 or not (value.startswith('"') and value.endswith('"')):
        raise ProblemFormatError(f"{key} expects a quoted expression", line_no, 1)
    inner = value[1:-1]
    if '"' in inner:
        raise ProblemFormatError(f"{key}: stray quote inside expression", line_no, 1)
    try:
        return parse_expression(inner, variables)
    except ParseError as exc:
        raise type(exc)(f"{key}: {exc.message}", line_no,
                        (exc.col or 1) + col) from None


def _parse_seeds(value: str, n_vars: int, line_no: int) -> tuple[tuple[float, ...], ...]:
    try:
        data = json.loads(value)
    except (json.JSONDecodeError, RecursionError):
        raise ProblemFormatError("seeds must look like [[1, -2], ...]", line_no, 1) from None
    if not isinstance(data, list) or not all(isinstance(s, list) for s in data):
        raise ProblemFormatError("seeds must be a list of lists", line_no, 1)
    out = []
    for seed in data:
        if len(seed) != n_vars:
            raise ProblemFormatError(
                f"seed {seed!r} has {len(seed)} entries, expected {n_vars}", line_no, 1)
        for x in seed:
            if isinstance(x, bool) or not isinstance(x, (int, float)) \
                    or not math.isfinite(x):
                raise ProblemFormatError(f"seed entry {x!r} is not a number", line_no, 1)
        out.append(tuple(float(x) for x in seed))
    return tuple(out)


def _collect_components(entries: dict[str, tuple[str, int, int]], prefix: str,
                        variables: tuple[str, ...]) -> tuple[MultiPoly, ...] | None:
    pattern = re.compile(rf"^{prefix}\.([0-9]+)$")
    found: dict[int, tuple[str, int, int]] = {}
    for key, (value, line_no, col) in entries.items():
        match = pattern.match(key)
        if match:
            idx = int(match.group(1))
            if idx in found:
                raise ProblemFormatError(
                    f"component {prefix}.{idx} given twice", line_no, 1)
            found[idx] = (value, line_no, col)
    if not found:
        return None
    m = len(variables)
    for idx in found:
        if not 1 <= idx <= m:
            raise ProblemFormatError(
                f"{prefix}.{idx} is out of range for {m} variables", found[idx][1], 1)
    missing = [i for i in range(1, m + 1) if i not in found]
    if missing:
        raise MissingFieldError(
            f"missing component{'s' if len(missing) > 1 else ''} "
            + ", ".join(f"{prefix}.{i}" for i in missing))
    components = []
    for i in range(1, m + 1):
        value, line_no, col = found[i]
        components.append(_parse_field_expression(value, variables, f"{prefix}.{i}",
                                                  line_no, col))
    return tuple(components)


def _parse_hamiltonian(entries: dict[str, tuple[str, int, int]], key: str,
                       variables: tuple[str, ...]) -> MultiPoly | None:
    if key not in entries:
        return None
    if len(variables) % 2 != 0:
        raise OddVariableCountError(
            f"{key} needs an even number of variables (got {len(variables)})",
            entries[key][1], 1)
    value, line_no, col = entries[key]
    return _parse_field_expression(value, variables, key, line_no, col)


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem file into a ProblemSpec.

    Keys may appear in any order.  The field is given either componentwise
    (``F.1`` .. ``F.m``) or as a Hamiltonian (``H_F``), and similarly for the
    commuting field with ``G.k`` / ``H_G``.  For Hamiltonians the variables
    must be declared in conjugate pairs: (q1, p1, q2, p2, ...).
    """
    # key -> (value, line number, column of the value in its line)
    entries: dict[str, tuple[str, int, int]] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        body = _strip_comment(line).strip()
        if not body:
            continue
        key, eq, value = body.partition("=")
        if not eq:
            raise ProblemFormatError("expected 'key = value'", line_no, 1)
        col = line.index(body) + len(key) + 2 + len(value) - len(value.lstrip())
        key = key.strip()
        if not key:
            raise ProblemFormatError("empty key", line_no, 1)
        if key in entries:
            raise ProblemFormatError(f"duplicate key {key!r}", line_no, 1)
        entries[key] = (value.strip(), line_no, col)

    known = re.compile(r"^(variables|seeds|truncation|H_F|H_G|F\.[0-9]+|G\.[0-9]+)$")
    for key, (_, line_no, _) in entries.items():
        if not known.match(key):
            raise ProblemFormatError(f"unknown key {key!r}", line_no, 1)

    if "variables" not in entries:
        raise MissingFieldError("missing required field 'variables'")
    variables, weights = _parse_variables(*entries["variables"][:2])

    f_components = _collect_components(entries, "F", variables)
    h_f = _parse_hamiltonian(entries, "H_F", variables)
    if f_components is not None and h_f is not None:
        raise ProblemFormatError("give either F.* components or H_F, not both",
                                 entries["H_F"][1], 1)
    if f_components is None and h_f is None:
        raise MissingFieldError("the field is missing: give F.1..F.m or H_F")

    g_components = _collect_components(entries, "G", variables)
    h_g = _parse_hamiltonian(entries, "H_G", variables)
    if g_components is not None and h_g is not None:
        raise ProblemFormatError("give either G.* components or H_G, not both",
                                 entries["H_G"][1], 1)

    seeds: tuple[tuple[float, ...], ...] = ()
    if "seeds" in entries:
        seeds = _parse_seeds(entries["seeds"][0], len(variables), entries["seeds"][1])

    truncation = None
    if "truncation" in entries:
        value, line_no, _ = entries["truncation"]
        try:
            truncation = _ascii_int(value)
        except ValueError:
            raise ProblemFormatError(f"truncation must be an integer, got {value!r}",
                                     line_no, 1) from None
        if truncation < 1:
            raise ProblemFormatError("truncation must be positive", line_no, 1)

    return ProblemSpec(
        variables=variables,
        weights=weights,
        f_components=f_components,
        h_f=h_f,
        g_components=g_components,
        h_g=h_g,
        seeds=seeds,
        truncation=truncation,
    )
