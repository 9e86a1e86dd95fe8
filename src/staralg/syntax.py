"""Surface syntax: parsing expression text; the printer is poly.format_poly.

The x variables are spelled x1..xn in text (ASCII-only I/O), the z variables
z1..zn, and in operator expressions d1..dn (or D1..Dn) denote the derivation
in z_i.  Grammar, loosest to tightest binding:

    sum      :=  product (('+' | '-') product)*
    product  :=  unary ('*' unary)*
    unary    :=  '-'* power
    power    :=  atom ('^' INT)?          -- exponent: non-negative integer
    atom     :=  INT ('/' INT)? | VAR | '(' sum ')'

INT is a run of the ASCII digits 0-9; any other character outside the
grammar's letters, operators and whitespace is refused.  Implicit
multiplication by juxtaposition is not allowed, whitespace is insignificant,
and '/' is permitted only inside a rational literal a/b.  An exponent above
MAX_EXPONENT is refused before the power is built, and a '(' that opens a
level of nesting above MAX_NESTING is refused before the parser recurses
into it.

In operator expressions, '*' means composition left to right, so
"z1^2*d1^3" is (multiply by z1^2) composed with (differentiate thrice),
not a product of symbols.

The parser builds values as it reads; no syntax tree is kept.  In both modes
the value is a Poly: in mode 'weyl' it is the right symbol of the operator,
with d_i read as x_i, and only '*' and '^' differ from mode 'poly'.  A sum
collects its summands (negating the subtracted ones) and adds them in one
pass, so long sums cost linear, not quadratic, time.  The whole text is
tokenized first, so a lexical error is reported before any arithmetic; a
grammar error is reported only after the valid prefix before it has been
evaluated.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, NamedTuple

from .poly import Poly, format_poly  # noqa: F401  (re-exported)
from .weyl import WeylOp


MAX_EXPONENT = 1000  # largest exponent in expression text; the default degree cap is 40
MAX_NESTING = 100  # deepest parenthesis nesting in expression text; bounds the recursion


class ParseError(ValueError):
    """Syntax or validation error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # INT, VAR, OP, END
    text: str
    value: object
    line: int
    column: int


# one alternative per lexeme: integer, variable letter with its index digits,
# operator, newline, other whitespace, and any other character
_LEXEME = re.compile(r"([0-9]+)|([xzdD])([0-9]*)|([-+*^/()])|(\n)|[ \t\r]+|(.)", re.DOTALL)


def _describe(tok: _Token) -> str:
    return repr(tok.text) if tok.text else "end of input"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for match in _LEXEME.finditer(text):
        digits, letter, index, op, newline, other = match.groups()
        column = match.start() - line_start + 1
        if digits:
            tokens.append(_Token("INT", digits, int(digits), line, column))
        elif letter:
            if not index:
                raise ParseError(f"variable '{letter}' needs a 1-based index, e.g. {letter}1",
                                 line, column)
            kind = "d" if letter in "dD" else letter
            tokens.append(_Token("VAR", match[0], (kind, int(index)), line, column))
        elif op:
            tokens.append(_Token("OP", op, None, line, column))
        elif newline:
            line, line_start = line + 1, match.end()
        elif other:
            raise ParseError(f"unexpected character {other!r}", line, column)
    tokens.append(_Token("END", "", None, line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Mode(NamedTuple):
    """What a parse admits: the variable letters, the name used in error
    messages, and what '*' and '^' mean on Poly values.  mul and pow look
    their callees up when they run, not at import."""

    kinds: tuple[str, ...]
    where: str
    mul: Callable[[Poly, Poly], Poly]
    pow: Callable[[Poly, int], Poly]


_POLY = _Mode(("x", "z"), "polynomial", mul=lambda a, b: a * b, pow=lambda a, e: a ** e)

_WEYL = _Mode(("z", "d"), "operator",
              mul=lambda a, b: WeylOp(a).compose(WeylOp(b)).symbol,
              pow=lambda a, e: WeylOp(a).compose_pow(e).symbol)


class _Parser:
    def __init__(self, text: str, n: int, mode: _Mode):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.n = n
        self.mode = mode

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.advance()
        if tok.text != op:
            raise ParseError(f"expected {op!r}, found {_describe(tok)}", tok.line, tok.column)

    def parse(self) -> Poly:
        value = self.sum()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        return value

    def sum(self) -> Poly:
        terms = [self.product()]
        while self.peek().text in ("+", "-"):
            sign = self.advance().text
            term = self.product()
            terms.append(-term if sign == "-" else term)
        return terms[0] if len(terms) == 1 else Poly.sum(self.n, terms)

    def product(self) -> Poly:
        left = self.unary()
        while self.peek().text == "*":
            self.advance()
            left = self.mode.mul(left, self.unary())
        tok = self.peek()
        if tok.text == "/":
            raise ParseError("'/' is only allowed inside a rational literal a/b",
                             tok.line, tok.column)
        return left

    def unary(self) -> Poly:
        negate = False
        while self.peek().text == "-":  # a loop, so a long run of signs cannot recurse
            self.advance()
            negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self) -> Poly:
        base = self.atom()
        if self.peek().text != "^":
            return base
        self.advance()
        tok = self.peek()
        if tok.text == "-":
            raise ParseError("negative exponent", tok.line, tok.column)
        if tok.kind != "INT":
            raise ParseError(f"expected a non-negative integer exponent, found "
                             f"{_describe(tok)}", tok.line, tok.column)
        if tok.value > MAX_EXPONENT:
            raise ParseError(f"exponent {tok.value} is above the limit {MAX_EXPONENT}",
                             tok.line, tok.column)
        self.advance()
        return self.mode.pow(base, tok.value)

    def atom(self) -> Poly:
        tok = self.advance()
        if tok.kind == "INT":
            if self.peek().text != "/":
                return Poly.const(self.n, tok.value)
            self.advance()
            den = self.advance()
            if den.kind != "INT":
                raise ParseError("'/' is only allowed inside a rational literal a/b",
                                 den.line, den.column)
            if den.value == 0:
                raise ParseError("zero denominator", den.line, den.column)
            return Poly.const(self.n, Fraction(tok.value, den.value))
        if tok.kind == "VAR":
            kind, index = tok.value
            if kind not in self.mode.kinds:
                raise ParseError(f"variable {tok.text!r} is not allowed in "
                                 f"{self.mode.where} expressions", tok.line, tok.column)
            if not 1 <= index <= self.n:
                raise ParseError(f"variable index {index} out of range 1..{self.n}",
                                 tok.line, tok.column)
            return Poly.z_var(self.n, index) if kind == "z" else Poly.xi_var(self.n, index)
        if tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"nesting depth {MAX_NESTING + 1} is above the limit "
                                 f"{MAX_NESTING}", tok.line, tok.column)
            self.depth += 1
            inner = self.sum()
            self.expect_op(")")
            self.depth -= 1
            return inner
        if tok.text == "/":
            raise ParseError("'/' is only allowed inside a rational literal a/b",
                             tok.line, tok.column)
        raise ParseError(f"unexpected {_describe(tok)}", tok.line, tok.column)


def parse_expr(text: str, n: int, mode: str = "poly") -> Poly | WeylOp:
    """Parse text to its value: mode 'poly' admits x/z variables and builds a
    Poly, 'weyl' admits z/d and builds a WeylOp."""
    if mode == "poly":
        return _Parser(text, n, _POLY).parse()
    return WeylOp(_Parser(text, n, _WEYL).parse())


def parse_poly(text: str, n: int) -> Poly:
    """Parse polynomial text over x1..xn, z1..zn."""
    return parse_expr(text, n, "poly")


def parse_weyl(text: str, n: int) -> WeylOp:
    """Parse operator text over z1..zn and d1..dn; '*' composes left to right.

    The result is the operator's right normal form, stored as its right symbol.
    """
    return parse_expr(text, n, "weyl")
