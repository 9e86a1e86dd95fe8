"""Surface syntax: parsing and canonical printing.

The x variables are spelled x1..xn in text (ASCII-only I/O), the z variables
z1..zn, and in operator expressions d1..dn (or D1..Dn) denote the derivation
in z_i.  Grammar, loosest to tightest binding:

    sum      :=  product (('+' | '-') product)*
    product  :=  unary ('*' unary)*
    unary    :=  '-' unary | power
    power    :=  atom ('^' INT)?          -- exponent: non-negative integer
    atom     :=  INT ('/' INT)? | VAR | '(' sum ')'

Implicit multiplication by juxtaposition is not allowed, whitespace is
insignificant, and '/' is permitted only inside a rational literal a/b.
An exponent above MAX_EXPONENT is refused before the power is built.

In operator expressions, '*' means composition left to right, so
"z1^2*d1^3" is (multiply by z1^2) composed with (differentiate thrice),
not a product of symbols.

The parser builds values as it reads, a Poly in mode 'poly' and a WeylOp
in mode 'weyl'; no syntax tree is kept.  A sum collects its summands
(negating the subtracted ones) and adds them in one pass, so long sums cost
linear, not quadratic, time.  The whole text is tokenized first, so a
lexical error is reported before any arithmetic; a grammar error is
reported only after the valid prefix before it has been evaluated.

Printing is canonical: terms in descending graded-lex order on the
concatenated exponent, rational coefficients as a/b, exponent 1 elided,
coefficient 1 elided except on the constant term.  parse(print(p)) == p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from .poly import Poly
from .weyl import WeylOp


MAX_EXPONENT = 1000  # largest exponent in expression text; the default degree cap is 40


class ParseError(ValueError):
    """Syntax or validation error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # INT, VAR, OP, END
    text: str
    value: object
    line: int
    column: int


def _describe(tok: "_Token") -> str:
    return repr(tok.text) if tok.text else "end of input"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch in "xzdD":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"variable '{ch}' needs a 1-based index, e.g. {ch}1",
                                 line, start_col)
            kind = "d" if ch in "dD" else ch
            tokens.append(_Token("VAR", text[i:j], (kind, int(text[i + 1:j])), line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append(_Token("OP", ch, ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("END", "", None, line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Mode(NamedTuple):
    """What a parse builds: the admitted variable letters and one builder
    per production.  The builders look their callees up when they run."""

    kinds: tuple[str, ...]
    where: str
    const: Callable[[int, Fraction], Any]
    var: Callable[[int, str, int], Any]
    sum: Callable[[int, list], Any]
    mul: Callable[[Any, Any], Any]
    pow: Callable[[Any, int], Any]


_POLY = _Mode(
    ("x", "z"), "polynomial",
    const=lambda n, c: Poly.const(n, c),
    var=lambda n, kind, i: Poly.xi_var(n, i) if kind == "x" else Poly.z_var(n, i),
    sum=lambda n, terms: Poly.sum(n, terms),
    mul=lambda a, b: a * b,
    pow=lambda a, e: a ** e,
)

_WEYL = _Mode(
    ("z", "d"), "operator",
    const=lambda n, c: WeylOp(Poly.const(n, c)),
    var=lambda n, kind, i: WeylOp(Poly.xi_var(n, i) if kind == "d" else Poly.z_var(n, i)),
    sum=lambda n, terms: WeylOp(Poly.sum(n, (op.symbol for op in terms))),
    mul=lambda a, b: a.compose(b),
    pow=lambda a, e: a.compose_pow(e),
)


class _Parser:
    def __init__(self, text: str, n: int, mode: _Mode):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.mode = mode

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.value != op:
            raise ParseError(f"expected {op!r}, found {_describe(tok)}", tok.line, tok.column)
        return self.advance()

    def parse(self):
        value = self.sum()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        return value

    def sum(self):
        terms = [self.product()]
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value in "+-":
                self.advance()
                term = self.product()
                terms.append(-term if tok.value == "-" else term)
            elif len(terms) == 1:
                return terms[0]
            else:
                return self.mode.sum(self.n, terms)

    def product(self):
        left = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "*":
                self.advance()
                left = self.mode.mul(left, self.unary())
            elif tok.kind == "OP" and tok.value == "/":
                raise ParseError("'/' is only allowed inside a rational literal a/b",
                                 tok.line, tok.column)
            else:
                return left

    def unary(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind == "OP" and exp_tok.value == "-":
                raise ParseError("negative exponent", exp_tok.line, exp_tok.column)
            if exp_tok.kind != "INT":
                raise ParseError(f"expected a non-negative integer exponent, found "
                                 f"{_describe(exp_tok)}", exp_tok.line, exp_tok.column)
            if exp_tok.value > MAX_EXPONENT:
                raise ParseError(f"exponent {exp_tok.value} is above the limit {MAX_EXPONENT}",
                                 exp_tok.line, exp_tok.column)
            self.advance()
            return self.mode.pow(base, exp_tok.value)
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.value == "/":
                self.advance()
                den = self.peek()
                if den.kind != "INT":
                    raise ParseError("'/' is only allowed inside a rational literal a/b",
                                     den.line, den.column)
                self.advance()
                if den.value == 0:
                    raise ParseError("zero denominator", den.line, den.column)
                return self.mode.const(self.n, Fraction(tok.value, den.value))
            return self.mode.const(self.n, Fraction(tok.value))
        if tok.kind == "VAR":
            self.advance()
            kind, index = tok.value
            if kind not in self.mode.kinds:
                raise ParseError(f"variable {tok.text!r} is not allowed in "
                                 f"{self.mode.where} expressions", tok.line, tok.column)
            if not 1 <= index <= self.n:
                raise ParseError(f"variable index {index} out of range 1..{self.n}",
                                 tok.line, tok.column)
            return self.mode.var(self.n, kind, index)
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
            inner = self.sum()
            self.expect_op(")")
            return inner
        if tok.kind == "OP" and tok.value == "/":
            raise ParseError("'/' is only allowed inside a rational literal a/b",
                             tok.line, tok.column)
        raise ParseError(f"unexpected {_describe(tok)}", tok.line, tok.column)


def parse_expr(text: str, n: int, mode: str = "poly") -> Poly | WeylOp:
    """Parse text to its value: mode 'poly' admits x/z variables and builds a
    Poly, 'weyl' admits z/d and builds a WeylOp."""
    return _Parser(text, n, _POLY if mode == "poly" else _WEYL).parse()


def parse_poly(text: str, n: int) -> Poly:
    """Parse polynomial text over x1..xn, z1..zn."""
    return parse_expr(text, n, "poly")


def parse_weyl(text: str, n: int) -> WeylOp:
    """Parse operator text over z1..zn and d1..dn; '*' composes left to right.

    The result is the operator's right normal form, stored as its right symbol.
    """
    return parse_expr(text, n, "weyl")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def format_poly(p: Poly) -> str:
    """Canonical text form; round-trips through parse_poly exactly."""
    if p.is_zero():
        return "0"
    pieces = []
    for (xe, ze), coeff in p.sorted_terms():
        factors = []
        for i, e in enumerate(xe, start=1):
            if e:
                factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
        for i, e in enumerate(ze, start=1):
            if e:
                factors.append(f"z{i}" if e == 1 else f"z{i}^{e}")
        num, den = coeff.numerator, coeff.denominator
        magnitude = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if magnitude != "1" or not factors:
            factors.insert(0, magnitude)
        term = "*".join(factors)
        if not pieces:
            pieces.append(term if num > 0 else f"-{term}")
        else:
            pieces.append(f"{' + ' if num > 0 else ' - '}{term}")
    return "".join(pieces)
