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

In operator expressions, '*' means composition left to right, so
"z1^2*d1^3" is (multiply by z1^2) composed with (differentiate thrice),
not a product of symbols.

Printing is canonical: terms in descending graded-lex order on the
concatenated exponent, rational coefficients as a/b, exponent 1 elided,
coefficient 1 elided except on the constant term.  parse(print(p)) == p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Union

from .poly import Poly, grlex_key
from .weyl import WeylOp


class ParseError(ValueError):
    """Syntax or validation error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    kind: str  # "x" | "z" | "d"
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


if TYPE_CHECKING:  # a runtime Union stays in typing's cache and pins re-imported modules
    Expr = Union[Num, Var, Neg, Add, Mul, Pow]


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

class _Parser:
    def __init__(self, text: str, n: int, allowed_kinds: tuple[str, ...]):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.allowed_kinds = allowed_kinds

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

    def parse(self) -> Expr:
        expr = self.sum()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        return expr

    def sum(self) -> Expr:
        left = self.product()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value in "+-":
                self.advance()
                right = self.product()
                left = Add(left, Neg(right) if tok.value == "-" else right)
            else:
                return left

    def product(self) -> Expr:
        left = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "*":
                self.advance()
                left = Mul(left, self.unary())
            elif tok.kind == "OP" and tok.value == "/":
                raise ParseError("'/' is only allowed inside a rational literal a/b",
                                 tok.line, tok.column)
            else:
                return left

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
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
            self.advance()
            return Pow(base, exp_tok.value)
        return base

    def atom(self) -> Expr:
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
                return Num(Fraction(tok.value, den.value))
            return Num(Fraction(tok.value))
        if tok.kind == "VAR":
            self.advance()
            kind, index = tok.value
            if kind not in self.allowed_kinds:
                where = "polynomial" if "x" in self.allowed_kinds else "operator"
                raise ParseError(f"variable {tok.text!r} is not allowed in {where} expressions",
                                 tok.line, tok.column)
            if not 1 <= index <= self.n:
                raise ParseError(f"variable index {index} out of range 1..{self.n}",
                                 tok.line, tok.column)
            return Var(kind, index)
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
            inner = self.sum()
            self.expect_op(")")
            return inner
        if tok.kind == "OP" and tok.value == "/":
            raise ParseError("'/' is only allowed inside a rational literal a/b",
                             tok.line, tok.column)
        raise ParseError(f"unexpected {_describe(tok)}", tok.line, tok.column)


def parse_expr(text: str, n: int, mode: str = "poly") -> Expr:
    """Parse to an AST; mode 'poly' admits x/z variables, 'weyl' admits z/d."""
    kinds = ("x", "z") if mode == "poly" else ("z", "d")
    return _Parser(text, n, kinds).parse()


def parse_poly(text: str, n: int) -> Poly:
    """Parse polynomial text over x1..xn, z1..zn."""
    return _to_poly(parse_expr(text, n, "poly"), n)


def _to_poly(expr: Expr, n: int) -> Poly:
    if isinstance(expr, Num):
        return Poly.const(n, expr.value)
    if isinstance(expr, Var):
        return Poly.xi_var(n, expr.index) if expr.kind == "x" else Poly.z_var(n, expr.index)
    if isinstance(expr, Neg):
        return -_to_poly(expr.operand, n)
    if isinstance(expr, Add):
        return _to_poly(expr.left, n) + _to_poly(expr.right, n)
    if isinstance(expr, Mul):
        return _to_poly(expr.left, n) * _to_poly(expr.right, n)
    if isinstance(expr, Pow):
        return _to_poly(expr.base, n) ** expr.exponent
    raise TypeError(f"unknown AST node {expr!r}")


def parse_weyl(text: str, n: int) -> WeylOp:
    """Parse operator text over z1..zn and d1..dn; '*' composes left to right.

    The result is normalized to right normal form on construction.
    """
    return _to_weyl(parse_expr(text, n, "weyl"), n)


def _to_weyl(expr: Expr, n: int) -> WeylOp:
    if isinstance(expr, Num):
        return WeylOp.identity(n).scale(expr.value)
    if isinstance(expr, Var):
        if expr.kind == "d":
            return WeylOp.dz(n, expr.index)
        return WeylOp.mul_by(Poly.z_var(n, expr.index))
    if isinstance(expr, Neg):
        return -_to_weyl(expr.operand, n)
    if isinstance(expr, Add):
        return _to_weyl(expr.left, n) + _to_weyl(expr.right, n)
    if isinstance(expr, Mul):
        return _to_weyl(expr.left, n).compose(_to_weyl(expr.right, n))
    if isinstance(expr, Pow):
        return _to_weyl(expr.base, n).compose_pow(expr.exponent)
    raise TypeError(f"unknown AST node {expr!r}")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def format_poly(p: Poly) -> str:
    """Canonical text form; round-trips through parse_poly exactly."""
    if p.is_zero():
        return "0"
    pieces = []
    for (xe, ze), coeff in sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True):
        factors = []
        for i, e in enumerate(xe, start=1):
            if e:
                factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
        for i, e in enumerate(ze, start=1):
            if e:
                factors.append(f"z{i}" if e == 1 else f"z{i}^{e}")
        magnitude = abs(coeff)
        if magnitude != 1 or not factors:
            factors.insert(0, str(magnitude))
        term = "*".join(factors)
        if not pieces:
            pieces.append(term if coeff > 0 else f"-{term}")
        else:
            pieces.append(f"{' + ' if coeff > 0 else ' - '}{term}")
    return "".join(pieces)
