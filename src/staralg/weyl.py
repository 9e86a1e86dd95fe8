"""Differential operators on Q[z] with polynomial coefficients.

Every operator has a unique *right normal form*

    W = sum_a  c_a(z) * dz^a,

with every multiplication operator written to the left of the derivative
powers.  A WeylOp stores its right total symbol sum_a c_a(z) x^a, the
polynomial in Q[x, z] that replaces dz^a by x^a, so every polynomial is the
symbol of exactly one operator.  Composition is the symbol product

    sigma(A o B) = sum_g (1/g!) dx^g sigma(A) * dz^g sigma(B),

which is the Leibniz rule dz^a o c(z) = sum_{g <= a} C(a, g) (dz^g c) dz^(a-g)
applied to every term at once, never symbolic rewriting.

The left total symbol encodes the alternative normal form
sum_b dz^b o c_b(z).  The two symbol maps are linear bijections, and the
flow maps phi_{+1} / phi_{-1} of the cross-Laplacian interchange them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .deform import StarContext, phi
from .poly import (
    MultiIndex,
    Poly,
    Scalar,
    iter_multiindices,
    mi_binomial,
    mi_le,
    mi_sub,
    mi_zero,
)
from .report import Report


@dataclass(frozen=True)
class WeylOp:
    """The operator sum_a c_a(z) dz^a, stored as its right symbol sum_a c_a(z) x^a."""

    symbol: Poly

    @property
    def n(self) -> int:
        return self.symbol.n

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "WeylOp":
        return cls(Poly.const(n, 1))

    @classmethod
    def mul_by(cls, p: Poly) -> "WeylOp":
        """The multiplication operator by p(z)."""
        if not p.is_z_only():
            raise ValueError("operator coefficients must lie in Q[z]")
        return cls(p)

    @classmethod
    def dz(cls, n: int, i: int) -> "WeylOp":
        """The derivation dz_i (1-based)."""
        return cls(Poly.xi_var(n, i))

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "WeylOp") -> "WeylOp":
        return WeylOp(self.symbol + other.symbol)

    def __neg__(self) -> "WeylOp":
        return WeylOp(-self.symbol)

    def __sub__(self, other: "WeylOp") -> "WeylOp":
        return WeylOp(self.symbol - other.symbol)

    def scale(self, c: Scalar) -> "WeylOp":
        return WeylOp(self.symbol * Fraction(c))

    def apply(self, p: Poly) -> Poly:
        """Apply the operator to a polynomial in Q[z]."""
        if p.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {p.n}")
        if not p.is_z_only():
            raise ValueError("operand must lie in Q[z]")
        partials = _z_partials(p, self._reach())
        return Poly.sum(self.n, (Poly.z_monomial(self.n, ze, c) * partials[xe]
                                 for (xe, ze), c in self.symbol.terms.items() if xe in partials))

    def compose(self, other: "WeylOp") -> "WeylOp":
        """Operator composition self o other: the symbol product
        sum_g (1/g!) dx^g sigma(self) * dz^g sigma(other)."""
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        partials = _z_partials(other.symbol, self._reach())
        return WeylOp(Poly.sum(self.n, (
            Poly.monomial(self.n, mi_sub(xe, gamma), ze, c * mi_binomial(xe, gamma)) * db
            for (xe, ze), c in self.symbol.terms.items()
            for gamma, db in partials.items() if mi_le(gamma, xe))))

    def compose_pow(self, m: int) -> "WeylOp":
        """m-fold composition power; m = 0 yields the identity."""
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"power must be a non-negative integer, got {m!r}")
        result = WeylOp.identity(self.n)
        for _ in range(m):
            result = result.compose(self)
        return result

    def _reach(self) -> MultiIndex:
        """Componentwise maximum derivative exponent."""
        return tuple(map(max, zip(mi_zero(self.n), *(xe for xe, _ in self.symbol.terms))))


def _z_partials(c: Poly, reach: MultiIndex) -> dict[MultiIndex, Poly]:
    """gamma -> dz^gamma c for every gamma <= reach with a nonzero result,
    grown one coordinate at a time, one derivative step per entry."""
    out = {mi_zero(c.n): c}
    for i in range(1, c.n + 1):
        for gamma, p in list(out.items()):
            for e in range(1, reach[i - 1] + 1):
                p = p.d_z(i)
                if p.is_zero():
                    break
                out[gamma[:i - 1] + (e,) + gamma[i:]] = p
    return out


# ---------------------------------------------------------------------------
# Symbol maps
# ---------------------------------------------------------------------------

def right_symbol(op: WeylOp) -> Poly:
    """sum_a c_a(z) x^a: the stored symbol."""
    return op.symbol


def from_right_symbol(p: Poly) -> WeylOp:
    """Inverse of ``right_symbol``."""
    return WeylOp(p)


def left_symbol(op: WeylOp) -> Poly:
    """The left total symbol: phi_{-1} applied to the right symbol."""
    return phi(StarContext(op.n, Fraction(-1)), op.symbol)


def from_left_symbol(p: Poly) -> WeylOp:
    """Build sum_b dz^b o c_b(z) from the left symbol sum_b c_b(z) x^b.

    Goes through ``compose`` rather than through the flow map, so the two
    symbol routes stay independently testable.
    """
    return WeylOp(Poly.sum(p.n, (
        WeylOp(Poly.xi_monomial(p.n, xe)).compose(WeylOp(Poly.z_monomial(p.n, ze, c))).symbol
        for (xe, ze), c in p.terms.items())))


def interchange_check(n: int, degmax: int) -> Report:
    """Verify on the monomial basis that the symbol interchange maps equal
    the cross-Laplacian flows at parameter +1/-1.

    Returns a Report with one record per (basis monomial, direction).  An l2r
    record compares the compose route with phi_{+1}; an r2l record maps the
    left symbol, which is phi_{-1} of the right one, back through phi_{+1},
    so phi_{-1} is checked against a second flow and not against itself.
    """
    plus = StarContext(n, Fraction(1))
    report = Report()
    for alpha in iter_multiindices(n, degmax):
        for beta in iter_multiindices(n, degmax - sum(alpha)):
            p = Poly.monomial(n, alpha, beta)
            got = right_symbol(from_left_symbol(p))
            report.add("interchange", got == phi(plus, p), got, alpha=alpha, beta=beta, dir="l2r")
            got = left_symbol(from_right_symbol(p))
            report.add("interchange", phi(plus, got) == p, got, alpha=alpha, beta=beta, dir="r2l")
    return report
