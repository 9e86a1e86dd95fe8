"""Differential operators on Q[z] with polynomial coefficients.

An operator is kept in canonical *right normal form*

    W = sum_a  c_a(z) * dz^a,

i.e. every multiplication operator written to the left of the derivative
powers; this representation is unique.  Composition renormalizes using the
single commutation relation dz_i o z_j = z_j o dz_i + [i = j], applied by
structural recursion on exponents (the Leibniz rule), never by symbolic
rewriting.

The right total symbol replaces dz^a by x^a, giving a polynomial in
Q[x, z]; the left total symbol encodes the alternative normal form
sum_b dz^b o c_b(z).  The two symbol maps are linear bijections, and the
flow maps phi_{+1} / phi_{-1} of the cross-Laplacian interchange them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .deform import StarContext, phi
from .poly import (
    MultiIndex,
    Poly,
    Scalar,
    TermKey,
    iter_multiindices,
    mi_add,
    mi_binomial,
    mi_le,
    mi_sub,
    mi_unit,
    mi_zero,
)
from .report import Report


@dataclass(frozen=True)
class WeylOp:
    """Operator in right normal form: ``terms`` maps dz-exponent -> coefficient.

    Every coefficient is a nonzero polynomial in the z variables only.
    """

    n: int
    terms: Mapping[MultiIndex, Poly]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        clean: dict[MultiIndex, Poly] = {}
        for alpha, coeff in self.terms.items():
            alpha = tuple(alpha)
            if len(alpha) != self.n or any(e < 0 for e in alpha):
                raise ValueError(f"bad derivative exponent {alpha} for dimension {self.n}")
            if coeff.n != self.n:
                raise ValueError(f"coefficient dimension {coeff.n} != {self.n}")
            if not coeff.is_z_only():
                raise ValueError("operator coefficients must lie in Q[z]")
            if not coeff.is_zero():
                clean[alpha] = coeff
        object.__setattr__(self, "terms", clean)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "WeylOp":
        return cls(n, {})

    @classmethod
    def identity(cls, n: int) -> "WeylOp":
        return cls(n, {mi_zero(n): Poly.const(n, 1)})

    @classmethod
    def mul_by(cls, p: Poly) -> "WeylOp":
        """The multiplication operator by p(z)."""
        return cls(p.n, {mi_zero(p.n): p})

    @classmethod
    def dz(cls, n: int, i: int) -> "WeylOp":
        """The derivation dz_i (1-based)."""
        return cls(n, {mi_unit(n, i): Poly.const(n, 1)})

    # -- algebra -------------------------------------------------------------

    def _require_same_n(self, other: "WeylOp") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "WeylOp") -> "WeylOp":
        self._require_same_n(other)
        return from_right_symbol(right_symbol(self) + right_symbol(other))

    def __neg__(self) -> "WeylOp":
        return self.scale(-1)

    def __sub__(self, other: "WeylOp") -> "WeylOp":
        return self + (-other)

    def scale(self, c: Scalar) -> "WeylOp":
        return WeylOp(self.n, {a: p * Fraction(c) for a, p in self.terms.items()})

    def apply(self, p: Poly) -> Poly:
        """Apply the operator to a polynomial in Q[z]."""
        if p.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {p.n}")
        if not p.is_z_only():
            raise ValueError("operand must lie in Q[z]")
        return Poly.sum(self.n, (coeff * p.d_multi("z", alpha)
                                 for alpha, coeff in self.terms.items()))

    def compose(self, other: "WeylOp") -> "WeylOp":
        """Operator composition self o other, renormalized to right normal form.

        dz^a o c(z) = sum_{g <= a} C(a, g) (dz^g c) dz^(a-g), so each term
        pair contributes finitely many normal-form terms.
        """
        self._require_same_n(other)
        pieces = []
        reach = tuple(map(max, zip(mi_zero(self.n), *self.terms)))  # componentwise max alpha
        for beta, b_coeff in other.terms.items():
            partials = _z_partials(b_coeff, reach)  # gamma -> dz^gamma b_coeff
            for alpha, a_coeff in self.terms.items():
                for gamma, db in partials.items():
                    if mi_le(gamma, alpha):
                        key = mi_add(mi_sub(alpha, gamma), beta)
                        shift = Poly.xi_monomial(self.n, key, mi_binomial(alpha, gamma))
                        pieces.append(shift * a_coeff * db)
        return from_right_symbol(Poly.sum(self.n, pieces))

    def compose_pow(self, m: int) -> "WeylOp":
        """m-fold composition power; m = 0 yields the identity."""
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"power must be a non-negative integer, got {m!r}")
        result = WeylOp.identity(self.n)
        for _ in range(m):
            result = result.compose(self)
        return result

    def __repr__(self) -> str:
        parts = ", ".join(f"d^{a}: {c!r}" for a, c in sorted(self.terms.items()))
        return f"WeylOp(n={self.n}, {{{parts}}})"


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
    """sum_a c_a(z) x^a: the direct transcription of the right normal form."""
    return Poly(op.n, {(alpha, ze): c for alpha, coeff in op.terms.items()
                       for (_, ze), c in coeff.terms.items()})


def from_right_symbol(p: Poly) -> WeylOp:
    """Inverse of ``right_symbol``: regroup a polynomial by x-exponent."""
    grouped: dict[MultiIndex, dict[TermKey, Fraction]] = {}
    for (xe, ze), c in p.terms.items():
        grouped.setdefault(xe, {})[(mi_zero(p.n), ze)] = c
    return WeylOp(p.n, {xe: Poly(p.n, terms) for xe, terms in grouped.items()})


def left_symbol(op: WeylOp) -> Poly:
    """The left total symbol: phi_{-1} applied to the right symbol."""
    return phi(StarContext(op.n, Fraction(-1)), right_symbol(op))


def from_left_symbol(p: Poly) -> WeylOp:
    """Build sum_b dz^b o c_b(z) from the left symbol sum_b c_b(z) x^b.

    Goes through ``compose`` rather than through the flow map, so the two
    symbol routes stay independently testable.
    """
    pieces = (right_symbol(WeylOp(p.n, {beta: Poly.const(p.n, 1)}).compose(WeylOp.mul_by(c)))
              for beta, c in from_right_symbol(p).terms.items())
    return from_right_symbol(Poly.sum(p.n, pieces))


def interchange_check(n: int, degmax: int) -> Report:
    """Verify on the monomial basis that the symbol interchange maps equal
    the cross-Laplacian flows at parameter +1/-1.

    Returns a Report with one record per (basis monomial, direction).
    """
    plus = StarContext(n, Fraction(1))
    minus = StarContext(n, Fraction(-1))
    report = Report()
    for alpha in iter_multiindices(n, degmax):
        for beta in iter_multiindices(n, degmax - sum(alpha)):
            p = Poly.monomial(n, alpha, beta)
            got_l2r = right_symbol(from_left_symbol(p))
            want_l2r = phi(plus, p)
            got_r2l = left_symbol(from_right_symbol(p))
            want_r2l = phi(minus, p)
            for direction, got, want in (("l2r", got_l2r, want_l2r),
                                         ("r2l", got_r2l, want_r2l)):
                report.add("interchange", (("alpha", ",".join(map(str, alpha))),
                                           ("beta", ",".join(map(str, beta))),
                                           ("dir", direction)),
                           got == want, _poly_text(got))
    return report


def _poly_text(p: Poly) -> str:
    from .syntax import format_poly  # deferred: syntax imports this module

    return format_poly(p)
