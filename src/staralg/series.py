"""Truncated power series in one formal variable u with polynomial coefficients.

A series of order N stores exactly N + 1 coefficients (indices 0..N); all
arithmetic truncates at order N, and the truncation order is an explicit
argument everywhere.  Coefficients are Poly values sharing one dimension n,
so the same machinery serves series over Q[z] and over Q[x, z].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .poly import Poly, Scalar


@dataclass(frozen=True)
class USeries:
    order: int
    coeffs: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(f"expected {self.order + 1} coefficients, got {len(self.coeffs)}")
        n = self.coeffs[0].n
        if any(c.n != n for c in self.coeffs):
            raise ValueError("all coefficients must share one dimension")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def n(self) -> int:
        return self.coeffs[0].n

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, order: int, n: int, value: Scalar = 1) -> "USeries":
        head = Poly.const(n, value)
        return cls(order, (head,) + tuple(Poly.zero(n) for _ in range(order)))

    @classmethod
    def geometric_tail(cls, order: int, n: int) -> "USeries":
        """u / (1 - u) truncated: coefficient 1 at every positive order."""
        return cls(order, (Poly.zero(n),) + tuple(Poly.const(n, 1) for _ in range(order)))

    @classmethod
    def inv_one_minus_u_pow(cls, k_plus_1: int, order: int, n: int) -> "USeries":
        """(1 - u)^(-k_plus_1) truncated; coefficient of u^m is C(m + k, k)."""
        if k_plus_1 < 1:
            raise ValueError(f"exponent must be >= 1, got {k_plus_1}")
        k = k_plus_1 - 1
        return cls(order, tuple(Poly.const(n, comb(m + k, k)) for m in range(order + 1)))

    # -- arithmetic ----------------------------------------------------------

    def _require_same_order(self, other: "USeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "USeries") -> "USeries":
        self._require_same_order(other)
        return USeries(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "USeries") -> "USeries":
        self._require_same_order(other)
        a, b = self.coeffs, other.coeffs
        return USeries(self.order, tuple(
            Poly.sum(self.n, (a[i] * b[k - i] for i in range(k + 1)
                              if not a[i].is_zero() and not b[k - i].is_zero()))
            for k in range(self.order + 1)))

    def scale_poly(self, p: Poly) -> "USeries":
        """Multiply every coefficient by a fixed polynomial."""
        return USeries(self.order, tuple(c * p for c in self.coeffs))

    def scale(self, c: Scalar) -> "USeries":
        f = Fraction(c)
        return USeries(self.order, tuple(co * f for co in self.coeffs))

    def exp(self) -> "USeries":
        """exp of a series with zero constant term, by Horner-style truncated
        evaluation of 1 + s(1 + s/2(1 + ... (1 + s/N))).
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("exp requires a zero constant term")
        if self.order == 0:
            return USeries.constant(0, self.n, 1)
        one = USeries.constant(self.order, self.n, 1)
        acc = one
        for j in range(self.order, 0, -1):
            acc = one + (self * acc).scale(Fraction(1, j))
        return acc
