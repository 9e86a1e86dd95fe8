"""Truncated power series in one formal variable u with polynomial coefficients.

A series of order N stores exactly N + 1 coefficients (indices 0..N); all
arithmetic truncates at order N, and the truncation order is an explicit
argument everywhere.  Coefficients are Poly values sharing one dimension n,
so the same machinery serves series over Q[z] and over Q[x, z].

``exp`` uses the recurrence m E_m = sum_{j=1..m} j S_j E_(m-j) for E = exp(S),
which follows from E' = S' E: O(N^2) coefficient products at order N.
Dividing by (1 - u) is a running sum of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    def geometric_tail(cls, order: int, n: int) -> "USeries":
        """u / (1 - u) truncated: coefficient 1 at every positive order."""
        return cls(order, (Poly.zero(n),) + tuple(Poly.const(n, 1) for _ in range(order)))

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

    def over_one_minus_u(self) -> "USeries":
        """The series divided by (1 - u): coefficient m is the sum of 0..m."""
        sums = [self.coeffs[0]]
        for c in self.coeffs[1:]:
            sums.append(sums[-1] + c)
        return USeries(self.order, tuple(sums))

    def exp(self) -> "USeries":
        """exp of a series S with zero constant term, truncated at the order.

        E = exp(S) satisfies E' = S' E, so E_0 = 1 and, for m >= 1,
        m E_m = sum_{j=1..m} j S_j E_(m-j).
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("exp requires a zero constant term")
        n = self.n
        weighted = [c * j for j, c in enumerate(self.coeffs)]  # j S_j
        out = [Poly.const(n, 1)]
        for m in range(1, self.order + 1):
            pieces = (weighted[j] * out[m - j] for j in range(1, m + 1)
                      if not weighted[j].is_zero())
            out.append(Poly.sum(n, pieces) * Fraction(1, m))
        return USeries(self.order, tuple(out))
