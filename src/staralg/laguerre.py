"""Generalized Laguerre polynomials, exactly.

One-variable polynomials come from the explicit binomial sum

    L_m^[k](z) = sum_{j=0}^{m} C(m + k, m - j) (-z)^j / j!      (k in N),

and the n-variable family is the coordinatewise product.  The same
polynomials arise from the star product at parameter 1:

    L_a^[k](x z) = (-1)^|a| / a! * x^(-k) (x^(a+k) star z^a),

where the monomial division is always exact; evaluating at x = (1,..,1)
recovers L_a^[k](z).  The generating series exp(-z u/(1-u)) / (1-u)^(k+1)
is built with one exp for every k at once: each further weight is one more
division by (1 - u).  Orthogonality over the positive orthant against the
weight z^k exp(-sum z_i) is integrated termwise through factorial moments,
in integers over one common denominator, never by quadrature, so every
identity here is checked with zero tolerance.

The check_* style functions are generators of machine-readable records,
each built as its case is decided; the small boolean verifiers return plain
bools.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterator, Sequence

from .deform import star_monomial
from .poly import (
    MultiIndex,
    Poly,
    Scalar,
    iter_multiindices,
    mi_add,
    mi_factorial,
)
from .report import InternalFault, OutputRecord, check
from .series import USeries


@dataclass(frozen=True)
class LaguerreSpec:
    """Degree index alpha and superscript parameter k, both in N^n."""

    alpha: MultiIndex
    k: MultiIndex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "k", tuple(self.k))
        if len(self.alpha) != len(self.k):
            raise ValueError(f"alpha and k must have equal length: {self.alpha} vs {self.k}")
        if not self.alpha:
            raise ValueError("indices must have length >= 1")
        if any(a < 0 for a in self.alpha) or any(c < 0 for c in self.k):
            raise ValueError("indices must be non-negative")

    @property
    def n(self) -> int:
        return len(self.alpha)


def laguerre1(m: int, k: int) -> Poly:
    """The one-variable polynomial L_m^[k](z1), dimension n = 1."""
    if m < 0 or k < 0:
        raise ValueError(f"m and k must be non-negative, got m={m}, k={k}")
    return Poly._make(1, {(0, j): comb(m + k, m - j) * (-1) ** j * (factorial(m) // factorial(j))
                          for j in range(m + 1)}, factorial(m))


def _embed(p: Poly, n: int, i: int) -> Poly:
    """Lift a one-variable polynomial into n variables at coordinate i (1-based)."""
    lo, hi = (0,) * (i - 1), (0,) * (n - i)
    return Poly._make(n, {lo + (a,) + hi + lo + (b,) + hi: c for (a, b), c in p.nums.items()},
                      p.den)


def _coordinatewise(factors: Sequence[Poly]) -> Poly:
    """The product of one-variable polynomials, the i-th lifted to coordinate i."""
    n = len(factors)
    total = Poly.const(n, 1)
    for i, p in enumerate(factors, start=1):
        total = total * _embed(p, n, i)
    return total


def laguerre(spec: LaguerreSpec) -> Poly:
    """The n-variable polynomial: product of L_{alpha_i}^[k_i] in z_i."""
    return _coordinatewise([laguerre1(a, k) for a, k in zip(spec.alpha, spec.k)])


def laguerre_star(spec: LaguerreSpec) -> Poly:
    """L_alpha^[k] with x_i z_i substituted for z_i, built from the star product.

    Computes (-1)^|alpha| / alpha! * x^(-k) (x^(alpha+k) star z^alpha) at
    parameter 1; the trailing monomial division is exact.
    """
    return _star_built(spec, mi_add(spec.alpha, spec.k), spec.alpha, Poly.divide_xi_monomial)


def laguerre_star_zside(spec: LaguerreSpec) -> Poly:
    """The mirrored construction (-1)^|alpha| / alpha! * z^(-k) (x^alpha star z^(alpha+k));
    must agree with ``laguerre_star`` exactly."""
    return _star_built(spec, spec.alpha, mi_add(spec.alpha, spec.k), Poly.divide_z_monomial)


def _star_built(spec: LaguerreSpec, xi_exp: MultiIndex, z_exp: MultiIndex,
                divide: Callable[[Poly, MultiIndex], Poly]) -> Poly:
    """(-1)^|alpha| / alpha! * (x^xi_exp star z^z_exp) at parameter 1, divided
    by the monomial of exponent k.  The division is exact by the theory, so
    a failure is an InternalFault, never a usage error."""
    raw = star_monomial(1, xi_exp, z_exp)
    scaled = raw * Fraction((-1) ** sum(spec.alpha), mi_factorial(spec.alpha))
    try:
        return divide(scaled, spec.k)
    except ValueError as exc:
        raise InternalFault(f"star-built Laguerre polynomial for alpha={spec.alpha}, "
                            f"k={spec.k}: {exc}") from exc


def laguerre_from_star_at_one(spec: LaguerreSpec) -> Poly:
    """Evaluate the star-product construction at x = (1,..,1); equals laguerre(spec)."""
    ones = [Fraction(1)] * spec.n
    return laguerre_star(spec).evaluate(xi_point=ones)


def laguerre_genfun(spec: LaguerreSpec) -> Poly:
    """The generating-function route: per coordinate, the coefficient of
    u^alpha_i in exp(-z u/(1-u)) / (1-u)^(k_i+1); coordinates multiply."""
    series = _genfun_series(max(spec.k), max(spec.alpha), Poly.z_var(1, 1))
    return _coordinatewise([series[k].coeffs[a] for a, k in zip(spec.alpha, spec.k)])


def _genfun_series(kmax: int, order: int, letter: Poly) -> list[USeries]:
    """exp(-letter * u/(1-u)) / (1-u)^(k+1) for k = 0..kmax, truncated at the
    given order: one exp, then one division by (1 - u) per weight."""
    tail = USeries.geometric_tail(order, letter.n)
    series = [tail.scale_poly(-letter).exp().over_one_minus_u()]
    for _ in range(kmax):
        series.append(series[-1].over_one_minus_u())
    return series


# ---------------------------------------------------------------------------
# Exact integration against the Laguerre weights
# ---------------------------------------------------------------------------

def gamma_moment(j: int) -> int:
    """The moment integral of z^j e^(-z) over (0, inf): exactly j!."""
    if j < 0:
        raise ValueError(f"moment index must be non-negative, got {j}")
    return factorial(j)


def integrate_weight(p: Poly, k: MultiIndex) -> Fraction:
    """Integrate p(z) z^k e^(-sum z_i) over the positive orthant, termwise."""
    if not p.is_z_only():
        raise ValueError("integrand must lie in Q[z]")
    if len(k) != p.n:
        raise ValueError(f"weight index length {len(k)} != dimension {p.n}")
    total = 0
    for key, c in p.nums.items():  # integer numerators over p.den
        for e, kk in zip(key[p.n:], k):
            c *= gamma_moment(e + kk)
        total += c
    return Fraction(total, p.den)


def integrate_weight_xi(p: Poly, xi_point: Sequence[Scalar]) -> Fraction:
    """Integrate p(z) against exp(-<xi, z>) * prod(xi_i) at a fixed rational
    xi with positive entries, using the exact moment j!/c^(j+1)."""
    if not p.is_z_only():
        raise ValueError("integrand must lie in Q[z]")
    point = [Fraction(v) for v in xi_point]
    if len(point) != p.n:
        raise ValueError(f"point length {len(point)} != dimension {p.n}")
    if any(v <= 0 for v in point):
        raise ValueError("all xi entries must be positive")
    total = Fraction(0)
    for key, c in p.nums.items():
        m = Fraction(c)
        for e, v in zip(key[p.n:], point):
            m *= Fraction(factorial(e)) / v ** e
        total += m
    return total / p.den


# ---------------------------------------------------------------------------
# Identity verifiers
# ---------------------------------------------------------------------------

def generating_check(kmax: int, order: int) -> Iterator[OutputRecord]:
    """Coefficient m of the generating series for weight k equals L_m^[k],
    for 0 <= k <= kmax and 0 <= m <= order; records run k-major."""
    if kmax < 0 or order < 0:
        raise ValueError(f"kmax and order must be >= 0, got kmax={kmax}, order={order}")
    for k, series in enumerate(_genfun_series(kmax, order, Poly.z_var(1, 1))):
        for m, got in enumerate(series.coeffs):
            yield check("genfun", got == laguerre1(m, k), got, k=k, m=m)


def identity_dk_check(m: int, k: int) -> bool:
    """L_m^[k] equals (-1)^k times the k-th derivative of L_{m+k}^[0]."""
    derived = laguerre1(m + k, 0).d_multi("z", (k,)) * Fraction((-1) ** k)
    return derived == laguerre1(m, k)


def recurrence_check(mmax: int) -> Iterator[OutputRecord]:
    """Three-term recurrence and derivative recurrence for 1 <= m <= mmax."""
    if mmax < 1:
        raise ValueError(f"mmax must be >= 1, got {mmax}")
    z = Poly.z_var(1, 1)
    ladder = [laguerre1(m, 0) for m in range(mmax + 2)]
    for m in range(1, mmax + 1):
        three_term = ladder[m + 1] * (m + 1) == (Poly.const(1, 2 * m + 1) - z) * ladder[m] - ladder[m - 1] * m
        derivative = z * ladder[m].d_z(1) == (ladder[m] - ladder[m - 1]) * m
        for name, passed in (("three_term", three_term), ("derivative", derivative)):
            yield check("recur", passed, m=m, relation=name)


def ode_check(mmax: int, kmax: int) -> Iterator[OutputRecord]:
    """z f'' + (k + 1 - z) f' + m f vanishes identically for f = L_m^[k]."""
    z = Poly.z_var(1, 1)
    for m in range(mmax + 1):
        for k in range(kmax + 1):
            f = laguerre1(m, k)
            residual = z * f.d_z(1).d_z(1) + (Poly.const(1, k + 1) - z) * f.d_z(1) + f * m
            yield check("ode", residual.is_zero(), residual, m=m, k=k)


def star_exp_check(k: MultiIndex, order: int) -> Iterator[OutputRecord]:
    """Truncated generating identity for the star-built family.

    Per coordinate, the u-series of exp(-(x1 z1) u/(1-u)) / (1-u)^(k_i+1)
    must reproduce the one-variable star construction; across coordinates the
    n-variable star construction must factor into the per-coordinate ones.
    """
    k = tuple(k)
    n = len(k)
    series = _genfun_series(max(k, default=0), order, Poly.xi_var(1, 1) * Poly.z_var(1, 1))
    one_var = {}  # (m, k_i) -> the one-variable star construction
    for i, kk in enumerate(k, start=1):
        for m, got in enumerate(series[kk].coeffs):
            one_var[m, kk] = want = laguerre_star(LaguerreSpec((m,), (kk,)))
            yield check("starexp", got == want, got, k=k, coordinate=i, m=m)
    if n > 1:
        for alpha in iter_multiindices(n, order):
            product = _coordinatewise([one_var[a, kk] for a, kk in zip(alpha, k)])
            yield check("starexp", product == laguerre_star(LaguerreSpec(alpha, k)), product,
                        k=k, coordinate="all", m=alpha)


def even_identity_check(alpha: MultiIndex, beta: MultiIndex) -> bool:
    """x^beta (x^alpha star z^(alpha+beta)) equals z^beta (x^(alpha+beta) star z^alpha),
    with ordinary multiplication outside the stars."""
    alpha, beta = tuple(alpha), tuple(beta)
    n = len(alpha)  # Poly refuses a beta of another length
    left = Poly.xi_monomial(n, beta) * star_monomial(1, alpha, mi_add(alpha, beta))
    right = Poly.z_monomial(n, beta) * star_monomial(1, mi_add(alpha, beta), alpha)
    return left == right


def even_identity_report(n: int, degmax: int) -> Iterator[OutputRecord]:
    """Run even_identity_check over all index pairs with |alpha|, |beta| <= degmax."""
    for alpha in iter_multiindices(n, degmax):
        for beta in iter_multiindices(n, degmax):
            yield check("even", even_identity_check(alpha, beta), alpha=alpha, beta=beta)


def orthogonality_check(n: int, k: MultiIndex, degmax: int) -> Iterator[OutputRecord]:
    """Pairwise weight integrals reproduce delta_{ab} (a+k)!/a! exactly."""
    k = tuple(k)
    if len(k) != n:
        raise ValueError(f"weight index length {len(k)} != dimension {n}")
    basis = list(iter_multiindices(n, degmax))
    polys = {a: laguerre(LaguerreSpec(a, k)) for a in basis}
    for a in basis:
        for b in basis:
            got = integrate_weight(polys[a] * polys[b], k)
            want = Fraction(mi_factorial(mi_add(a, k)), mi_factorial(a)) if a == b else Fraction(0)
            yield check("ortho", got == want, got, alpha=a, beta=b, k=k)


def xi_orthogonality_check(xi_point: Sequence[Scalar], degmax: int) -> Iterator[OutputRecord]:
    """At a fixed positive rational xi, the polynomials x^a star z^a evaluated
    there stay orthogonal with squared norm (a!)^2."""
    point = tuple(Fraction(v) for v in xi_point)
    n = len(point)
    basis = list(iter_multiindices(n, degmax))
    evaluated = {a: star_monomial(1, a, a).evaluate(xi_point=point) for a in basis}
    for a in basis:
        for b in basis:
            got = integrate_weight_xi(evaluated[a] * evaluated[b], point)
            want = Fraction(mi_factorial(a)) ** 2 if a == b else Fraction(0)
            yield check("ortho_xi", got == want, got, alpha=a, beta=b, xi=point)
