"""Generalized Laguerre polynomials, exactly.

One-variable polynomials come from the explicit binomial sum

    L_m^[k](z) = sum_{j=0}^{m} C(m + k, m - j) (-z)^j / j!      (k in N),

and the n-variable family is the coordinatewise product.  The same
polynomials arise from the star product at parameter 1:

    L_a^[k](x z) = (-1)^|a| / a! * x^(-k) (x^(a+k) star z^a),

where the monomial division is always exact; evaluating at x = (1,..,1)
recovers L_a^[k](z).  Orthogonality over the positive orthant against the
weight z^k exp(-sum z_i) is integrated termwise through factorial moments,
never by quadrature, so every identity here is checked with zero tolerance.

The check_* style functions return a Report of machine-readable records;
the small boolean verifiers return plain bools.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .deform import StarContext, star_monomial
from .poly import (
    MultiIndex,
    Poly,
    Scalar,
    iter_multiindices,
    mi_add,
    mi_factorial,
    mi_sum,
)
from .report import Report
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
    terms = {}
    for j in range(m + 1):
        c = Fraction(comb(m + k, m - j) * (-1) ** j, factorial(j))
        terms[((0,), (j,))] = c
    return Poly(1, terms)


def _embed(p: Poly, n: int, i: int) -> Poly:
    """Lift a one-variable polynomial into n variables at coordinate i (1-based)."""
    out = {}
    for ((a,), (b,)), c in p.terms.items():
        xe = tuple(a if j == i - 1 else 0 for j in range(n))
        ze = tuple(b if j == i - 1 else 0 for j in range(n))
        out[(xe, ze)] = c
    return Poly(n, out)


def laguerre(spec: LaguerreSpec) -> Poly:
    """The n-variable polynomial: product of L_{alpha_i}^[k_i] in z_i."""
    total = Poly.const(spec.n, 1)
    for i in range(1, spec.n + 1):
        total = total * _embed(laguerre1(spec.alpha[i - 1], spec.k[i - 1]), spec.n, i)
    return total


def laguerre_star(spec: LaguerreSpec) -> Poly:
    """L_alpha^[k] with x_i z_i substituted for z_i, built from the star product.

    Computes (-1)^|alpha| / alpha! * x^(-k) (x^(alpha+k) star z^alpha) at
    parameter 1; the trailing monomial division is exact, and a failed
    division signals an implementation bug.
    """
    ctx = StarContext(spec.n, Fraction(1))
    raw = star_monomial(ctx, mi_add(spec.alpha, spec.k), spec.alpha)
    scaled = raw * Fraction((-1) ** mi_sum(spec.alpha), mi_factorial(spec.alpha))
    return scaled.divide_xi_monomial(spec.k)


def laguerre_star_zside(spec: LaguerreSpec) -> Poly:
    """The mirrored construction (-1)^|alpha| / alpha! * z^(-k) (x^alpha star z^(alpha+k));
    must agree with ``laguerre_star`` exactly."""
    ctx = StarContext(spec.n, Fraction(1))
    raw = star_monomial(ctx, spec.alpha, mi_add(spec.alpha, spec.k))
    scaled = raw * Fraction((-1) ** mi_sum(spec.alpha), mi_factorial(spec.alpha))
    return scaled.divide_z_monomial(spec.k)


def laguerre_from_star_at_one(spec: LaguerreSpec) -> Poly:
    """Evaluate the star-product construction at x = (1,..,1); equals laguerre(spec)."""
    ones = [Fraction(1)] * spec.n
    return laguerre_star(spec).evaluate(xi_point=ones)


def laguerre_genfun(spec: LaguerreSpec) -> Poly:
    """The generating-function route: per coordinate, the coefficient of
    u^alpha_i in exp(-z u/(1-u)) / (1-u)^(k_i+1); coordinates multiply."""
    total = Poly.const(spec.n, 1)
    for i in range(1, spec.n + 1):
        order = spec.alpha[i - 1]
        series = _genfun_series(spec.k[i - 1], order, Poly.z_var(1, 1))
        total = total * _embed(series.coeffs[order], spec.n, i)
    return total


def _genfun_series(k: int, order: int, letter: Poly) -> USeries:
    """exp(-letter * u/(1-u)) / (1-u)^(k+1), truncated at the given order."""
    tail = USeries.geometric_tail(order, letter.n)
    return tail.scale_poly(-letter).exp() * USeries.inv_one_minus_u_pow(k + 1, order, letter.n)


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
    total = Fraction(0)
    for (_, ze), c in p.terms.items():
        m = 1
        for e, kk in zip(ze, k):
            m *= gamma_moment(e + kk)
        total += c * m
    return total


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
    for (_, ze), c in p.terms.items():
        m = Fraction(1)
        for e, v in zip(ze, point):
            m *= Fraction(factorial(e)) / v ** e
        total += c * m
    return total


# ---------------------------------------------------------------------------
# Identity verifiers
# ---------------------------------------------------------------------------

def _fmt_mi(a: MultiIndex) -> str:
    return ",".join(map(str, a))


def _fmt_poly(p: Poly) -> str:
    from .syntax import format_poly

    return format_poly(p)


def generating_check(k: int, order: int) -> Report:
    """Coefficient m of the generating series equals L_m^[k] for 0 <= m <= order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    series = _genfun_series(k, order, Poly.z_var(1, 1))
    report = Report()
    for m in range(order + 1):
        got = series.coeffs[m]
        report.add("genfun", (("k", str(k)), ("m", str(m))), got == laguerre1(m, k),
                   _fmt_poly(got))
    return report


def identity_dk_check(m: int, k: int) -> bool:
    """L_m^[k] equals (-1)^k times the k-th derivative of L_{m+k}^[0]."""
    derived = laguerre1(m + k, 0).d_multi("z", (k,)) * Fraction((-1) ** k)
    return derived == laguerre1(m, k)


def recurrence_check(mmax: int) -> Report:
    """Three-term recurrence and derivative recurrence for 1 <= m <= mmax."""
    if mmax < 1:
        raise ValueError(f"mmax must be >= 1, got {mmax}")
    z = Poly.z_var(1, 1)
    ladder = [laguerre1(m, 0) for m in range(mmax + 2)]
    report = Report()
    for m in range(1, mmax + 1):
        three_term = ladder[m + 1] * (m + 1) == (Poly.const(1, 2 * m + 1) - z) * ladder[m] - ladder[m - 1] * m
        derivative = z * ladder[m].d_z(1) == (ladder[m] - ladder[m - 1]) * m
        for name, passed in (("three_term", three_term), ("derivative", derivative)):
            report.add("recur", (("m", str(m)), ("relation", name)), passed)
    return report


def ode_check(mmax: int, kmax: int) -> Report:
    """z f'' + (k + 1 - z) f' + m f vanishes identically for f = L_m^[k]."""
    z = Poly.z_var(1, 1)
    report = Report()
    for m in range(mmax + 1):
        for k in range(kmax + 1):
            f = laguerre1(m, k)
            residual = z * f.d_z(1).d_z(1) + (Poly.const(1, k + 1) - z) * f.d_z(1) + f * m
            report.add("ode", (("m", str(m)), ("k", str(k))), residual.is_zero(),
                       _fmt_poly(residual))
    return report


def star_exp_check(k: MultiIndex, order: int) -> Report:
    """Truncated generating identity for the star-built family.

    Per coordinate, the u-series of exp(-(x1 z1) u/(1-u)) / (1-u)^(k_i+1)
    must reproduce the one-variable star construction; across coordinates the
    n-variable star construction must factor into the per-coordinate ones.
    """
    k = tuple(k)
    n = len(k)
    report = Report()
    xz = Poly.xi_var(1, 1) * Poly.z_var(1, 1)
    for i in range(1, n + 1):
        series = _genfun_series(k[i - 1], order, xz)
        for m in range(order + 1):
            got = series.coeffs[m]
            want = laguerre_star(LaguerreSpec((m,), (k[i - 1],)))
            report.add("starexp", (("k", _fmt_mi(k)), ("coordinate", str(i)), ("m", str(m))),
                       got == want, _fmt_poly(got))
    if n > 1:
        for alpha in iter_multiindices(n, order):
            product = Poly.const(n, 1)
            for i in range(1, n + 1):
                one_d = laguerre_star(LaguerreSpec((alpha[i - 1],), (k[i - 1],)))
                product = product * _embed(one_d, n, i)
            report.add("starexp", (("k", _fmt_mi(k)), ("coordinate", "all"), ("m", _fmt_mi(alpha))),
                       product == laguerre_star(LaguerreSpec(alpha, k)), _fmt_poly(product))
    return report


def even_identity_check(alpha: MultiIndex, beta: MultiIndex) -> bool:
    """x^beta (x^alpha star z^(alpha+beta)) equals z^beta (x^(alpha+beta) star z^alpha),
    with ordinary multiplication outside the stars."""
    alpha, beta = tuple(alpha), tuple(beta)
    n = len(alpha)
    if len(beta) != n:
        raise ValueError("alpha and beta must have equal length")
    ctx = StarContext(n, Fraction(1))
    left = Poly.xi_monomial(n, beta) * star_monomial(ctx, alpha, mi_add(alpha, beta))
    right = Poly.z_monomial(n, beta) * star_monomial(ctx, mi_add(alpha, beta), alpha)
    return left == right


def even_identity_report(n: int, degmax: int) -> Report:
    """Run even_identity_check over all index pairs with |alpha|, |beta| <= degmax."""
    report = Report()
    for alpha in iter_multiindices(n, degmax):
        for beta in iter_multiindices(n, degmax):
            report.add("even", (("alpha", _fmt_mi(alpha)), ("beta", _fmt_mi(beta))),
                       even_identity_check(alpha, beta))
    return report


def orthogonality_check(n: int, k: MultiIndex, degmax: int) -> Report:
    """Pairwise weight integrals reproduce delta_{ab} (a+k)!/a! exactly."""
    k = tuple(k)
    if len(k) != n:
        raise ValueError(f"weight index length {len(k)} != dimension {n}")
    basis = list(iter_multiindices(n, degmax))
    polys = {a: laguerre(LaguerreSpec(a, k)) for a in basis}
    report = Report()
    for a in basis:
        for b in basis:
            got = integrate_weight(polys[a] * polys[b], k)
            want = Fraction(mi_factorial(mi_add(a, k)), mi_factorial(a)) if a == b else Fraction(0)
            report.add("ortho", (("alpha", _fmt_mi(a)), ("beta", _fmt_mi(b)), ("k", _fmt_mi(k))),
                       got == want, str(got))
    return report


def xi_orthogonality_check(xi_point: Sequence[Scalar], degmax: int) -> Report:
    """At a fixed positive rational xi, the polynomials x^a star z^a evaluated
    there stay orthogonal with squared norm (a!)^2."""
    point = [Fraction(v) for v in xi_point]
    n = len(point)
    ctx = StarContext(n, Fraction(1))
    basis = list(iter_multiindices(n, degmax))
    evaluated = {
        a: star_monomial(ctx, a, a).evaluate(xi_point=point)
        for a in basis
    }
    report = Report()
    for a in basis:
        for b in basis:
            got = integrate_weight_xi(evaluated[a] * evaluated[b], point)
            want = Fraction(mi_factorial(a)) ** 2 if a == b else Fraction(0)
            report.add("ortho_xi", (("alpha", _fmt_mi(a)), ("beta", _fmt_mi(b)),
                                    ("xi", _fmt_mi(point))), got == want, str(got))
    return report
