"""A one-parameter deformation of the polynomial product on Q[x, z].

For a rational parameter t, the star product is defined by the finite
bidifferential sum

    f star_t g = sum over multi-indices a, b of
                 (-t)^(|a|+|b|) / (a! b!) * (dxi^b dz^a f) * (dz^b dxi^a g),

which is commutative and associative, and reduces to the ordinary product
at t = 0.  The cross-Laplacian

    L = sum_i dxi_i dz_i

is locally nilpotent, so its flow phi_t = exp(t L) is a well-defined linear
bijection of Q[x, z]; it is in fact an algebra isomorphism from the star_t
product to the ordinary product, with exact inverse phi_{-t}.

That isomorphism is the only star algorithm here: every product is computed
as phi_{-t}(phi_t f * phi_t g), and powers, star monomials and the
star-Taylor expansion go through phi likewise.  The double sum above is the
definition, and the tests keep it as their independent reference.

The module also provides the analogue of evaluation at x = 0 for the star
algebra (``star_ev0``, an algebra homomorphism onto Q[z]) and the unique
star-Taylor expansion f = sum_a (1/a!) x^a star_t c_a(z).

Everything here is pure and exact; a StarContext (n, t) pins the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, perm

from .poly import (
    MultiIndex,
    Poly,
    TermKey,
    mi_factorial,
    mi_le,
    mi_sub,
    mi_sum,
    mi_zero,
)


@dataclass(frozen=True)
class StarContext:
    """Fixes the algebra: dimension n >= 1 and rational deformation parameter t."""

    n: int
    t: Fraction

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        object.__setattr__(self, "t", Fraction(self.t))

    def check(self, *polys: Poly) -> None:
        for p in polys:
            if p.n != self.n:
                raise ValueError(f"dimension mismatch: polynomial has n={p.n}, context n={self.n}")


def cross_laplacian(f: Poly) -> Poly:
    """sum_i dxi_i dz_i f; drops both the x-degree and z-degree of each term."""
    return Poly.sum(f.n, (f.d_z(i).d_xi(i) for i in range(1, f.n + 1)))


def phi(ctx: StarContext, f: Poly) -> Poly:
    """exp(t * cross_laplacian) applied to f, termwise in closed form:

        phi_t(x^a z^b) = sum over gamma <= min(a, b) of t^|gamma| * x^(a-gamma) z^(b-gamma)
                         * prod_i C(a_i, gamma_i) * b_i! / (b_i - gamma_i)!,

    summed in integers over one common denominator.  phi_{-t} is the inverse.
    """
    ctx.check(f)
    depth = max((sum(map(min, xe, ze)) for xe, ze in f.terms), default=0)  # max |gamma|
    if ctx.t == 0 or depth == 0:
        return f
    p, q = ctx.t.numerator, ctx.t.denominator
    t_pow = [p ** k * q ** (depth - k) for k in range(depth + 1)]  # t^k * q^depth
    denom = lcm(*(c.denominator for c in f.terms.values()))
    out: dict[TermKey, int] = {}
    for (xe, ze), c in f.terms.items():
        # (x exponent, z exponent, integer weight, |gamma|), one coordinate at a time
        partial = [((), (), c.numerator * (denom // c.denominator), 0)]
        for a, b in zip(xe, ze):
            partial = [(xp + (a - g,), zp + (b - g,), w * comb(a, g) * perm(b, g), k + g)
                       for xp, zp, w, k in partial for g in range(min(a, b) + 1)]
        for xp, zp, w, k in partial:
            out[(xp, zp)] = out.get((xp, zp), 0) + w * t_pow[k]
    scale = denom * q ** depth
    return Poly(f.n, {key: Fraction(v, scale) for key, v in out.items() if v})


def star(ctx: StarContext, f: Poly, g: Poly) -> Poly:
    """The star_t product of f and g, as phi_{-t}(phi_t f * phi_t g)."""
    return phi(StarContext(ctx.n, -ctx.t), phi(ctx, f) * phi(ctx, g))


def _star_via_subst(ctx: StarContext, p: Poly, g: Poly, side: int) -> Poly:
    """p star_t g for p in the x (side 0) or the z (side 1) variables only, by
    substituting the commuting operators x_i - t*dz_i, resp. z_i - t*dxi_i,
    factor by factor.  Serves as an independent oracle for ``star``."""
    ctx.check(p, g)
    if any(key[1 - side] != mi_zero(ctx.n) for key in p.terms):
        raise ValueError(f"first factor must be a polynomial in the {'xz'[side]} variables only")
    var, partial = (Poly.xi_var, Poly.d_z) if side == 0 else (Poly.z_var, Poly.d_xi)
    pieces = []
    for key, c in p.terms.items():
        h = g
        for i, e in enumerate(key[side], start=1):
            for _ in range(e):
                h = var(ctx.n, i) * h - partial(h, i) * ctx.t
        pieces.append(h * c)
    return Poly.sum(ctx.n, pieces)


def star_via_subst_xi(ctx: StarContext, lam: Poly, g: Poly) -> Poly:
    """lam(x) star_t g computed as the operator substitution lam(x - t*dz)."""
    return _star_via_subst(ctx, lam, g, 0)


def star_via_subst_z(ctx: StarContext, p: Poly, g: Poly) -> Poly:
    """p(z) star_t g computed as the operator substitution p(z - t*dxi)."""
    return _star_via_subst(ctx, p, g, 1)


def star_monomial(ctx: StarContext, alpha: MultiIndex, beta: MultiIndex) -> Poly:
    """x^alpha star_t z^beta, computed as phi_{-t}(x^alpha z^beta)."""
    if len(alpha) != ctx.n or len(beta) != ctx.n:
        raise ValueError(f"multi-index length != dimension {ctx.n}")
    return phi(StarContext(ctx.n, -ctx.t), Poly.monomial(ctx.n, alpha, beta))


def star_pow(ctx: StarContext, f: Poly, m: int) -> Poly:
    """m-fold star_t power of f (1 for m = 0), as phi_{-t}(phi_t(f) ** m)."""
    ctx.check(f)
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"power must be a non-negative integer, got {m!r}")
    return phi(StarContext(ctx.n, -ctx.t), phi(ctx, f) ** m)


def star_ev0(ctx: StarContext, f: Poly) -> Poly:
    """The star-algebra analogue of evaluation at x = 0.

    Termwise, x^b z^g maps to t^|b| * dz^b(z^g), extended linearly.  The
    result lies in Q[z], and the map is an algebra homomorphism from the
    star_t product to the ordinary product on Q[z]; it also factors as
    evaluate(phi(f), x=0).
    """
    ctx.check(f)
    out: dict = {}
    zero = mi_zero(ctx.n)
    for (xe, ze), c in f.terms.items():
        if not mi_le(xe, ze):
            continue  # dz^xe z^ze vanishes
        coeff = c * ctx.t ** mi_sum(xe)
        coeff *= Fraction(mi_factorial(ze), mi_factorial(mi_sub(ze, xe)))
        key = (zero, mi_sub(ze, xe))
        out[key] = out.get(key, Fraction(0)) + coeff
    return Poly(ctx.n, out)


@dataclass(frozen=True)
class StarTaylor:
    """The expansion f = sum_a (1/a!) x^a star_t coefficients[a](z).

    Only multi-indices with a nonzero coefficient polynomial are stored;
    each coefficient lies in Q[z].  The expansion is unique.
    """

    n: int
    t: Fraction
    coefficients: dict[MultiIndex, Poly]

    def reconstruct(self) -> Poly:
        """Re-assemble the source polynomial exactly, as phi_{-t}(sum_a x^a c_a / a!):
        phi_t fixes x^a and each c_a in Q[z], so x^a star_t c_a = phi_{-t}(x^a c_a)."""
        terms = {(alpha, ze): coeff / mi_factorial(alpha)
                 for alpha, c in self.coefficients.items() for (_, ze), coeff in c.terms.items()}
        return phi(StarContext(self.n, -self.t), Poly(self.n, terms))


def star_taylor(ctx: StarContext, f: Poly) -> StarTaylor:
    """Expand f in star-Taylor form, reading c_a = a! * [x^a] phi_t(f) off one
    flow: phi_t fixes x^a and Q[z], so phi_t(f) = sum_a x^a c_a(z) / a!."""
    grouped: dict[MultiIndex, dict[TermKey, Fraction]] = {}
    for (xe, ze), c in phi(ctx, f).terms.items():
        grouped.setdefault(xe, {})[(mi_zero(ctx.n), ze)] = c * mi_factorial(xe)
    return StarTaylor(ctx.n, ctx.t, {a: Poly(ctx.n, t) for a, t in grouped.items()})
