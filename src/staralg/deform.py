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

The module also provides ``star_ev0``, the star analogue of evaluation at
x = 0 (an algebra homomorphism onto Q[z]), and ``star_taylor``, the map a -> c_a
of the unique star-Taylor expansion f = sum_a (1/a!) x^a star_t c_a(z).

Everything here is pure and exact (a table a caller lends to phi only
memoises).  Each function takes the parameter t (int or Fraction) first; the
dimension is that of the polynomials, never stored twice.
"""

from __future__ import annotations

from math import comb, perm, prod
from operator import sub

from .poly import (
    MultiIndex,
    Poly,
    Scalar,
    mi_factorial,
    mi_le,
    mi_zero,
)

Expansion = tuple[MultiIndex, int, int]  # (flat key, integer weight, |gamma|), see phi


def cross_laplacian(f: Poly) -> Poly:
    """sum_i dxi_i dz_i f; drops both the x-degree and z-degree of each term."""
    return Poly.sum(f.n, (f.d_z(i).d_xi(i) for i in range(1, f.n + 1)))


def phi(t: Scalar, f: Poly, *, table: dict[MultiIndex, list[Expansion]] | None = None) -> Poly:
    """exp(t * cross_laplacian) applied to f, termwise in closed form:

        phi_t(x^a z^b) = sum over gamma <= min(a, b) of t^|gamma| * x^(a-gamma) z^(b-gamma)
                         * prod_i C(a_i, gamma_i) * b_i! / (b_i - gamma_i)!,

    summed in integers over f's denominator times q^depth, t = p/q.  phi_{-t} is
    the inverse.

    The expansion of a key, one (flat key, integer weight, |gamma|) triple per
    gamma, does not depend on t.  ``table`` maps keys to their expansions, and
    phi adds each key it has not seen.  A caller that maps related polynomials,
    at t or -t, may pass one dict to all of those calls; the table is the
    caller's and is freed with it.  Without one, each call builds a fresh dict,
    so phi keeps no state between calls.
    """
    if t == 0:
        return f
    if table is None:
        table = {}
    terms = [(c, table.get(key) or table.setdefault(key, _expansion(f.n, key)))
             for key, c in f.nums.items()]
    depth = max((e[-1][2] for _, e in terms), default=0)  # max |gamma|, the last triple's
    if depth == 0:
        return f
    p, q = t.numerator, t.denominator
    t_pow = [p ** k * q ** (depth - k) for k in range(depth + 1)]  # t^k * q^depth
    out: dict[MultiIndex, int] = {}
    for c, expansion in terms:
        for flat, w, k in expansion:
            out[flat] = out.get(flat, 0) + c * w * t_pow[k]
    return Poly._make(f.n, out, f.den * q ** depth)


def _expansion(n: int, key: MultiIndex) -> list[Expansion]:
    """phi's t-free expansion of the flat key x^a z^b: for each gamma <= min(a, b),
    in increasing order coordinate by coordinate (so the largest gamma comes
    last), the triple (key of x^(a-gamma) z^(b-gamma), its integer weight, |gamma|)."""
    out = [(key, 1, 0)]
    for i in range(n):
        a, b = key[i], key[n + i]
        if a and b:  # only a matched pair x_i, z_i lowers
            out = [(k[:i] + (a - g,) + k[i + 1:n + i] + (b - g,) + k[n + i + 1:],
                    w * comb(a, g) * perm(b, g), d + g)
                   for k, w, d in out for g in range(min(a, b) + 1)]
    return out


def star(t: Scalar, f: Poly, g: Poly) -> Poly:
    """The star_t product of f and g, as phi_{-t}(phi_t f * phi_t g)."""
    return phi(-t, phi(t, f) * phi(t, g))


def _star_via_subst(t: Scalar, p: Poly, g: Poly, side: int) -> Poly:
    """p star_t g for p in the x (side 0) or the z (side 1) variables only, by
    substituting the commuting operators x_i - t*dz_i, resp. z_i - t*dxi_i,
    factor by factor.  Serves as an independent oracle for ``star``."""
    n = p.n
    if any(any(k[(1 - side) * n:(2 - side) * n]) for k in p.nums):
        raise ValueError(f"first factor must be a polynomial in the {'xz'[side]} variables only")
    var, partial = (Poly.xi_var, Poly.d_z) if side == 0 else (Poly.z_var, Poly.d_xi)
    pieces = []
    for key, c in p.nums.items():
        h = g
        for i, e in enumerate(key[side * n:side * n + n], start=1):
            for _ in range(e):
                h = var(n, i) * h - partial(h, i) * t
        pieces.append(h * c)
    return Poly.sum(n, pieces) / p.den


def star_via_subst_xi(t: Scalar, lam: Poly, g: Poly) -> Poly:
    """lam(x) star_t g computed as the operator substitution lam(x - t*dz)."""
    return _star_via_subst(t, lam, g, 0)


def star_via_subst_z(t: Scalar, p: Poly, g: Poly) -> Poly:
    """p(z) star_t g computed as the operator substitution p(z - t*dxi)."""
    return _star_via_subst(t, p, g, 1)


def star_monomial(t: Scalar, alpha: MultiIndex, beta: MultiIndex) -> Poly:
    """x^alpha star_t z^beta in n = len(alpha) variables, as phi_{-t}(x^alpha z^beta)."""
    return phi(-t, Poly.monomial(len(alpha), alpha, beta))


def star_pow(t: Scalar, f: Poly, m: int) -> Poly:
    """m-fold star_t power of f (1 for m = 0), as phi_{-t}(phi_t(f) ** m)."""
    return phi(-t, phi(t, f) ** m)


def star_ev0(t: Scalar, f: Poly) -> Poly:
    """The star-algebra analogue of evaluation at x = 0.

    Termwise, x^b z^g maps to t^|b| * dz^b(z^g), extended linearly.  The
    result lies in Q[z], and the map is an algebra homomorphism from the
    star_t product to the ordinary product on Q[z]; it also factors as
    evaluate(phi(f), x=0).  Summed in integers over f's denominator.
    """
    n = f.n
    live = [(k[:n], k[n:], c) for k, c in f.nums.items() if mi_le(k[:n], k[n:])]  # else 0
    depth = max((sum(xe) for xe, _, _ in live), default=0)
    p, q, zero = t.numerator, t.denominator, mi_zero(n)
    out: dict[MultiIndex, int] = {}
    for xe, ze, c in live:  # c * t^|xe| * ze! / (ze - xe)!, scaled by q^depth
        key = zero + tuple(map(sub, ze, xe))
        w = c * p ** sum(xe) * q ** (depth - sum(xe))
        out[key] = out.get(key, 0) + w * prod(map(perm, ze, xe))
    return Poly._make(n, out, f.den * q ** depth)


def star_taylor(t: Scalar, f: Poly) -> dict[MultiIndex, Poly]:
    """The star-Taylor expansion f = sum_a (1/a!) x^a star_t c_a(z), as the map
    a -> c_a over the multi-indices with a nonzero c_a; it is unique.  Each c_a
    = a! * [x^a] phi_t(f) is read off one flow: phi_t fixes x^a and Q[z], so
    phi_t(f) = sum_a x^a c_a(z) / a!."""
    n, zero, flow = f.n, mi_zero(f.n), phi(t, f)
    grouped: dict[MultiIndex, dict[MultiIndex, int]] = {}
    for k, c in flow.nums.items():
        grouped.setdefault(k[:n], {})[zero + k[n:]] = c * mi_factorial(k[:n])
    return {a: Poly._make(n, nums, flow.den) for a, nums in grouped.items()}
