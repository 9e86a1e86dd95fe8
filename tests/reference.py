"""Slow reference routes that the fast paths in staralg are checked against.

Each one computes by a different method from the code under test (iterated
series instead of the closed form, the bidifferential double sum and
iterated partials instead of flow coordinates), so a test never compares a
fast path with itself.
"""

from fractions import Fraction

from staralg.deform import StarContext, StarTaylor, cross_laplacian, star_ev0
from staralg.poly import Poly, iter_multiindices, mi_factorial, mi_sum


def star_double_sum(ctx: StarContext, f: Poly, g: Poly) -> Poly:
    """f star_t g by its defining double sum over multi-indices a, b:

        (-t)^(|a|+|b|) / (a! b!) * (dxi^b dz^a f) * (dz^b dxi^a g).

    a is bounded by the z-degree of f and the x-degree of g, b by the
    x-degree of f and the z-degree of g, so the sum is finite.
    """
    ctx.check(f, g)
    df, dg = f.degree(), g.degree()
    pieces = []
    for a in iter_multiindices(ctx.n, min(df.z, dg.xi)):
        for b in iter_multiindices(ctx.n, min(df.xi, dg.z)):
            c = Fraction((-ctx.t) ** (mi_sum(a) + mi_sum(b)), mi_factorial(a) * mi_factorial(b))
            left, right = f.d_multi("z", a).d_multi("xi", b), g.d_multi("xi", a).d_multi("z", b)
            pieces.append(left * right * c)
    return Poly.sum(ctx.n, pieces)


def star_taylor_by_derivatives(ctx: StarContext, f: Poly) -> StarTaylor:
    """The star-Taylor expansion with coefficient a equal to star_ev0(dxi^a f)."""
    coeffs = {a: star_ev0(ctx, f.d_multi("xi", a)) for a in iter_multiindices(ctx.n, f.degree().xi)}
    return StarTaylor(ctx.n, ctx.t, {a: c for a, c in coeffs.items() if not c.is_zero()})


def phi_series(ctx: StarContext, f: Poly) -> Poly:
    """phi_t f as the iterated series sum_m t^m / m! * L^m f.

    L is the cross-Laplacian; the series stops at the first vanishing
    power, since L lowers both the x-degree and the z-degree.
    """
    ctx.check(f)
    acc = cur = f
    weight = Fraction(1)
    m = 1
    while True:
        cur = cross_laplacian(cur)
        if cur.is_zero():
            return acc
        weight *= Fraction(ctx.t, m)  # t^m / m!
        acc = acc + cur * weight
        m += 1


def star_power_loop(ctx: StarContext, f: Poly, m: int) -> Poly:
    """f star ... star f (m factors) by the repeated double sum."""
    result = Poly.const(ctx.n, 1)
    for _ in range(m):
        result = star_double_sum(ctx, result, f)
    return result


def power_experiment_loop(oracle, f: Poly, b: Poly, mmax: int):
    """(power memberships, product memberships, products) of a star power
    experiment, every power and product taken with the double sum."""
    ctx = StarContext(f.n, oracle.t)
    power = Poly.const(f.n, 1)
    power_member, product_member, products = [], [], []
    for _ in range(mmax):
        power = star_double_sum(ctx, power, f)
        product = star_double_sum(ctx, b, power)
        power_member.append(oracle.contains(power))
        product_member.append(oracle.contains(product))
        products.append(product)
    return tuple(power_member), tuple(product_member), tuple(products)
