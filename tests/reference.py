"""Slow reference routes that the fast paths in staralg are checked against.

Each one computes by a different method from the code under test (iterated
series instead of the closed form, the generic bidifferential star instead
of flow coordinates), so a test never compares a fast path with itself.
"""

from fractions import Fraction

from staralg.deform import StarContext, cross_laplacian, star
from staralg.poly import Poly


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
    """f star ... star f (m factors) by repeated generic star."""
    result = Poly.const(ctx.n, 1)
    for _ in range(m):
        result = star(ctx, result, f)
    return result


def power_experiment_loop(oracle, f: Poly, b: Poly, mmax: int):
    """(power memberships, product memberships, products) of a star power
    experiment, every power and product taken with the generic star."""
    ctx = StarContext(f.n, oracle.t)
    power = Poly.const(f.n, 1)
    power_member, product_member, products = [], [], []
    for _ in range(mmax):
        power = star(ctx, power, f)
        product = star(ctx, b, power)
        power_member.append(oracle.contains(power))
        product_member.append(oracle.contains(product))
        products.append(product)
    return tuple(power_member), tuple(product_member), tuple(products)
