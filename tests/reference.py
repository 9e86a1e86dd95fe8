"""Slow reference routes that the fast paths in staralg are checked against.

Each one computes by a different method from the code under test (iterated
series instead of the closed form, the bidifferential double sum and
iterated partials instead of flow coordinates, the Leibniz rule on each pair
of operator terms instead of the symbol product, one Fraction per term
product instead of integers over a common denominator, an exact linear solve
instead of division by the image operators, Horner's rule instead of the exp
recurrence, a binomial closed form instead of repeated division by 1 - u,
the inverse flow instead of the forward one), so a test never compares a fast
path with itself.
"""

from fractions import Fraction
from math import comb, factorial

from staralg import linalg
from staralg.deform import cross_laplacian, phi, star_ev0
from staralg.poly import (
    Poly,
    compositions,
    grlex_key,
    iter_multiindices,
    mi_add,
    mi_binomial,
    mi_factorial,
    mi_le,
    mi_sub,
    mi_unit,
    mi_zero,
)
from staralg.series import USeries
from staralg.weyl import WeylOp


def mul_by_fractions(f: Poly, g: Poly) -> Poly:
    """f * g accumulating one Fraction per pair of terms."""
    out = {}
    for (xa, za), ca in f.terms.items():
        for (xb, zb), cb in g.terms.items():
            k = (mi_add(xa, xb), mi_add(za, zb))
            out[k] = out.get(k, Fraction(0)) + ca * cb
    return Poly(f.n, out)


def integrate_weight_by_fractions(p: Poly, k) -> Fraction:
    """integrate_weight accumulating one Fraction per term."""
    total = Fraction(0)
    for (_, ze), c in p.terms.items():
        m = 1
        for e, kk in zip(ze, k):
            m *= factorial(e + kk)
        total += c * m
    return total


def constant_series(order: int, n: int, value=1) -> USeries:
    """The series with constant coefficient value and zero at every positive order."""
    head = Poly.const(n, value)
    return USeries(order, (head,) + tuple(Poly.zero(n) for _ in range(order)))


def exp_by_horner(s: USeries) -> USeries:
    """exp of a series with zero constant term by Horner's rule,
    1 + s(1 + s/2(1 + ... (1 + s/N))), one series product per step."""
    one = constant_series(s.order, s.n, 1)
    acc = one
    for j in range(s.order, 0, -1):
        acc = one + (s * acc).scale(Fraction(1, j))
    return acc


def inv_one_minus_u_pow(k_plus_1: int, order: int, n: int) -> USeries:
    """(1 - u)^(-k_plus_1) truncated; coefficient of u^m is C(m + k, k)."""
    if k_plus_1 < 1:
        raise ValueError(f"exponent must be >= 1, got {k_plus_1}")
    k = k_plus_1 - 1
    return USeries(order, tuple(Poly.const(n, comb(m + k, k)) for m in range(order + 1)))


def star_ev0_by_fractions(t, f: Poly) -> Poly:
    """star_ev0 termwise in Fractions: x^b z^g maps to t^|b| * dz^b(z^g)."""
    out = {}
    zero = mi_zero(f.n)
    for (xe, ze), c in f.terms.items():
        if not mi_le(xe, ze):
            continue  # dz^xe z^ze vanishes
        coeff = c * t ** sum(xe)
        coeff *= Fraction(mi_factorial(ze), mi_factorial(mi_sub(ze, xe)))
        key = (zero, mi_sub(ze, xe))
        out[key] = out.get(key, Fraction(0)) + coeff
    return Poly(f.n, out)


def star_double_sum(t, f: Poly, g: Poly) -> Poly:
    """f star_t g by its defining double sum over multi-indices a, b:

        (-t)^(|a|+|b|) / (a! b!) * (dxi^b dz^a f) * (dz^b dxi^a g).

    a is bounded by the z-degree of f and the x-degree of g, b by the
    x-degree of f and the z-degree of g, so the sum is finite.
    """
    n, df, dg = f.n, f.degree(), g.degree()
    pieces = []
    for a in iter_multiindices(n, min(df.z, dg.xi)):
        for b in iter_multiindices(n, min(df.xi, dg.z)):
            c = Fraction((-t) ** (sum(a) + sum(b)), mi_factorial(a) * mi_factorial(b))
            left, right = f.d_multi("z", a).d_multi("xi", b), g.d_multi("xi", a).d_multi("z", b)
            pieces.append(left * right * c)
    return Poly.sum(n, pieces)


def star_taylor_by_derivatives(t, f: Poly) -> dict:
    """The star-Taylor expansion with coefficient a equal to star_ev0(dxi^a f)."""
    coeffs = {a: star_ev0(t, f.d_multi("xi", a)) for a in iter_multiindices(f.n, f.degree().xi)}
    return {a: c for a, c in coeffs.items() if not c.is_zero()}


def reconstruct_star_taylor(t, n: int, coefficients: dict) -> Poly:
    """sum_a (1/a!) x^a star_t c_a in n variables, as phi_{-t}(sum_a x^a c_a / a!):
    phi_t fixes x^a and each c_a in Q[z], so x^a star_t c_a = phi_{-t}(x^a c_a)."""
    flow = Poly.sum(n, (Poly.xi_monomial(n, a, Fraction(1, mi_factorial(a))) * c
                        for a, c in coefficients.items()))
    return phi(-t, flow)


def phi_series(t, f: Poly) -> Poly:
    """phi_t f as the iterated series sum_m t^m / m! * L^m f.

    L is the cross-Laplacian; the series stops at the first vanishing
    power, since L lowers both the x-degree and the z-degree.
    """
    acc = cur = f
    weight = Fraction(1)
    m = 1
    while True:
        cur = cross_laplacian(cur)
        if cur.is_zero():
            return acc
        weight *= Fraction(t, m)  # t^m / m!
        acc = acc + cur * weight
        m += 1


def star_power_loop(t, f: Poly, m: int) -> Poly:
    """f star ... star f (m factors) by the repeated double sum."""
    result = Poly.const(f.n, 1)
    for _ in range(m):
        result = star_double_sum(t, result, f)
    return result


def power_experiment_loop(oracle, f: Poly, b: Poly, mmax: int):
    """The (power, product) membership pair for each m of a star power
    experiment, and the products, every power and product taken with the
    double sum."""
    power = Poly.const(f.n, 1)
    pairs, products = [], []
    for _ in range(mmax):
        power = star_double_sum(oracle.t, power, f)
        product = star_double_sum(oracle.t, b, power)
        pairs.append((oracle.contains(power), oracle.contains(product)))
        products.append(product)
    return tuple(pairs), tuple(products)


def compose_by_leibniz(a: WeylOp, b: WeylOp) -> WeylOp:
    """a o b in right normal form, one pair of terms c(z) dz^alpha, d(z) dz^beta
    at a time, by the Leibniz rule

        dz^alpha o d(z) = sum_{g <= alpha} C(alpha, g) (dz^g d) dz^(alpha-g).
    """
    n = a.n
    pieces = []
    for beta, b_coeff in _by_derivative(b).items():
        for alpha, a_coeff in _by_derivative(a).items():
            for gamma in iter_multiindices(n, sum(alpha)):
                if mi_le(gamma, alpha):
                    key = mi_add(mi_sub(alpha, gamma), beta)
                    shift = Poly.xi_monomial(n, key, mi_binomial(alpha, gamma))
                    pieces.append(shift * a_coeff * b_coeff.d_multi("z", gamma))
    return WeylOp(Poly.sum(n, pieces))


def _by_derivative(op: WeylOp) -> dict:
    """dz-exponent -> its coefficient in Q[z] in the right normal form."""
    grouped = {}
    for (xe, ze), c in op.symbol.terms.items():
        grouped.setdefault(xe, {})[(mi_zero(op.n), ze)] = c
    return {xe: Poly(op.n, terms) for xe, terms in grouped.items()}


def image_witness_by_solve(t, p: Poly, degree_bound: int | None = None):
    """g_1..g_n with p = sum_i (x_i - t dz_i) g_i, or None, by an exact solve.

    The unknowns are the coefficients of each g_i up to total degree
    degree_bound (default deg(p) - 1), as columns ordered by i, then grlex.
    The operators raise the grade |x| - |z| by exactly 1, so the system
    splits by grade and each graded component is solved on its own with
    free variables at 0.
    """
    if p.is_zero():
        return [Poly.zero(p.n) for _ in range(p.n)]
    bound = p.degree().total - 1 if degree_bound is None else degree_bound
    by_grade = {}
    for (xe, ze), c in p.terms.items():
        by_grade.setdefault(sum(xe) - sum(ze), {})[xe, ze] = c
    partials = []
    for grade, terms in sorted(by_grade.items()):
        partial = _solve_graded_component(t, p.n, terms, grade, bound)
        if partial is None:
            return None
        partials.append(partial)
    return [Poly.sum(p.n, pieces) for pieces in zip(*partials)]


def _solve_graded_component(t, n: int, q: dict, grade: int, bound: int):
    columns = []
    for total in range(bound + 1):
        # the column's grade |xe| - |ze| is grade - 1 and |xe| + |ze| = total
        x_total, odd = divmod(total + grade - 1, 2)
        if odd or not 0 <= x_total <= total:
            continue
        for xe in compositions(n, x_total):
            for ze in compositions(n, total - x_total):
                for i in range(n):
                    columns.append((i, (xe, ze)))
    columns.sort(key=lambda col: (col[0], grlex_key(col[1][0] + col[1][1])))

    row_index = {}

    def row_of(key):
        return row_index.setdefault(key, len(row_index))

    entries = []
    for i, (xe, ze) in columns:
        image = [(row_of((mi_add(xe, mi_unit(n, i + 1)), ze)), Fraction(1))]
        if t != 0 and ze[i] > 0:
            image.append((row_of((xe, mi_sub(ze, mi_unit(n, i + 1)))), -t * ze[i]))
        entries.append(image)
    for key in q:
        row_of(key)

    rows = [{} for _ in row_index]
    for col, image in enumerate(entries):
        for r, v in image:
            rows[r][col] = rows[r].get(col, Fraction(0)) + v
    rhs = [Fraction(0)] * len(row_index)
    for key, c in q.items():
        rhs[row_index[key]] = c

    solution = linalg.solve(rows, rhs, len(columns))
    if solution is None:
        return None
    witness = [{} for _ in range(n)]
    for (i, key), coeff in zip(columns, solution):
        witness[i][key] = coeff
    return [Poly(n, terms) for terms in witness]
