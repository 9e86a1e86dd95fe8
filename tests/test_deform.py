"""Deformed product: star, the flow map, ev0 analogue, star-Taylor expansion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from staralg.deform import (
    StarContext,
    StarTaylor,
    cross_laplacian,
    phi,
    star,
    star_ev0,
    star_monomial,
    star_pow,
    star_taylor,
    star_via_subst_xi,
    star_via_subst_z,
)
from staralg.poly import Poly, iter_multiindices

from conftest import polys, small_t, xi_only_polys, z_only_polys
from reference import phi_series, star_double_sum, star_power_loop, star_taylor_by_derivatives


def ctx1(t=1):
    return StarContext(1, Fraction(t))


def xi(n=1, i=1):
    return Poly.xi_var(n, i)


def z(n=1, i=1):
    return Poly.z_var(n, i)


# -- cross-Laplacian and flow map ---------------------------------------------

def test_cross_laplacian_examples():
    assert cross_laplacian(xi() * z()) == Poly.const(1, 1)
    assert cross_laplacian(z() ** 3).is_zero()
    assert cross_laplacian(xi() ** 2 * z() ** 2) == 4 * xi() * z()


def test_phi_fixes_single_family():
    for t in (Fraction(1), Fraction(-2, 3)):
        c = ctx1(t)
        assert phi(c, xi() ** 3) == xi() ** 3
        assert phi(c, z() ** 2 + z()) == z() ** 2 + z()


def test_phi_worked_examples():
    assert phi(ctx1(1), xi() * z()) == xi() * z() + Poly.const(1, 1)
    for t in (Fraction(1), Fraction(1, 2), Fraction(-3)):
        assert phi(ctx1(t), xi() ** 2 * z()) == xi() ** 2 * z() + 2 * t * xi()


@settings(max_examples=50, deadline=None)
@given(polys(), st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                                 Fraction(2)]))
def test_phi_closed_form_matches_series(f, t):
    c = StarContext(f.n, t)
    assert phi(c, f) == phi_series(c, f)


@settings(max_examples=50, deadline=None)
@given(polys(n=2), small_t(), small_t())
def test_phi_flow_property(f, s, t):
    n = f.n
    a, b = StarContext(n, s), StarContext(n, t)
    assert phi(a, phi(StarContext(n, -s), f)) == f
    assert phi(a, phi(b, f)) == phi(StarContext(n, s + t), f)


@settings(max_examples=50, deadline=None)
@given(polys(n=2), small_t())
def test_phi_preserves_degree_and_top_part(f, t):
    c = StarContext(f.n, t)
    g = phi(c, f)
    assert g.degree() == f.degree()
    if not f.is_zero():
        d = f.degree().total
        assert g.homogeneous_part(d) == f.homogeneous_part(d)


# -- the star product ---------------------------------------------------------

def test_star_at_zero_is_plain_product():
    c = StarContext(1, Fraction(0))
    f = xi() ** 2 - z()
    g = xi() * z() + Poly.const(1, 3)
    assert star(c, f, g) == f * g


def test_star_basic_values():
    assert star(ctx1(), xi(), z()) == xi() * z() - Poly.const(1, 1)
    assert star(ctx1(), xi() ** 3, z() ** 2) == \
        xi() ** 3 * z() ** 2 - 6 * xi() ** 2 * z() + 6 * xi()


def test_star_dimension_mismatch():
    with pytest.raises(ValueError):
        star(ctx1(), xi(1), xi(2))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=2).flatmap(
           lambda n: st.tuples(polys(n=n, max_degree=3), polys(n=n, max_degree=3))),
       small_t())
def test_star_matches_double_sum(fg, t):
    f, g = fg
    c = StarContext(f.n, t)
    assert star(c, f, g) == star_double_sum(c, f, g)


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3), polys(n=2, max_degree=3), small_t())
def test_star_commutative(f, g, t):
    c = StarContext(f.n, t)
    assert star(c, f, g) == star(c, g, f)
    assert star_double_sum(c, f, g) == star_double_sum(c, g, f) == star(c, f, g)


@settings(max_examples=25, deadline=None)
@given(polys(n=1, max_degree=3, max_terms=4), polys(n=1, max_degree=3, max_terms=4),
       polys(n=1, max_degree=3, max_terms=4), small_t())
def test_star_associative(f, g, h, t):
    c = StarContext(f.n, t)
    assert star(c, star(c, f, g), h) == star(c, f, star(c, g, h))
    fg_h = star_double_sum(c, star_double_sum(c, f, g), h)
    assert fg_h == star_double_sum(c, f, star_double_sum(c, g, h)) == star(c, star(c, f, g), h)


@settings(max_examples=40, deadline=None)
@given(polys(n=2), small_t())
def test_star_unit(f, t):
    c = StarContext(f.n, t)
    assert star(c, Poly.const(f.n, 1), f) == f
    assert star_double_sum(c, Poly.const(f.n, 1), f) == f


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3), polys(n=2, max_degree=3), small_t())
def test_flow_map_is_homomorphism(f, g, t):
    c = StarContext(f.n, t)
    fg = star_double_sum(c, f, g)  # the defined product, not the phi route
    assert phi(c, fg) == phi(c, f) * phi(c, g)
    assert star(c, f, g) == fg


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3), polys(n=2, max_degree=3), small_t(),
       st.integers(min_value=1, max_value=2))
def test_partials_are_star_derivations(f, g, t, i):
    c = StarContext(f.n, t)
    assert star(c, f, g).d_z(i) == star(c, f.d_z(i), g) + star(c, f, g.d_z(i))
    assert star(c, f, g).d_xi(i) == star(c, f.d_xi(i), g) + star(c, f, g.d_xi(i))
    ref = star_double_sum
    assert ref(c, f, g).d_z(i) == ref(c, f.d_z(i), g) + ref(c, f, g.d_z(i))
    assert ref(c, f, g).d_xi(i) == ref(c, f.d_xi(i), g) + ref(c, f, g.d_xi(i))


@settings(max_examples=40, deadline=None)
@given(polys(n=1, max_degree=3), polys(n=1, max_degree=3), small_t())
def test_star_degree_and_top_part(f, g, t):
    c = StarContext(f.n, t)
    fg = star(c, f, g)
    if f.is_zero() or g.is_zero():
        assert fg.is_zero()
    else:
        d = f.degree().total + g.degree().total
        assert fg.degree().total == d
        assert fg.homogeneous_part(d) == (f * g).homogeneous_part(d)


# -- substitution oracles ------------------------------------------------------

def test_subst_oracle_examples():
    assert star_via_subst_xi(ctx1(), xi(), z() ** 2) == xi() * z() ** 2 - 2 * z()
    for t in (Fraction(1), Fraction(2, 5)):
        c = ctx1(t)
        expected = xi() ** 2 * z() ** 2 - 4 * t * xi() * z() + Poly.const(1, 2 * t * t)
        assert star_via_subst_xi(c, xi() ** 2, z() ** 2) == expected
    assert star_via_subst_z(ctx1(), z(), xi() ** 3) == z() * xi() ** 3 - 3 * xi() ** 2


def test_subst_requires_single_family():
    with pytest.raises(ValueError):
        star_via_subst_xi(ctx1(), xi() * z(), z())
    with pytest.raises(ValueError):
        star_via_subst_z(ctx1(), xi(), z())


@settings(max_examples=40, deadline=None)
@given(xi_only_polys(n=2), polys(n=2, max_degree=3), small_t())
def test_subst_xi_agrees_with_star(lam, g, t):
    c = StarContext(lam.n, t)
    assert star_via_subst_xi(c, lam, g) == star(c, lam, g)


@settings(max_examples=40, deadline=None)
@given(z_only_polys(n=2), polys(n=2, max_degree=3), small_t())
def test_subst_z_agrees_with_star(p, g, t):
    c = StarContext(p.n, t)
    assert star_via_subst_z(c, p, g) == star(c, p, g)


# -- star monomials ------------------------------------------------------------

def test_star_monomial_examples():
    assert star_monomial(ctx1(), (2,), (0,)) == xi() ** 2
    assert star_monomial(ctx1(), (1,), (1,)) == xi() * z() - Poly.const(1, 1)
    assert star_monomial(ctx1(), (3,), (2,)) == \
        xi() ** 3 * z() ** 2 - 6 * xi() ** 2 * z() + 6 * xi()


@pytest.mark.parametrize("t", [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)])
def test_star_monomial_three_routes(t):
    for n in (1, 2):
        c = StarContext(n, t)
        for alpha in iter_multiindices(n, 3):
            for beta in iter_multiindices(n, 3):
                direct = star_monomial(c, alpha, beta)
                generic = star(c, Poly.xi_monomial(n, alpha), Poly.z_monomial(n, beta))
                assert generic == star_double_sum(c, Poly.xi_monomial(n, alpha),
                                                  Poly.z_monomial(n, beta))
                flowed = phi_series(StarContext(n, -t), Poly.monomial(n, alpha, beta))
                assert direct == generic == flowed


def test_star_pow_small_cases():
    c = ctx1()
    f = xi() * z()
    assert star_pow(c, f, 0) == Poly.const(1, 1)
    assert star_pow(c, f, 1) == f
    # (x1 z1) star (x1 z1): cross-checked against the direct bidifferential
    # sum and against the factorization of a product of single-family pairs.
    expected = xi() ** 2 * z() ** 2 - 2 * xi() * z() + Poly.const(1, 1)
    assert star_pow(c, f, 2) == expected
    assert star(c, f, f) == expected
    assert star(c, xi(), z()) * star(c, xi(), z()) == expected


@pytest.mark.parametrize("t", [Fraction(1), Fraction(-1, 2)])
@pytest.mark.parametrize("f", [xi() * z() + xi() ** 2,
                               xi(2, 1) * z(2, 2) + xi(2, 2) ** 2 * z(2, 1),
                               xi(2, 1) * z(2, 1) - z(2, 2) * Fraction(1, 3) + Poly.const(2, 2)])
def test_star_pow_matches_repeated_star(f, t):
    c = StarContext(f.n, t)
    for m in range(7):
        assert star_pow(c, f, m) == star_power_loop(c, f, m)


def test_star_pow_of_star_monomial_is_monomial_power():
    # (x star z)^{star 2} = x^2 star z^2, unlike the star square of the plain
    # monomial x*z.
    c = ctx1()
    xz_star = star(c, xi(), z())
    assert star_pow(c, xz_star, 2) == star_monomial(c, (2,), (2,))
    assert star_monomial(c, (2,), (2,)) == \
        xi() ** 2 * z() ** 2 - 4 * xi() * z() + Poly.const(1, 2)


# -- structural identities -----------------------------------------------------

def euler_operator(f):
    total = Poly.zero(f.n)
    for i in range(1, f.n + 1):
        total = total + Poly.z_var(f.n, i) * f.d_z(i) - Poly.xi_var(f.n, i) * f.d_xi(i)
    return total


@pytest.mark.parametrize("t", [Fraction(1), Fraction(-1), Fraction(2, 3)])
def test_euler_grading_on_star_monomials(t):
    for n in (1, 2):
        c = StarContext(n, t)
        for alpha in iter_multiindices(n, 3):
            for beta in iter_multiindices(n, 3):
                m = star_monomial(c, alpha, beta)
                assert euler_operator(m) == m * (sum(beta) - sum(alpha))


def test_euler_grading_worked_example():
    assert euler_operator(xi() * z() - Poly.const(1, 1)).is_zero()


@settings(max_examples=40, deadline=None)
@given(xi_only_polys(n=1), z_only_polys(n=1), xi_only_polys(n=1), z_only_polys(n=1),
       small_t())
def test_symmetry_identity(lam1, p1, lam2, p2, t):
    c = StarContext(1, t)
    left = star(c, lam1 * p1, lam2 * p2)
    right = star(c, lam1, p2) * star(c, lam2, p1)
    assert left == right


@pytest.mark.parametrize("t", [Fraction(1), Fraction(-1, 2)])
def test_leibniz_on_star_monomials(t):
    from staralg.poly import mi_binomial, mi_factorial, mi_le, mi_sub

    for n in (1, 2):
        c = StarContext(n, t)
        for alpha in iter_multiindices(n, 3):
            for beta in iter_multiindices(n, 3):
                m = star_monomial(c, alpha, beta)
                for gamma in iter_multiindices(n, 3):
                    dz = m.d_multi("z", gamma)
                    if mi_le(gamma, beta):
                        scale = mi_factorial(gamma) * mi_binomial(beta, gamma)
                        assert dz == star_monomial(c, alpha, mi_sub(beta, gamma)) * scale
                    else:
                        assert dz.is_zero()
                    dxi = m.d_multi("xi", gamma)
                    if mi_le(gamma, alpha):
                        scale = mi_factorial(gamma) * mi_binomial(alpha, gamma)
                        assert dxi == star_monomial(c, mi_sub(alpha, gamma), beta) * scale
                    else:
                        assert dxi.is_zero()


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3), small_t(), st.integers(min_value=1, max_value=2))
def test_multiplication_operator_identities(f, t, i):
    c = StarContext(f.n, t)
    xv, zv = Poly.xi_var(f.n, i), Poly.z_var(f.n, i)
    assert xv * f == star(c, xv, f) + f.d_z(i) * t
    assert zv * f == star(c, zv, f) + f.d_xi(i) * t


# -- the ev0 analogue and star-Taylor expansion ---------------------------------

def test_star_ev0_worked_values():
    for t in (Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(3)):
        c = ctx1(t)
        assert star_ev0(c, z() ** 4) == z() ** 4
        assert star_ev0(c, xi() ** 3).is_zero()
        assert star_ev0(c, Poly.const(1, 1)) == Poly.const(1, 1)
        for m in (2, 3, 4):
            got = star_ev0(c, z() ** m * xi() ** 2)
            assert got == z() ** (m - 2) * (m * (m - 1)) * t ** 2


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3), polys(n=2, max_degree=3), small_t())
def test_star_ev0_multiplicative(f, g, t):
    c = StarContext(f.n, t)
    assert star_ev0(c, star(c, f, g)) == star_ev0(c, f) * star_ev0(c, g)


@settings(max_examples=40, deadline=None)
@given(polys(n=2), small_t())
def test_star_ev0_factors_through_flow(f, t):
    c = StarContext(f.n, t)
    zeros = [Fraction(0)] * f.n
    assert star_ev0(c, f) == phi(c, f).evaluate(xi_point=zeros)


def test_star_taylor_examples():
    c = ctx1()
    p = z() ** 2 + 2 * z()
    assert star_taylor(c, p).coefficients == {(0,): p}
    assert star_taylor(c, xi()).coefficients == {(1,): Poly.const(1, 1)}
    got = star_taylor(c, xi() * z()).coefficients
    assert got == {(0,): Poly.const(1, 1), (1,): z()}


@settings(max_examples=40, deadline=None)
@given(polys(max_degree=3), small_t())
def test_star_taylor_matches_derivative_route(f, t):
    c = StarContext(f.n, t)
    assert star_taylor(c, f) == star_taylor_by_derivatives(c, f)


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3), small_t())
def test_star_taylor_reconstructs(f, t):
    expansion = star_taylor(StarContext(f.n, t), f)
    assert isinstance(expansion, StarTaylor)
    assert expansion.reconstruct() == f
    assert all(a.is_z_only() for a in expansion.coefficients.values())
    assert all(not a.is_zero() for a in expansion.coefficients.values())
