"""Deformed product: star, the flow map, ev0 analogue, star-Taylor expansion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from staralg.deform import (
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
        assert phi(t, xi() ** 3) == xi() ** 3
        assert phi(t, z() ** 2 + z()) == z() ** 2 + z()


def test_phi_worked_examples():
    assert phi(1, xi() * z()) == xi() * z() + Poly.const(1, 1)
    for t in (Fraction(1), Fraction(1, 2), Fraction(-3)):
        assert phi(t, xi() ** 2 * z()) == xi() ** 2 * z() + 2 * t * xi()


@settings(max_examples=50, deadline=None)
@given(polys(), st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                                 Fraction(2)]))
def test_phi_closed_form_matches_series(f, t):
    assert phi(t, f) == phi_series(t, f)


@settings(max_examples=50, deadline=None)
@given(polys(n=2), small_t(), small_t())
def test_phi_flow_property(f, s, t):
    assert phi(s, phi(-s, f)) == f
    assert phi(s, phi(t, f)) == phi(s + t, f)


@settings(max_examples=50, deadline=None)
@given(polys(n=2), small_t())
def test_phi_preserves_degree_and_top_part(f, t):
    g = phi(t, f)
    assert g.degree() == f.degree()
    if not f.is_zero():
        d = f.degree().total
        assert g.homogeneous_part(d) == f.homogeneous_part(d)


# -- the star product ---------------------------------------------------------

def test_star_at_zero_is_plain_product():
    f = xi() ** 2 - z()
    g = xi() * z() + Poly.const(1, 3)
    assert star(0, f, g) == f * g


def test_star_basic_values():
    assert star(1, xi(), z()) == xi() * z() - Poly.const(1, 1)
    assert star(1, xi() ** 3, z() ** 2) == \
        xi() ** 3 * z() ** 2 - 6 * xi() ** 2 * z() + 6 * xi()


def test_star_dimension_mismatch():
    # no context holds n: the guard is Poly arithmetic refusing to mix dimensions
    one, two = Poly.const(1, 3), Poly.const(2, 5)
    for kernel in (star, star_via_subst_xi, star_via_subst_z):
        for f, g in ((one, two), (two, one)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                kernel(1, f, g)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=2).flatmap(
           lambda n: st.tuples(polys(n=n, max_degree=3), polys(n=n, max_degree=3))),
       small_t())
def test_star_matches_double_sum(fg, t):
    f, g = fg
    assert star(t, f, g) == star_double_sum(t, f, g)


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3), polys(n=2, max_degree=3), small_t())
def test_star_commutative(f, g, t):
    assert star(t, f, g) == star(t, g, f)
    assert star_double_sum(t, f, g) == star_double_sum(t, g, f) == star(t, f, g)


@settings(max_examples=25, deadline=None)
@given(polys(n=1, max_degree=3, max_terms=4), polys(n=1, max_degree=3, max_terms=4),
       polys(n=1, max_degree=3, max_terms=4), small_t())
def test_star_associative(f, g, h, t):
    assert star(t, star(t, f, g), h) == star(t, f, star(t, g, h))
    fg_h = star_double_sum(t, star_double_sum(t, f, g), h)
    assert fg_h == star_double_sum(t, f, star_double_sum(t, g, h)) == star(t, star(t, f, g), h)


@settings(max_examples=40, deadline=None)
@given(polys(n=2), small_t())
def test_star_unit(f, t):
    assert star(t, Poly.const(f.n, 1), f) == f
    assert star_double_sum(t, Poly.const(f.n, 1), f) == f


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3), polys(n=2, max_degree=3), small_t())
def test_flow_map_is_homomorphism(f, g, t):
    fg = star_double_sum(t, f, g)  # the defined product, not the phi route
    assert phi(t, fg) == phi(t, f) * phi(t, g)
    assert star(t, f, g) == fg


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3), polys(n=2, max_degree=3), small_t(),
       st.integers(min_value=1, max_value=2))
def test_partials_are_star_derivations(f, g, t, i):
    assert star(t, f, g).d_z(i) == star(t, f.d_z(i), g) + star(t, f, g.d_z(i))
    assert star(t, f, g).d_xi(i) == star(t, f.d_xi(i), g) + star(t, f, g.d_xi(i))
    ref = star_double_sum
    assert ref(t, f, g).d_z(i) == ref(t, f.d_z(i), g) + ref(t, f, g.d_z(i))
    assert ref(t, f, g).d_xi(i) == ref(t, f.d_xi(i), g) + ref(t, f, g.d_xi(i))


@settings(max_examples=40, deadline=None)
@given(polys(n=1, max_degree=3), polys(n=1, max_degree=3), small_t())
def test_star_degree_and_top_part(f, g, t):
    fg = star(t, f, g)
    if f.is_zero() or g.is_zero():
        assert fg.is_zero()
    else:
        d = f.degree().total + g.degree().total
        assert fg.degree().total == d
        assert fg.homogeneous_part(d) == (f * g).homogeneous_part(d)


# -- substitution oracles ------------------------------------------------------

def test_subst_oracle_examples():
    assert star_via_subst_xi(1, xi(), z() ** 2) == xi() * z() ** 2 - 2 * z()
    for t in (Fraction(1), Fraction(2, 5)):
        expected = xi() ** 2 * z() ** 2 - 4 * t * xi() * z() + Poly.const(1, 2 * t * t)
        assert star_via_subst_xi(t, xi() ** 2, z() ** 2) == expected
    assert star_via_subst_z(1, z(), xi() ** 3) == z() * xi() ** 3 - 3 * xi() ** 2


def test_subst_requires_single_family():
    with pytest.raises(ValueError):
        star_via_subst_xi(1, xi() * z(), z())
    with pytest.raises(ValueError):
        star_via_subst_z(1, xi(), z())


@settings(max_examples=40, deadline=None)
@given(xi_only_polys(n=2), polys(n=2, max_degree=3), small_t())
def test_subst_xi_agrees_with_star(lam, g, t):
    assert star_via_subst_xi(t, lam, g) == star(t, lam, g)


@settings(max_examples=40, deadline=None)
@given(z_only_polys(n=2), polys(n=2, max_degree=3), small_t())
def test_subst_z_agrees_with_star(p, g, t):
    assert star_via_subst_z(t, p, g) == star(t, p, g)


# -- star monomials ------------------------------------------------------------

def test_star_monomial_examples():
    assert star_monomial(1, (2,), (0,)) == xi() ** 2
    assert star_monomial(1, (1,), (1,)) == xi() * z() - Poly.const(1, 1)
    assert star_monomial(1, (3,), (2,)) == \
        xi() ** 3 * z() ** 2 - 6 * xi() ** 2 * z() + 6 * xi()


@pytest.mark.parametrize("t", [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)])
def test_star_monomial_three_routes(t):
    for n in (1, 2):
        for alpha in iter_multiindices(n, 3):
            for beta in iter_multiindices(n, 3):
                direct = star_monomial(t, alpha, beta)
                generic = star(t, Poly.xi_monomial(n, alpha), Poly.z_monomial(n, beta))
                assert generic == star_double_sum(t, Poly.xi_monomial(n, alpha),
                                                  Poly.z_monomial(n, beta))
                flowed = phi_series(-t, Poly.monomial(n, alpha, beta))
                assert direct == generic == flowed


def test_star_pow_small_cases():
    t = 1
    f = xi() * z()
    assert star_pow(t, f, 0) == Poly.const(1, 1)
    assert star_pow(t, f, 1) == f
    # (x1 z1) star (x1 z1): cross-checked against the direct bidifferential
    # sum and against the factorization of a product of single-family pairs.
    expected = xi() ** 2 * z() ** 2 - 2 * xi() * z() + Poly.const(1, 1)
    assert star_pow(t, f, 2) == expected
    assert star(t, f, f) == expected
    assert star(t, xi(), z()) * star(t, xi(), z()) == expected
    for m in (-1, 1.0):  # refused by Poly.__pow__
        with pytest.raises(ValueError, match="non-negative integer"):
            star_pow(t, f, m)


@pytest.mark.parametrize("t", [Fraction(1), Fraction(-1, 2)])
@pytest.mark.parametrize("f", [xi() * z() + xi() ** 2,
                               xi(2, 1) * z(2, 2) + xi(2, 2) ** 2 * z(2, 1),
                               xi(2, 1) * z(2, 1) - z(2, 2) * Fraction(1, 3) + Poly.const(2, 2)])
def test_star_pow_matches_repeated_star(f, t):
    for m in range(7):
        assert star_pow(t, f, m) == star_power_loop(t, f, m)


def test_star_pow_of_star_monomial_is_monomial_power():
    # (x star z)^{star 2} = x^2 star z^2, unlike the star square of the plain
    # monomial x*z.
    t = 1
    xz_star = star(t, xi(), z())
    assert star_pow(t, xz_star, 2) == star_monomial(t, (2,), (2,))
    assert star_monomial(t, (2,), (2,)) == \
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
        for alpha in iter_multiindices(n, 3):
            for beta in iter_multiindices(n, 3):
                m = star_monomial(t, alpha, beta)
                assert euler_operator(m) == m * (sum(beta) - sum(alpha))


def test_euler_grading_worked_example():
    assert euler_operator(xi() * z() - Poly.const(1, 1)).is_zero()


@settings(max_examples=40, deadline=None)
@given(xi_only_polys(n=1), z_only_polys(n=1), xi_only_polys(n=1), z_only_polys(n=1),
       small_t())
def test_symmetry_identity(lam1, p1, lam2, p2, t):
    left = star(t, lam1 * p1, lam2 * p2)
    right = star(t, lam1, p2) * star(t, lam2, p1)
    assert left == right


@pytest.mark.parametrize("t", [Fraction(1), Fraction(-1, 2)])
def test_leibniz_on_star_monomials(t):
    from staralg.poly import mi_binomial, mi_factorial, mi_le, mi_sub

    for n in (1, 2):
        for alpha in iter_multiindices(n, 3):
            for beta in iter_multiindices(n, 3):
                m = star_monomial(t, alpha, beta)
                for gamma in iter_multiindices(n, 3):
                    dz = m.d_multi("z", gamma)
                    if mi_le(gamma, beta):
                        scale = mi_factorial(gamma) * mi_binomial(beta, gamma)
                        assert dz == star_monomial(t, alpha, mi_sub(beta, gamma)) * scale
                    else:
                        assert dz.is_zero()
                    dxi = m.d_multi("xi", gamma)
                    if mi_le(gamma, alpha):
                        scale = mi_factorial(gamma) * mi_binomial(alpha, gamma)
                        assert dxi == star_monomial(t, mi_sub(alpha, gamma), beta) * scale
                    else:
                        assert dxi.is_zero()


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3), small_t(), st.integers(min_value=1, max_value=2))
def test_multiplication_operator_identities(f, t, i):
    xv, zv = Poly.xi_var(f.n, i), Poly.z_var(f.n, i)
    assert xv * f == star(t, xv, f) + f.d_z(i) * t
    assert zv * f == star(t, zv, f) + f.d_xi(i) * t


# -- the ev0 analogue and star-Taylor expansion ---------------------------------

def test_star_ev0_worked_values():
    for t in (Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(3)):
        assert star_ev0(t, z() ** 4) == z() ** 4
        assert star_ev0(t, xi() ** 3).is_zero()
        assert star_ev0(t, Poly.const(1, 1)) == Poly.const(1, 1)
        for m in (2, 3, 4):
            got = star_ev0(t, z() ** m * xi() ** 2)
            assert got == z() ** (m - 2) * (m * (m - 1)) * t ** 2


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3), polys(n=2, max_degree=3), small_t())
def test_star_ev0_multiplicative(f, g, t):
    assert star_ev0(t, star(t, f, g)) == star_ev0(t, f) * star_ev0(t, g)


@settings(max_examples=40, deadline=None)
@given(polys(n=2), small_t())
def test_star_ev0_factors_through_flow(f, t):
    zeros = [Fraction(0)] * f.n
    assert star_ev0(t, f) == phi(t, f).evaluate(xi_point=zeros)


def test_star_taylor_examples():
    t = 1
    p = z() ** 2 + 2 * z()
    assert star_taylor(t, p).coefficients == {(0,): p}
    assert star_taylor(t, xi()).coefficients == {(1,): Poly.const(1, 1)}
    got = star_taylor(t, xi() * z()).coefficients
    assert got == {(0,): Poly.const(1, 1), (1,): z()}


@settings(max_examples=40, deadline=None)
@given(polys(max_degree=3), small_t())
def test_star_taylor_matches_derivative_route(f, t):
    assert star_taylor(t, f) == star_taylor_by_derivatives(t, f)


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3), small_t())
def test_star_taylor_reconstructs(f, t):
    expansion = star_taylor(t, f)
    assert isinstance(expansion, StarTaylor)
    assert expansion.reconstruct() == f
    assert all(a.is_z_only() for a in expansion.coefficients.values())
    assert all(not a.is_zero() for a in expansion.coefficients.values())
