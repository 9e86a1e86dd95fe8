"""Truncated u-series with polynomial coefficients."""

from fractions import Fraction
from math import comb, factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from staralg.poly import Poly
from staralg.series import USeries

from conftest import mixed_coefficients, polys
from reference import constant_series, exp_by_horner, inv_one_minus_u_pow


def test_constant_and_geometric():
    one = constant_series(3, 1)
    assert one.coeffs[0] == Poly.const(1, 1)
    assert all(c.is_zero() for c in one.coeffs[1:])
    tail = USeries.geometric_tail(3, 1)
    assert tail.coeffs[0].is_zero()
    assert all(c == Poly.const(1, 1) for c in tail.coeffs[1:])


def test_mul_truncates():
    # (1 + u)^2 at order 1 keeps only 1 + 2u
    s = USeries(1, (Poly.const(1, 1), Poly.const(1, 1)))
    sq = s * s
    assert sq.coeffs[0] == Poly.const(1, 1)
    assert sq.coeffs[1] == Poly.const(1, 2)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        constant_series(2, 1) * constant_series(3, 1)


def test_inv_one_minus_u_pow():
    s = inv_one_minus_u_pow(3, 5, 1)  # (1-u)^-3
    for m in range(6):
        assert s.coeffs[m] == Poly.const(1, comb(m + 2, 2))


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        constant_series(2, 1).exp()


def test_exp_matches_direct_sum():
    # oracle: exp(s) = sum s^j / j!, truncated; s = z*u + z^2*u^2 here
    z = Poly.z_var(1, 1)
    order = 5
    s = USeries(order, (Poly.zero(1), z, z * z) + tuple(Poly.zero(1) for _ in range(order - 2)))
    direct = constant_series(order, 1)
    power = constant_series(order, 1)
    for j in range(1, order + 1):
        power = power * s
        direct = direct + power.scale(Fraction(1, factorial(j)))
    assert s.exp() == direct


def test_exp_of_geometric_tail():
    # exp(u/(1-u)) has coefficients sum_j C(m-1, j-1)/j! at order m >= 1
    order = 6
    got = USeries.geometric_tail(order, 1).exp()
    assert got.coeffs[0] == Poly.const(1, 1)
    for m in range(1, order + 1):
        want = sum(Fraction(comb(m - 1, j - 1), factorial(j)) for j in range(1, m + 1))
        assert got.coeffs[m] == Poly.const(1, want)


@st.composite
def zero_constant_series(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    order = draw(st.integers(min_value=0, max_value=10))
    tail = draw(st.lists(polys(n=n, max_degree=2, max_terms=3, coeffs=mixed_coefficients),
                         min_size=order, max_size=order))
    return USeries(order, (Poly.zero(n), *tail))


@settings(max_examples=40, deadline=None)
@given(zero_constant_series())
def test_exp_matches_horner_reference(s):
    assert s.exp() == exp_by_horner(s)


@settings(max_examples=40, deadline=None)
@given(zero_constant_series(), st.integers(min_value=1, max_value=3))
def test_over_one_minus_u_matches_product(s, k):
    # dividing k times by (1 - u) is multiplying by (1 - u)^(-k)
    got = s
    for _ in range(k):
        got = got.over_one_minus_u()
    assert got == s * inv_one_minus_u_pow(k, s.order, s.n)
