"""Integer kernels: equal to their Fraction references, canonical outputs."""

from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from staralg.deform import phi, star_ev0
from staralg.poly import Poly

from conftest import mixed_coefficients, polys
from reference import mul_by_fractions, star_ev0_by_fractions

T_VALUES = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                            Fraction(2), Fraction(-3, 2)])


def mixed_polys(n=2, max_terms=6):
    return polys(n=n, max_terms=max_terms, coeffs=mixed_coefficients)


def assert_canonical(p: Poly) -> None:
    assert type(p.terms) is MappingProxyType
    for (xe, ze), c in p.terms.items():
        assert type(xe) is tuple and type(ze) is tuple
        assert len(xe) == len(ze) == p.n
        assert all(type(e) is int and e >= 0 for e in xe + ze)
        assert type(c) is Fraction and c != 0
    assert p == Poly(p.n, dict(p.terms))


@settings(max_examples=80, deadline=None)
@given(mixed_polys(), mixed_polys())
def test_mul_matches_fraction_reference(f, g):
    assert f * g == mul_by_fractions(f, g)
    # (f + g)(f - g): every cross term f*g cancels
    assert (f + g) * (f - g) == mul_by_fractions(f + g, f - g) == f * f - g * g


@settings(max_examples=80, deadline=None)
@given(mixed_polys(max_terms=8), mixed_polys(max_terms=3), T_VALUES)
def test_star_ev0_matches_fraction_reference(f, g, t):
    assert star_ev0(t, f) == star_ev0_by_fractions(t, f)
    # (x1 - t dz1) g lies in the image, so every term of star_ev0 cancels
    image = Poly.xi_var(f.n, 1) * g - g.d_z(1) * t
    assert star_ev0(t, image).is_zero() and star_ev0_by_fractions(t, image).is_zero()


@settings(max_examples=60, deadline=None)
@given(mixed_polys(), mixed_polys(), T_VALUES,
       st.sampled_from([2, -3, Fraction(-5, 4), Fraction(7, 3)]))
def test_kernel_outputs_are_canonical(f, g, t, s):
    x1z2 = Poly.monomial(2, (1, 0), (0, 1))
    outputs = [f * g, (f + g) * (f - g), f * s, f * 0, s * f, f / s, -f,
               Poly.sum(2, [f, g, -f]), Poly.sum(2, [f, -f]), f.d_z(1), f.d_xi(2),
               (f * x1z2).divide_xi_monomial((1, 0)), (f * x1z2).divide_z_monomial((0, 1)),
               phi(t, f), star_ev0(t, f), f ** 2]
    for p in outputs:
        assert_canonical(p)


def test_outside_input_is_validated():
    for n, terms in ((2, {((1,), (0, 0)): 1}), (1, {((1,), (0, 1)): 1}),
                     (1, {((-1,), (0,)): 1}), (2, {((0, 0), (2, -1)): 1}), (0, {})):
        with pytest.raises(ValueError):
            Poly(n, terms)
    with pytest.raises(ValueError):
        Poly.sum(0, [])
    p = Poly(1, {((1,), (0,)): 2, ((0,), (1,)): Fraction(0), ((0,), (0,)): 0.5})
    assert dict(p.terms) == {((1,), (0,)): Fraction(2), ((0,), (0,)): Fraction(1, 2)}
    assert_canonical(p)
