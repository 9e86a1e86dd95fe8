"""Algebra-core: exact arithmetic, derivatives, evaluation, degrees."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from staralg.poly import (
    Degree, Poly, compositions, iter_multiindices, mi_binomial, mi_factorial, mi_sub,
)

from conftest import polys


def xi(n=1, i=1):
    return Poly.xi_var(n, i)


def z(n=1, i=1):
    return Poly.z_var(n, i)


# -- worked examples ---------------------------------------------------------

def test_add_inverse_cancels():
    f = xi() * z()
    assert (f + (-f)).is_zero()


def test_add_merges_like_terms():
    assert xi() + z() + z() == xi() + z() * 2


def test_add_zero_identity():
    f = xi() ** 2 - z()
    assert Poly.zero(1) + f == f


def test_mul_monomials():
    assert xi() * z() == Poly.monomial(1, (1,), (1,))


def test_mul_difference_of_squares():
    assert (xi() - z()) * (xi() + z()) == xi() ** 2 - z() ** 2


def test_mul_binomial_square():
    one = Poly.const(1, 1)
    assert (one - z()) ** 2 == one - 2 * z() + z() ** 2


def test_d_z_power():
    assert (z() ** 3).d_z(1) == 3 * z() ** 2


def test_d_xi_product():
    assert (xi() * z()).d_xi(1) == z()


def test_d_z_kills_xi_only():
    assert (xi() ** 2).d_z(1).is_zero()


def test_d_multi():
    f = z(2, 1) ** 2 * z(2, 2)
    assert f.d_multi("z", (2, 0)) == 2 * z(2, 2)
    assert f.d_multi("z", (0, 0)) == f
    assert (xi() ** 3).d_multi("xi", (3,)) == Poly.const(1, 6)


def test_evaluate_xi_only():
    f = xi() * z() - Poly.const(1, 1)
    assert f.evaluate(xi_point=[1]) == z() - Poly.const(1, 1)
    assert (xi() ** 2 * z()).evaluate(xi_point=[0]).is_zero()


def test_evaluate_full():
    assert (xi() * z()).evaluate(xi_point=[2], z_point=[3]) == Fraction(6)


def test_degree():
    assert (xi() ** 2 * z()).degree() == Degree(3, 2, 1)
    assert Poly.zero(1).degree() == Degree(-1, -1, -1)
    assert Poly.const(1, 7).degree() == Degree(0, 0, 0)


def test_dimension_mismatch_is_hard_error():
    with pytest.raises(ValueError):
        xi(1) + xi(2)
    with pytest.raises(ValueError):
        xi(1) * xi(2)


def test_index_out_of_range():
    with pytest.raises(IndexError):
        xi().d_z(2)
    with pytest.raises(IndexError):
        xi().d_xi(0)


def test_divide_monomials():
    f = xi() ** 2 * z() + xi() * Fraction(3)
    assert f.divide_xi_monomial((1,)) == xi() * z() + Poly.const(1, 3)
    with pytest.raises(ValueError):
        f.divide_xi_monomial((2,))
    with pytest.raises(ValueError):
        (z() + Poly.const(1, 1)).divide_z_monomial((1,))


def test_terms_are_read_only():
    p = Poly.const(3, 1)
    with pytest.raises(TypeError):
        p.terms[((0, 0, 0), (0, 0, 0))] = 5
    assert p.terms == {((0, 0, 0), (0, 0, 0)): Fraction(1)}


@settings(max_examples=40, deadline=None)
@given(polys(n=2), polys(n=2))
def test_equal_polys_hash_equal(f, g):
    rebuilt = Poly(f.n, dict(reversed(list(f.terms.items()))))
    assert rebuilt == f and hash(rebuilt) == hash(f)
    assert (f + g) - g == f and hash((f + g) - g) == hash(f)
    assert len({f, rebuilt, Poly(f.n, dict(f.terms))}) == 1


def test_sum_accumulates_like_repeated_addition():
    pieces = [xi() * z(), z() * 2, xi() * z() * Fraction(-1, 2), -z() * 2]
    assert Poly.sum(1, pieces) == pieces[0] + pieces[1] + pieces[2] + pieces[3]
    assert Poly.sum(1, []) == Poly.sum(1, [xi(), -xi()]) == Poly.zero(1)
    with pytest.raises(ValueError):
        Poly.sum(1, [Poly.const(2, 1)])


def test_multiindex_helpers():
    assert mi_factorial((3, 2)) == 12
    assert mi_binomial((3, 2), (1, 1)) == 6
    assert mi_binomial((1, 0), (0, 1)) == 0
    assert mi_sub((3, 2), (1, 2)) == (2, 0)
    with pytest.raises(ValueError):
        mi_sub((1, 0), (0, 1))
    assert list(iter_multiindices(2, 1)) == [(0, 0), (1, 0), (0, 1)]


# -- properties --------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_ring_axioms(n, data):
    f = data.draw(polys(n=n, max_degree=6, max_terms=12))
    g = data.draw(polys(n=n, max_degree=6, max_terms=12))
    h = data.draw(polys(n=n, max_degree=6, max_terms=12))
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(polys(n=2), polys(n=2), st.integers(min_value=1, max_value=2))
def test_leibniz_rule(f, g, i):
    assert (f * g).d_z(i) == f.d_z(i) * g + f * g.d_z(i)
    assert (f * g).d_xi(i) == f.d_xi(i) * g + f * g.d_xi(i)


@settings(max_examples=60, deadline=None)
@given(polys(n=2), st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=2))
def test_partials_commute(f, i, j):
    assert f.d_z(i).d_xi(j) == f.d_xi(j).d_z(i)


@settings(max_examples=60, deadline=None)
@given(polys())
def test_no_stored_zero_coefficients(f):
    for op_result in (f + (-f), f * Poly.zero(f.n), f - f, f * 0):
        assert all(c != 0 for c in op_result.terms.values())
        assert op_result.is_zero()
    assert all(c != 0 for c in (f * f).terms.values())
    assert all(c != 0 for c in f.d_z(1).terms.values())


@settings(max_examples=40, deadline=None)
@given(polys(n=1), polys(n=1))
def test_mul_degree_additive(f, g):
    if f.is_zero() or g.is_zero():
        assert (f * g).is_zero()
    else:
        assert (f * g).degree().total == f.degree().total + g.degree().total


def test_compositions_refuse_dimension_zero():
    with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
        list(compositions(0, 1))
