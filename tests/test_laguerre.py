"""Laguerre polynomials: explicit sums, star construction, orthogonality, verifiers."""

import inspect
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import staralg
import staralg.laguerre as laguerre_module
from staralg.cli import main
from staralg.laguerre import (
    LaguerreSpec,
    even_identity_check,
    generating_check,
    identity_dk_check,
    integrate_weight,
    integrate_weight_xi,
    laguerre,
    laguerre1,
    laguerre_from_star_at_one,
    laguerre_genfun,
    laguerre_star,
    laguerre_star_zside,
    ode_check,
    orthogonality_check,
    recurrence_check,
    star_exp_check,
    xi_orthogonality_check,
)
from staralg.deform import star_ev0, star_monomial
from staralg.poly import Poly, iter_multiindices, mi_add, mi_factorial, mi_zero
from staralg.series import USeries
from staralg.weyl import WeylOp

from conftest import all_pass, mixed_coefficients, z_only_polys
from reference import integrate_weight_by_fractions, inv_one_minus_u_pow


def z(n=1, i=1):
    return Poly.z_var(n, i)


def xi(n=1, i=1):
    return Poly.xi_var(n, i)


ONE = Poly.const(1, 1)


def test_package_attribute_is_the_submodule():
    assert inspect.ismodule(staralg.laguerre)
    assert staralg.laguerre.laguerre is laguerre


def test_laguerre1_values():
    assert laguerre1(0, 0) == ONE
    assert laguerre1(0, 7) == ONE
    assert laguerre1(1, 0) == ONE - z()
    assert laguerre1(2, 0) == ONE - 2 * z() + z() ** 2 / 2
    assert laguerre1(1, 1) == Poly.const(1, 2) - z()
    assert laguerre1(2, 1) == Poly.const(1, 3) - 3 * z() + z() ** 2 / 2


def test_laguerre1_rejects_negative():
    with pytest.raises(ValueError):
        laguerre1(-1, 0)
    with pytest.raises(ValueError):
        laguerre1(0, -2)


def test_laguerre1_leading_coefficient():
    for m in range(7):
        for k in range(4):
            lead = laguerre1(m, k).coefficient((0,), (m,))
            assert lead == Fraction((-1) ** m, mi_factorial((m,)))


def test_laguerre_multivariable_product():
    spec = LaguerreSpec((1, 1), (0, 0))
    left = ONE_2() - z(2, 1)
    right = ONE_2() - z(2, 2)
    assert laguerre(spec) == left * right
    assert laguerre(LaguerreSpec((0, 0), (3, 5))) == ONE_2()


def ONE_2():
    return Poly.const(2, 1)


def test_laguerre_star_values():
    assert laguerre_star(LaguerreSpec((1,), (0,))) == ONE - xi() * z()
    assert laguerre_star(LaguerreSpec((0,), (0,))) == ONE
    got = laguerre_star(LaguerreSpec((2,), (0,)))
    assert got == xi() ** 2 * z() ** 2 / 2 - 2 * xi() * z() + ONE


def test_laguerre_star_two_sides_agree():
    for n in (1, 2):
        for alpha in iter_multiindices(n, 3):
            for k in iter_multiindices(n, 2):
                spec = LaguerreSpec(alpha, k)
                assert laguerre_star(spec) == laguerre_star_zside(spec)


def test_failed_star_division_is_an_internal_fault(monkeypatch, capsys):
    # a wrong star product leaves a term that neither x^k nor z^k divides
    monkeypatch.setattr(laguerre_module, "star_monomial", lambda t, a, b: ONE)
    for build in (laguerre_star, laguerre_star_zside):
        with pytest.raises(staralg.InternalFault, match="not divisible"):
            build(LaguerreSpec((0,), (1,)))
    # not a usage error: the CLI exits 3, never 2
    code = main(["laguerre", "--n", "1", "--alpha", "0", "--k", "1", "--via", "star"])
    err = capsys.readouterr().err
    assert code == 3 and code != 2
    assert err.startswith("staralg: internal error: star-built Laguerre polynomial")
    assert "not divisible" in err


def test_laguerre_star_substitutes_xz():
    # L_a^[k](x z) should be laguerre(spec) with z_i replaced by x_i z_i
    for m in range(4):
        for k in range(3):
            plain = laguerre1(m, k)
            subbed = Poly(1, {((j,), (j,)): c for ((_, ), (j,)), c in plain.terms.items()})
            assert laguerre_star(LaguerreSpec((m,), (k,))) == subbed


def test_laguerre_from_star_at_one():
    for spec in (LaguerreSpec((1,), (0,)), LaguerreSpec((0,), (4,)),
                 LaguerreSpec((2,), (0,)), LaguerreSpec((3,), (2,))):
        assert laguerre_from_star_at_one(spec) == laguerre(spec)


def test_three_way_agreement_small():
    for n in (1, 2):
        for alpha in iter_multiindices(n, 3):
            for k in iter_multiindices(n, 2):
                spec = LaguerreSpec(alpha, k)
                explicit = laguerre(spec)
                assert laguerre_from_star_at_one(spec) == explicit
                assert laguerre_genfun(spec) == explicit


def test_integrate_weight_values():
    l1 = laguerre1(1, 0)
    assert integrate_weight(l1 * l1, (0,)) == 1
    assert integrate_weight(l1 * laguerre1(2, 0), (0,)) == 0
    assert integrate_weight(ONE, (2,)) == 2
    # alpha = beta = (2,), k = (1,): (alpha+k)!/alpha! = 3!/2! = 3
    l21 = laguerre1(2, 1)
    assert integrate_weight(l21 * l21, (1,)) == 3


BRIDGE_T = [Fraction(sign * v) for sign in (1, -1) for v in (1, 2, Fraction(1, 2))]


@st.composite
def bridge_cases(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    k = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(n))
    return draw(z_only_polys(n=n)), k  # F(u), with u spelled z


@settings(max_examples=40, deadline=None)
@given(bridge_cases(), st.sampled_from(BRIDGE_T))
def test_laguerre_bridge(case, t):
    # star_ev0(z^k F(x o z)) = z^k / k! * integral of F(t z) z^k e^(-sum z) over
    # the orthant: star_ev0 checked against moments, a route it shares no code with
    big_f, k = case
    n, zero = big_f.n, mi_zero(big_f.n)
    f = Poly(n, {(u, mi_add(u, k)): c for (_, u), c in big_f.terms.items()})
    scaled = Poly(n, {(zero, u): c * t ** sum(u) for (_, u), c in big_f.terms.items()})
    moment = integrate_weight(scaled, k) / mi_factorial(k)
    assert star_ev0(t, f) == Poly.monomial(n, zero, k, moment)


@st.composite
def weighted_integrands(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    k = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(n))
    return draw(z_only_polys(n=n, max_degree=4, max_terms=6, coeffs=mixed_coefficients)), k


@settings(max_examples=60, deadline=None)
@given(weighted_integrands())
def test_integrate_weight_matches_fraction_reference(case):
    p, k = case
    got = integrate_weight(p, k)
    assert type(got) is Fraction and got == integrate_weight_by_fractions(p, k)


def test_integrate_weight_rejects_xi():
    with pytest.raises(ValueError):
        integrate_weight(xi(), (0,))
    with pytest.raises(ValueError):
        integrate_weight(z(), (0, 0))


def test_integrate_weight_xi_values():
    assert integrate_weight_xi(ONE, [Fraction(1)]) == 1
    l1_at_1 = (xi() * z() - ONE).evaluate(xi_point=[1])
    assert integrate_weight_xi(l1_at_1 * l1_at_1, [Fraction(1)]) == 1
    assert integrate_weight_xi(z(), [Fraction(2)]) == Fraction(1, 2)
    with pytest.raises(ValueError):
        integrate_weight_xi(z(), [Fraction(0)])


def test_orthogonality_report():
    for n, k in ((1, (0,)), (1, (2,)), (2, (1, 1))):
        all_pass(orthogonality_check(n, k, 2))


def test_xi_weighted_orthogonality():
    for point in ([Fraction(1)], [Fraction(2)], [Fraction(1, 2)]):
        all_pass(xi_orthogonality_check(point, 3))
    all_pass(xi_orthogonality_check([Fraction(1), Fraction(2)], 2))


def test_xi_orthogonality_record_line():
    record = next(xi_orthogonality_check([Fraction(1, 2), 3], 2))
    assert record.line() == "kind=ortho_xi\talpha=0,0\tbeta=0,0\txi=1/2,3\tverdict=pass\tpayload=1"


def test_star_basis_norm_matches_factorial_square():
    # direct spot check of the weighted norm at one point
    point = [Fraction(3, 2)]
    for m in range(4):
        basis = star_monomial(1, (m,), (m,)).evaluate(xi_point=point)
        got = integrate_weight_xi(basis * basis, point)
        assert got == Fraction(mi_factorial((m,))) ** 2


def test_laguerre_via_weyl_apply():
    # L_m = (1/m!) (d-1)^m applied to z^m
    d_minus_1 = WeylOp.dz(1, 1) - WeylOp.identity(1)
    for m in range(7):
        got = d_minus_1.compose_pow(m).apply(z() ** m) / mi_factorial((m,))
        assert got == laguerre1(m, 0)


def test_generating_check():
    all_pass(generating_check(0, 0))
    assert len(all_pass(generating_check(0, 6))) == 7
    for kmax, order in ((1, 5), (3, 8)):
        records = all_pass(generating_check(kmax, order))
        assert [r.params for r in records] == [
            (("k", str(k)), ("m", str(m))) for k in range(kmax + 1) for m in range(order + 1)]
    for kmax, order in ((-1, 3), (0, -1)):
        with pytest.raises(ValueError):  # raised when the records are first asked for
            next(generating_check(kmax, order))


def test_genfun_series_matches_binomial_product():
    # the k-th series divides by (1 - u) k + 1 times; the reference multiplies
    # once by (1 - u)^(-(k+1)), whose coefficients are binomials
    for letter in (z(), xi() * z()):
        exp_part = USeries.geometric_tail(7, 1).scale_poly(-letter).exp()
        series = laguerre_module._genfun_series(4, 7, letter)
        assert len(series) == 5
        for k, got in enumerate(series):
            assert got == exp_part * inv_one_minus_u_pow(k + 1, 7, 1)


def test_genfun_suite_takes_one_exp(monkeypatch, capsys):
    calls = []
    exp = USeries.exp

    def counted(self):
        calls.append(self.order)
        return exp(self)

    monkeypatch.setattr(USeries, "exp", counted)
    assert main(["check", "--suite", "genfun", "--kmax", "5", "--order", "10"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6 * 11
    assert calls == [10]


def test_identity_dk_check():
    assert identity_dk_check(0, 0)
    assert identity_dk_check(1, 1)
    assert identity_dk_check(2, 1)
    for m in range(5):
        for k in range(4):
            assert identity_dk_check(m, k)


def test_recurrence_check():
    # worked case m = 1: 2 L2 = (3 - z) L1 - L0, both sides z^2 - 4z + 2... over 2
    lhs = laguerre1(2, 0) * 2
    rhs = (Poly.const(1, 3) - z()) * laguerre1(1, 0) - laguerre1(0, 0)
    assert lhs == rhs == z() ** 2 - 4 * z() + Poly.const(1, 2)
    assert z() * laguerre1(1, 0).d_z(1) == (laguerre1(1, 0) - laguerre1(0, 0)) * 1
    all_pass(recurrence_check(8))


def test_ode_check():
    f = laguerre1(1, 0)
    assert (z() * f.d_z(1).d_z(1) + (ONE - z()) * f.d_z(1) + f).is_zero()
    all_pass(ode_check(8, 4))


def test_star_exp_check():
    all_pass(star_exp_check((0,), 0))
    all_pass(star_exp_check((0,), 3))
    all_pass(star_exp_check((1,), 2))
    all_pass(star_exp_check((1, 0), 2))


def test_even_identity():
    assert even_identity_check((0,), (0,))
    assert even_identity_check((1,), (1,))
    assert even_identity_check((2,), (1,))
    for alpha in iter_multiindices(2, 2):
        for beta in iter_multiindices(2, 2):
            assert even_identity_check(alpha, beta)


def test_even_identity_worked_example():
    # x (x star z^2) = z (x^2 star z), both equal x^2 z^2 - 2 x z
    left = xi() * star_monomial(1, (1,), (2,))
    right = z() * star_monomial(1, (2,), (1,))
    assert left == right == xi() ** 2 * z() ** 2 - 2 * xi() * z()


def test_even_identity_refuses_unequal_lengths():
    # the length guard is Poly's: beta of the wrong length cannot make a monomial
    for alpha, beta in (((1, 0), (1,)), ((1,), (1, 0))):
        with pytest.raises(ValueError, match="exponent length mismatch"):
            even_identity_check(alpha, beta)


def test_spec_validation():
    with pytest.raises(ValueError):
        LaguerreSpec((1,), (1, 2))
    with pytest.raises(ValueError):
        LaguerreSpec((-1,), (0,))
