"""Weyl operators: normal form, composition, application, symbol maps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from staralg import weyl
from staralg.cli import main
from staralg.deform import StarContext, phi, star
from staralg.poly import Poly, iter_multiindices
from staralg.weyl import (
    WeylOp,
    from_left_symbol,
    from_right_symbol,
    interchange_check,
    left_symbol,
    right_symbol,
)

from conftest import polys, xi_only_polys, z_only_polys
from reference import compose_by_leibniz


def xi(n=1, i=1):
    return Poly.xi_var(n, i)


def z(n=1, i=1):
    return Poly.z_var(n, i)


def test_apply_examples():
    assert WeylOp.dz(1, 1).apply(z() ** 2) == 2 * z()
    op = WeylOp(xi() ** 3 * z() ** 2)  # z^2 d^3 in right normal form
    assert op.apply(z() ** 3) == 6 * z() ** 2
    p = z() ** 4 - z()
    assert WeylOp.identity(1).apply(p) == p


def test_apply_requires_z_only():
    with pytest.raises(ValueError):
        WeylOp.dz(1, 1).apply(xi())


def test_coefficients_must_be_z_only():
    with pytest.raises(ValueError):
        WeylOp.mul_by(xi())


def test_compose_commutation_relation():
    d, zm = WeylOp.dz(1, 1), WeylOp.mul_by(z())
    assert d.compose(zm) == WeylOp(xi() * z() + Poly.const(1, 1))
    assert zm.compose(d) == WeylOp(xi() * z())


def test_compose_third_order_example():
    got = WeylOp.dz(1, 1).compose_pow(3).compose(WeylOp.mul_by(z() ** 2))
    want = WeylOp(xi() ** 3 * z() ** 2 + 6 * xi() ** 2 * z() + 6 * xi())
    assert got == want
    # verify by applying both sides to z^m, m <= 6
    for m in range(7):
        p = z() ** m
        assert got.apply(p) == (p * z() ** 2).d_multi("z", (3,))


@settings(max_examples=30, deadline=None)
@given(z_only_polys(n=2), z_only_polys(n=2), z_only_polys(n=2, max_degree=4))
def test_compose_coherent_with_apply(a, b, p):
    w1 = from_right_symbol(a * xi(2, 1) ** 2 + a)  # a(z) d1^2 + a(z)
    w2 = from_right_symbol(b * xi(2, 2) + b * xi(2, 1))
    assert w1.compose(w2).apply(p) == w1.apply(w2.apply(p))


@settings(max_examples=30, deadline=None)
@given(polys(n=2, max_degree=3), polys(n=2, max_degree=3), polys(n=2, max_degree=3),
       z_only_polys(n=2))
def test_general_operators_compose_coherently(a, b, c, p):
    a, b, c = WeylOp(a), WeylOp(b), WeylOp(c)
    ab = a.compose(b)
    assert ab == compose_by_leibniz(a, b)
    assert ab.apply(p) == a.apply(b.apply(p))
    assert ab.compose(c) == a.compose(b.compose(c))


def test_right_symbol_examples():
    op = WeylOp(xi() ** 3 * z() ** 2)
    assert right_symbol(op) == xi() ** 3 * z() ** 2
    assert right_symbol(WeylOp.dz(1, 1)) == xi()
    p = z() ** 2 - 3 * z()
    assert right_symbol(WeylOp.mul_by(p)) == p


def test_from_right_symbol_examples():
    assert from_right_symbol(xi() ** 3 * z() ** 2) == WeylOp(xi() ** 3 * z() ** 2)
    assert from_right_symbol(Poly.const(1, 1)) == WeylOp.identity(1)
    assert from_right_symbol(xi() + z()) == WeylOp(xi() + z())


def test_left_symbol_examples():
    op = WeylOp(xi() ** 3 * z() ** 2)
    assert left_symbol(op) == xi() ** 3 * z() ** 2 - 6 * xi() ** 2 * z() + 6 * xi()
    assert left_symbol(WeylOp.dz(1, 1)) == xi()
    assert from_left_symbol(xi() * z()) == WeylOp(xi() * z() + Poly.const(1, 1))


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3))
def test_symbol_round_trips(p):
    assert right_symbol(from_right_symbol(p)) == p
    assert left_symbol(from_left_symbol(p)) == p


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3), polys(n=2, max_degree=3))
def test_symbol_maps_linear(p, q):
    assert right_symbol(from_right_symbol(p) + from_right_symbol(q)) == p + q
    assert left_symbol(from_left_symbol(p) + from_left_symbol(q)) == p + q


def test_interchange_on_monomial_basis():
    for n, degmax in ((1, 5), (2, 3)):
        plus, minus = StarContext(n, Fraction(1)), StarContext(n, Fraction(-1))
        for alpha in iter_multiindices(n, degmax):
            for beta in iter_multiindices(n, degmax - sum(alpha)):
                p = Poly.monomial(n, alpha, beta)
                assert right_symbol(from_left_symbol(p)) == phi(plus, p)
                assert left_symbol(from_right_symbol(p)) == phi(minus, p)


def test_interchange_check_report():
    report = interchange_check(1, 4)
    assert report.ok
    assert all(r.verdict == "pass" for r in report.records)


def test_interchange_suite_checks_the_sign_of_t(monkeypatch, capsys):
    # with phi_{-1} computed as phi_{+1}, only the r2l records can notice
    monkeypatch.setattr(weyl, "phi", lambda ctx, p: phi(StarContext(ctx.n, abs(ctx.t)), p))
    assert main(["check", "--suite", "interchange", "--n", "2"]) == 1
    verdicts = {(line.split("\t")[3], line.split("\t")[4])
                for line in capsys.readouterr().out.splitlines()}
    assert verdicts == {("dir=l2r", "verdict=pass"), ("dir=r2l", "verdict=pass"),
                        ("dir=r2l", "verdict=fail")}


@settings(max_examples=30, deadline=None)
@given(xi_only_polys(n=1), z_only_polys(n=1))
def test_symbols_of_single_family_compositions(lam, p):
    # lam(d) o p(z): right symbol is the star product at parameter -1;
    # p(z) o lam(d): left symbol is the star product at parameter +1.
    n = lam.n
    lam_d = from_right_symbol(lam)  # constant-coefficient operator lam(d)
    mul_p = WeylOp.mul_by(p)
    minus, plus = StarContext(n, Fraction(-1)), StarContext(n, Fraction(1))
    assert right_symbol(lam_d.compose(mul_p)) == star(minus, lam, p)
    assert left_symbol(mul_p.compose(lam_d)) == star(plus, lam, p)
