"""The integer storage of Poly: reduced numerators on flat keys over one
denominator, the derived Fraction view, and CLI paths that never build it."""

import copy
import pickle
from fractions import Fraction
from math import gcd
from types import MappingProxyType

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from staralg.cli import SUITES, main
from staralg.deform import phi, star_ev0
from staralg.laguerre import integrate_weight
from staralg.poly import Poly
from staralg.series import USeries
from staralg.weyl import WeylOp

from conftest import mixed_coefficients, polys, z_only_polys
from reference import integrate_weight_by_fractions

T_VALUES = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                            Fraction(2), Fraction(-3, 2)])


def assert_reduced(p: Poly) -> None:
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *p.nums.values()) == 1
    for key, num in p.nums.items():
        assert type(num) is int and num != 0
        assert type(key) is tuple and len(key) == 2 * p.n
        assert all(type(e) is int and e >= 0 for e in key)
    if not p.nums:
        assert p.den == 1
    assert len(p.terms) == len(p.nums)
    rebuilt = Poly(p.n, dict(p.terms))
    assert rebuilt == p and hash(rebuilt) == hash(p)


@settings(max_examples=60, deadline=None)
@given(polys(n=2, coeffs=mixed_coefficients), polys(n=2, coeffs=mixed_coefficients), T_VALUES,
       st.sampled_from([2, -3, Fraction(-5, 4), Fraction(7, 3)]))
def test_kernel_outputs_are_reduced(f, g, t, s):
    x1z2 = Poly.monomial(2, (1, 0), (0, 1))
    outputs = [f * g, (f + g) * (f - g), f * s, f * 0, s * f, f / s, -f,
               Poly.sum(2, [f, g, -f]), Poly.sum(2, [f, -f]), f.d_z(1), f.d_xi(2),
               (f * x1z2).divide_xi_monomial((1, 0)), (f * x1z2).divide_z_monomial((0, 1)),
               phi(t, f), star_ev0(t, f), f ** 2, star_ev0(t, f * g),
               WeylOp(f).compose(WeylOp(g)).symbol, f.evaluate(xi_point=(s, 1)),
               f.homogeneous_part(2)]
    for p in outputs:
        assert_reduced(p)


@settings(max_examples=40, deadline=None)
@given(z_only_polys(n=2, coeffs=mixed_coefficients), st.integers(min_value=1, max_value=6))
def test_series_and_weight_integrals_are_reduced(p, order):
    tail = USeries.geometric_tail(order, p.n).scale_poly(p)
    for coeff in tail.exp().coeffs:
        assert_reduced(coeff)
    got = integrate_weight(p, (1, 0))
    assert type(got) is Fraction and got == integrate_weight_by_fractions(p, (1, 0))


def test_terms_is_a_lazy_read_only_view():
    p = Poly(2, {((1, 0), (0, 2)): Fraction(3, 4), ((0, 0), (0, 0)): Fraction(-1, 6)})
    assert (dict(p.nums), p.den) == ({(1, 0, 0, 2): 9, (0, 0, 0, 0): -2}, 12)
    assert type(p.terms) is MappingProxyType and len(p.terms) == 2
    assert p.terms == {((1, 0), (0, 2)): Fraction(3, 4), ((0, 0), (0, 0)): Fraction(-1, 6)}
    assert ((1, 0), (0, 2)) in p.terms and ((1, 0, 0), (2,)) not in p.terms
    with pytest.raises(KeyError):
        p.terms[((0, 1), (0, 0))]
    with pytest.raises(TypeError):
        p.terms[((0, 1), (0, 0))] = 1
    with pytest.raises(TypeError):
        p.nums[(0, 1, 0, 0)] = 1
    with pytest.raises(AttributeError):
        p.den = 1
    assert Poly.zero(2).den == 1 and not Poly.zero(2).nums


@pytest.mark.parametrize("copy_of", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_pickle_and_deepcopy_round_trip(copy_of):
    for p in (Poly.const(1, 1), Poly.zero(2),
              Poly(2, {((1, 0), (0, 2)): Fraction(3, 4), ((0, 0), (0, 0)): Fraction(-1, 6)})):
        q = copy_of(p)
        assert q == p and hash(q) == hash(p) and (q.n, q.den) == (p.n, p.den)
        assert type(q.nums) is MappingProxyType
        with pytest.raises(TypeError):
            q.nums[(0,) * (2 * p.n)] = 1
        assert_reduced(q)


def _argvs(n):
    """One argv of every subcommand (every route where there are several)
    and every check suite, at dimension n."""
    v = str(n)
    yield ["star", "--n", v, "--t", "1/2", "--f", "x1*z1 + 2/3*z1^2", "--g", "x1^2 - 1/5*z1"]
    yield ["phi", "--n", v, "--t=-3/2", "--f", "x1^2*z1^3 + 1/7"]
    yield ["phi", "--n", v, "--inverse", "--f", "x1*z1^2"]
    yield ["taylor", "--n", v, "--f", "x1^2*z1 - 3/4*x1"]
    for direction, text in (("left", "z1^2*d1^3 + 1/2"), ("right", "d1*z1"),
                            ("l2r", "1/3*x1^2*z1"), ("r2l", "x1*z1^2")):
        yield ["symbol", "--n", v, "--dir", direction, "--input", text]
    yield ["apply", "--n", v, "--op", "z1^2*d1^2 - 1/2*d1", "--poly", "z1^3 + 2/9"]
    for via in ("explicit", "star", "genfun"):
        yield ["laguerre", "--n", v, "--alpha", ",".join(["2"] * n), "--k", ",".join(["1"] * n),
               "--via", via]
    yield ["mathieu", "--oracle", "image", "--n", v, "--t", "1/2", "--f", "x1*z1 + 1/3*x1",
           "--b", "z1^2", "--mmax", "3"]
    yield ["mathieu", "--oracle", "laguerre", "--n", v, "--f", "z1 - 1", "--b", "1/2*z1",
           "--mmax", "3"]
    for suite in SUITES:
        yield ["check", "--suite", suite, "--n", v, "--degmax", "2", "--mmax", "3",
               "--kmax", "2", "--order", "3", "--count", "4", "--t=-1/2"]


def test_cli_never_builds_the_fraction_view(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("Poly.terms was read")

    monkeypatch.setattr(Poly, "terms", property(refuse))
    for n in (1, 2):
        for argv in _argvs(n):
            assert main(argv) == 0, argv
            out, err = capsys.readouterr()
            assert out and not err, argv
