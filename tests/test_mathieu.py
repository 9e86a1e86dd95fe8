"""Membership oracles and the power-experiment harness."""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import staralg.mathieu as mathieu_module
from staralg.cli import main
from staralg.deform import phi, star_ev0
from staralg.laguerre import laguerre1
from staralg.mathieu import (
    DegreeCapExceeded,
    MembershipOracle,
    OracleDisagreement,
    basis_power_scan,
    image_linear_witness,
    in_image_ev0,
    in_image_linear,
    in_laguerre_span,
    oracle_equivalence_scan,
    power_experiment,
    random_poly,
)
from staralg.poly import Poly, compositions, iter_multiindices
from staralg.syntax import parse_poly

from conftest import all_pass, experiment, polys, small_t
from reference import image_witness_by_solve, power_experiment_loop

ONE = Poly.const(1, 1)


def xi(n=1, i=1):
    return Poly.xi_var(n, i)


def z(n=1, i=1):
    return Poly.z_var(n, i)


def apply_image_operator(t, gs):
    n = len(gs)
    total = Poly.zero(n)
    for i, g in enumerate(gs, start=1):
        total = total + Poly.xi_var(n, i) * g - g.d_z(i) * t
    return total


# -- image oracles -------------------------------------------------------------

def test_image_examples():
    t = Fraction(1)
    assert in_image_ev0(t, xi()) and in_image_linear(t, xi())
    assert not in_image_ev0(t, ONE) and not in_image_linear(t, ONE)
    assert not in_image_ev0(t, xi() * z())
    assert not in_image_linear(t, xi() * z())
    half = Fraction(1, 2)
    assert star_ev0(half, xi() * z()) == Poly.const(1, Fraction(1, 2))
    assert not in_image_ev0(half, xi() * z())


def test_zero_is_member():
    t = Fraction(1)
    assert in_image_ev0(t, Poly.zero(2))
    assert in_image_linear(t, Poly.zero(2))


def test_linear_witness_reconstructs():
    for t in (Fraction(1), Fraction(-2, 3)):
        p = xi() ** 2 * z() - 2 * t * xi()
        gs = image_linear_witness(t, p)
        assert gs is not None
        assert apply_image_operator(t, gs) == p
        bound = p.degree().total - 1
        assert all(g.degree().total <= bound for g in gs)


def test_linear_witness_none_for_nonmembers():
    t = Fraction(1)
    assert image_linear_witness(t, ONE) is None
    assert image_linear_witness(t, xi() * z()) is None


def test_raising_degree_bound_keeps_verdicts():
    # the solve's default bound deg(p) - 1 is claimed sound; stress it by allowing more
    t = Fraction(2, 3)
    rng = random.Random(7)
    for _ in range(10):
        p = random_poly(rng, 2, 3)
        base = image_witness_by_solve(t, p) is not None
        relaxed = image_witness_by_solve(t, p, p.degree().total + 1) is not None
        assert base == relaxed == in_image_linear(t, p)


@settings(max_examples=30, deadline=None)
@given(polys(n=2, max_degree=3), small_t())
def test_oracles_agree(p, t):
    assert in_image_ev0(t, p) == in_image_linear(t, p)


@settings(max_examples=30, deadline=None)
@given(polys(n=2, max_degree=3))
def test_ideal_case_at_t_zero(p):
    # at t = 0 the subspace is the plain ideal generated by the x variables
    t = Fraction(0)
    member = xi(p.n, 1) * p
    assert in_image_ev0(t, member)
    assert in_image_linear(t, member)


@settings(max_examples=30, deadline=None)
@given(polys(n=2, max_degree=3), small_t())
def test_flow_transport(p, t):
    # p vanishes at x = 0 exactly when its inverse flow lands in the image
    pulled = phi(-t, p)
    zeros = [Fraction(0)] * p.n
    assert in_image_ev0(t, pulled) == p.evaluate(xi_point=zeros).is_zero()


def checked_division_witness(t, p):
    """The division's witness, checked against the graded solve at its default
    bound, p itself and its normal form (g_i free of x_1..x_(i-1))."""
    gs = image_linear_witness(t, p)
    assert gs == image_witness_by_solve(t, p)
    if gs is not None:
        assert apply_image_operator(t, gs) == p
        for i, g in enumerate(gs):
            assert not any(any(xe[:i]) for xe, _ in g.terms)
    return gs


@settings(max_examples=60, deadline=None)
@given(polys(max_degree=3), small_t())
def test_division_witness_matches_graded_solve(p, t):
    member = p - star_ev0(t, p)  # star_ev0 kills the image and fixes Q[z]
    assert checked_division_witness(t, member) is not None
    checked_division_witness(t, p)


@settings(max_examples=60, deadline=None)
@given(polys(n=2, max_degree=4), small_t())
def test_division_witness_lowers_the_degree(p, t):
    # each witness term comes from a term of p and has lower total degree
    member = p - star_ev0(t, p)
    gs = image_linear_witness(t, member)
    assert all(sum(xe) + sum(ze) < member.degree().total for g in gs for xe, ze in g.terms)


def test_division_witness_on_monomials():
    n = 3
    for t in (Fraction(1), Fraction(-1, 2), Fraction(0)):
        for total in range(4):
            for xe in iter_multiindices(n, total):
                for ze in compositions(n, total - sum(xe)):
                    checked_division_witness(t, Poly.monomial(n, xe, ze))


def test_oracle_equivalence_scan_report():
    for t in (Fraction(0), Fraction(1), Fraction(2, 3)):
        all_pass(oracle_equivalence_scan(t, 1, 3, random_count=10, seed=3))
    all_pass(oracle_equivalence_scan(Fraction(-1), 2, 3, random_count=5, seed=1))


# -- Laguerre span oracle --------------------------------------------------------

def test_laguerre_span_examples():
    assert in_laguerre_span(ONE - z(), (0,))
    assert not in_laguerre_span(ONE, (0,))
    assert in_laguerre_span(z() - ONE, (0,))


def test_laguerre_span_closed_under_combinations():
    members = [laguerre1(m, 1) for m in range(1, 5)]
    combo = members[0] * 3 + members[1] / 2 - members[3] * 7
    assert in_laguerre_span(combo, (1,))
    for m in members:
        assert in_laguerre_span(m, (1,))


# -- power experiments ------------------------------------------------------------

def test_power_experiment_image_example():
    oracle = MembershipOracle("image_ev0", t=Fraction(1))
    pairs, products = experiment(power_experiment(oracle, xi(), z(), 4, "star"), 1)
    # every power and product a member, so the stable tail starts at m = 1
    assert pairs == ((True, True),) * 4
    # the products are z star x^m = x^m z - m x^(m-1)
    for m, product in enumerate(products, start=1):
        assert product == xi() ** m * z() - m * xi() ** (m - 1)


def test_power_experiment_t_zero_ideal():
    oracle = MembershipOracle("image_ev0", t=Fraction(0))
    rng = random.Random(11)
    for _ in range(5):
        f = xi(2, 1) * random_poly(rng, 2, 2)
        b = random_poly(rng, 2, 2)
        pairs, _ = experiment(power_experiment(oracle, f, b, 5, "star"), 2)
        assert pairs == ((True, True),) * 5


def test_power_experiment_laguerre_span():
    oracle = MembershipOracle("laguerre_span", k=(0,))
    f = ONE - z()  # the first Laguerre polynomial
    pairs, _ = experiment(power_experiment(oracle, f, z(), 6, "ordinary"), 1)
    # oracle verdicts are produced by the exact moment integral itself
    for m in range(1, 7):
        assert pairs[m - 1] == (integrate_weight_direct(f ** m) == 0,
                                integrate_weight_direct(z() * f ** m) == 0)


def integrate_weight_direct(p):
    from staralg.laguerre import integrate_weight

    return integrate_weight(p, (0,))


def test_power_experiment_with_linear_oracle():
    # the brute-force oracle is a valid (slower) drop-in for star experiments
    rng = random.Random(21)
    ev0 = MembershipOracle("image_ev0", t=Fraction(1))
    linear = MembershipOracle("image_linear", t=Fraction(1))
    f, b = xi() * z(), z()
    r1 = experiment(power_experiment(ev0, f, b, 3, "star"), 1)
    r2 = experiment(power_experiment(linear, f, b, 3, "star"), 1)
    assert r1[0] == r2[0]


@pytest.mark.parametrize("kind", ["image_ev0", "image_linear"])
@pytest.mark.parametrize("f, b, n, mmax, t", [
    # an id names t unless it is 1; a fractional t is where the expansions
    # that the map-backs share meet phi's q^depth scaling
    pytest.param(*case, t, id="-".join(map(str, case)) + ("" if t == 1 else f"-t={t}"))
    for case in [("x1*z1+x1^2", "x1^2*z1+x1", 1, 12), ("x1*z2+x2^2*z1", "z1", 2, 8)]
    for t in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))])
def test_power_experiment_matches_generic_star(kind, f, b, n, mmax, t):
    oracle = MembershipOracle(kind, t=t)
    f, b = parse_poly(f, n), parse_poly(b, n)
    got = experiment(power_experiment(oracle, f, b, mmax, "star"), n)
    assert got == power_experiment_loop(oracle, f, b, mmax)


def lying_once(monkeypatch, owner, name):
    """Replace owner.name by a verdict that is negated on its first call only;
    returns the list of calls, which the caller may clear to lie again."""
    real, calls = getattr(owner, name), []

    def lie_once(*args):
        calls.append(args)
        return real(*args) != (len(calls) == 1)

    monkeypatch.setattr(owner, name, lie_once)
    return calls


def test_power_experiment_rejects_a_lying_oracle(monkeypatch, capsys):
    # image_ev0 reads its verdicts in flow coordinates, image_linear asks
    # MembershipOracle.contains; each lies once, about the power at m = 1
    calls = lying_once(monkeypatch, mathieu_module, "_x_divisible")
    with pytest.raises(OracleDisagreement, match="m=1"):
        next(power_experiment(MembershipOracle("image_ev0", t=Fraction(1)), xi() * z(), z(), 3,
                              "star"))
    calls.clear()
    # an internal fault, not a usage error: exit 3, never exit 2
    code = main(["mathieu", "--oracle", "image", "--n", "1", "--t", "1", "--f", "x1*z1",
                 "--b", "z1", "--mmax", "3"])
    err = capsys.readouterr().err
    assert code == 3 and code != 2
    assert err.startswith("staralg: internal error: oracle image_ev0 at m=1 ")
    monkeypatch.undo()
    lying_once(monkeypatch, MembershipOracle, "contains")
    with pytest.raises(OracleDisagreement, match="m=1"):
        next(power_experiment(MembershipOracle("image_linear", t=Fraction(1)), xi() * z(), z(),
                              3, "star"))


@st.composite
def experiment_inputs(draw):
    """n, f, b, t and mmax for a star power experiment; f and b are each
    projected into the image or not, so every pair of verdicts occurs."""
    n = draw(st.integers(min_value=1, max_value=2))
    t = draw(small_t())
    f, b = (draw(polys(n=n, max_degree=2, max_terms=4)) for _ in range(2))
    if draw(st.booleans()):
        f = f - star_ev0(t, f)  # star_ev0 kills the image and fixes Q[z]
    if draw(st.booleans()):
        b = b - star_ev0(t, b)
    return f, b, t, draw(st.integers(min_value=1, max_value=4))


@settings(max_examples=40, deadline=None)
@given(experiment_inputs())
def test_flow_verdicts_match_division(inputs):
    f, b, t, mmax = inputs
    via_flow = power_experiment(MembershipOracle("image_ev0", t=t), f, b, mmax, "star")
    via_division = power_experiment(MembershipOracle("image_linear", t=t), f, b, mmax, "star")
    assert experiment(via_flow, f.n) == experiment(via_division, f.n)


@pytest.mark.parametrize("f", ["x1*z1+x1", "x1^2*z1-2*x1"])
@pytest.mark.parametrize("mmax", [1, 5])
def test_flow_verdicts_map_only_the_product_back(monkeypatch, f, mmax):
    counts = {"phi": 0, "star_ev0": 0}

    def counting(name):
        real = getattr(mathieu_module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mathieu_module, name, counted)

    counting("phi")
    counting("star_ev0")
    list(power_experiment(MembershipOracle("image_ev0", t=Fraction(1)), parse_poly(f, 1),
                          z() ** 2, mmax, "star"))
    # phi_t of f and of b, then phi_{-t} of each product; star_ev0 only in the
    # closed form of f and b
    assert counts["phi"] == 2 + mmax
    assert counts["star_ev0"] <= 2


def test_power_experiment_determinism():
    oracle = MembershipOracle("image_ev0", t=Fraction(1, 2))
    f, b = xi() * z() + xi(), z() ** 2
    r1 = power_experiment(oracle, f, b, 5, "star")
    r2 = power_experiment(oracle, f, b, 5, "star")
    assert [rec.line() for rec in r1] == [rec.line() for rec in r2]


def test_power_experiment_pairing_validation():
    with pytest.raises(ValueError):
        next(power_experiment(MembershipOracle("laguerre_span", k=(0,)), z(), z(), 2, "star"))
    with pytest.raises(ValueError):
        next(power_experiment(MembershipOracle("image_ev0", t=Fraction(1)), xi(), z(), 2,
                              "ordinary"))


def test_degree_cap_aborts():
    oracle = MembershipOracle("image_ev0", t=Fraction(1))
    with pytest.raises(DegreeCapExceeded):  # before the first record
        next(power_experiment(oracle, xi() ** 3, z(), 8, "star", degree_cap=10))


@pytest.mark.parametrize("f, b, n, cap, refused", [
    ("x1*z1+x1^2", "x1^2*z1+x1", 1, 5, "b*f^2 is 7"),
    ("x1^3", "z1", 1, 10, "f^4 is 12"),
    ("x1*z2+x2^2*z1", "z1^2", 2, 8, "f^3 is 9")])
def test_degree_cap_refuses_before_building(monkeypatch, f, b, n, cap, refused):
    real_mul, built = Poly.__mul__, []

    def recording_mul(self, other):
        built.append(real_mul(self, other))
        return built[-1]

    monkeypatch.setattr(Poly, "__mul__", recording_mul)
    oracle = MembershipOracle("image_ev0", t=Fraction(1))
    with pytest.raises(DegreeCapExceeded) as exc:
        next(power_experiment(oracle, parse_poly(f, n), parse_poly(b, n), 12, "star",
                              degree_cap=cap))
    assert str(exc.value) == f"degree of {refused}, above the cap {cap}"
    assert built and max(p.degree().total for p in built) <= cap


def test_membership_oracle_validation():
    with pytest.raises(ValueError):
        MembershipOracle("image_ev0")
    with pytest.raises(ValueError):
        MembershipOracle("laguerre_span")
    with pytest.raises(ValueError):
        MembershipOracle("nonsense", t=Fraction(1))


def test_basis_power_scan_smoke():
    scan = list(basis_power_scan(Fraction(1), 1, 2, 3))
    assert scan
    for f, records in scan:
        assert [dict(r.params)["m"] for r in records] == ["1", "2", "3"]
