"""Acceptance suite: every criterion at its stated bounds, zero tolerance.

All arithmetic is exact rational, so every comparison is equality.  Each
test prints one pass line on success (visible with pytest -s or in the
captured output of a failure).
"""

import random
from fractions import Fraction

from staralg.cli import main as cli_main
from staralg.deform import (
    phi,
    star,
    star_ev0,
    star_monomial,
    star_via_subst_xi,
    star_via_subst_z,
)
from staralg.laguerre import (
    LaguerreSpec,
    even_identity_check,
    laguerre,
    laguerre_from_star_at_one,
    laguerre_genfun,
    ode_check,
    orthogonality_check,
    recurrence_check,
    xi_orthogonality_check,
)
from staralg.mathieu import (
    MembershipOracle,
    in_image_ev0,
    in_image_linear,
    power_experiment,
    random_poly,
)
from staralg.poly import (
    Poly,
    iter_multiindices,
    mi_binomial,
    mi_factorial,
    mi_le,
    mi_sub,
)
from staralg.weyl import from_left_symbol, from_right_symbol, left_symbol, right_symbol

from conftest import all_pass, experiment
from reference import star_double_sum


def passed(number, description):
    print(f"ACCEPTANCE {number} PASS: {description}")


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_01_example_symbols_via_cli(capsys):
    code, out = run_cli(capsys, "symbol", "--n", "1", "--dir", "left",
                        "--input", "z1^2*d1^3")
    assert code == 0 and out == "x1^3*z1^2 - 6*x1^2*z1 + 6*x1\n"
    code, out = run_cli(capsys, "symbol", "--n", "1", "--dir", "right",
                        "--input", "z1^2*d1^3")
    assert code == 0 and out == "x1^3*z1^2\n"
    passed(1, "golden left/right symbols of z1^2*d1^3, byte-exact through the CLI")


T_SET_HOM = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3)]


def test_criterion_02_flow_map_homomorphism():
    rng = random.Random(202)
    count = 0
    for t in T_SET_HOM:
        for _ in range(100):
            n = rng.choice([1, 2])
            f = random_poly(rng, n, 4)
            g = random_poly(rng, n, 4)
            # the product by its defining double sum, not through phi
            fg = star_double_sum(t, f, g)
            assert phi(t, fg) == phi(t, f) * phi(t, g)
            assert star(t, f, g) == fg
            count += 1
    assert count >= 500
    passed(2, f"flow map is a homomorphism of the defined product on {count} random pairs, "
              f"t in {{0, 1, -1, 1/2, -2/3}}")


def test_criterion_03_star_associative_commutative():
    rng = random.Random(303)
    count = 0
    for t in T_SET_HOM:
        for _ in range(60):
            n = rng.choice([1, 2])
            f = random_poly(rng, n, 4, max_terms=4)
            g = random_poly(rng, n, 4, max_terms=4)
            h = random_poly(rng, n, 4, max_terms=4)
            assert star(t, f, g) == star(t, g, f)
            assert star(t, star(t, f, g), h) == star(t, f, star(t, g, h))
            # the same identities for the defining double sum, which star must equal
            fg = star_double_sum(t, f, g)
            assert fg == star_double_sum(t, g, f) == star(t, f, g)
            fg_h = star_double_sum(t, fg, h)
            assert fg_h == star_double_sum(t, f, star_double_sum(t, g, h)) == \
                star(t, star(t, f, g), h)
            count += 1
    assert count >= 300
    passed(3, f"star product (defining double sum and phi route) associative and "
              f"commutative on {count} random triples")


def test_criterion_04_substitution_oracle_agreement():
    rng = random.Random(404)
    count = 0
    for t in T_SET_HOM:
        for _ in range(60):
            n = rng.choice([1, 2])
            g = random_poly(rng, n, 4)
            lam = _single_family(rng, n, "xi")
            p = _single_family(rng, n, "z")
            assert star_via_subst_xi(t, lam, g) == star(t, lam, g)
            assert star_via_subst_z(t, p, g) == star(t, p, g)
            count += 1
    assert count >= 300
    passed(4, f"substitution oracles agree with star on {count} samples, both sides")


def _single_family(rng, n, kind):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * n
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(n)] += 1
        key = (tuple(exps), (0,) * n) if kind == "xi" else ((0,) * n, tuple(exps))
        terms[key] = Fraction(rng.choice([c for c in range(-9, 10) if c]),
                              rng.randint(1, 4))
    return Poly(n, terms)


def test_criterion_05_interchange_on_monomial_basis():
    cases = 0
    for n, degmax in ((1, 6), (2, 4)):
        for alpha in iter_multiindices(n, degmax):
            for beta in iter_multiindices(n, degmax - sum(alpha)):
                p = Poly.monomial(n, alpha, beta)
                assert right_symbol(from_left_symbol(p)) == phi(1, p)
                assert left_symbol(from_right_symbol(p)) == phi(-1, p)
                cases += 1
    passed(5, f"symbol interchange equals the +1/-1 flows on {cases} basis monomials")


def test_criterion_06_laguerre_three_way_agreement():
    cases = 0
    for n in (1, 2):
        for alpha in iter_multiindices(n, 4):
            for k in iter_multiindices(n, 3):
                spec = LaguerreSpec(alpha, k)
                explicit = laguerre(spec)
                assert laguerre_from_star_at_one(spec) == explicit
                assert laguerre_genfun(spec) == explicit
                cases += 1
    passed(6, f"explicit = star-at-one = generating-function on {cases} (alpha, k) specs")


def test_criterion_07_orthogonality():
    checked = 0
    for n, k in ((1, (0,)), (1, (1,)), (1, (2,)), (2, (0, 0)), (2, (1, 1))):
        checked += len(all_pass(orthogonality_check(n, k, 3)))
    # worked value from the statement: alpha = beta = (2,), k = (1,) gives 3
    from staralg.laguerre import integrate_weight, laguerre1

    assert integrate_weight(laguerre1(2, 1) * laguerre1(2, 1), (1,)) == 3
    passed(7, f"weight integrals reproduce delta * (alpha+k)!/alpha! on {checked} pairs")


def test_criterion_08_xi_weighted_orthogonality():
    checked = 0
    for point in ([Fraction(1)], [Fraction(2)], [Fraction(1, 2)],
                  [Fraction(1), Fraction(2)]):
        checked += len(all_pass(xi_orthogonality_check(point, 3)))
    passed(8, f"(alpha!)^2 delta orthogonality at fixed xi points on {checked} pairs")


def test_criterion_09_recurrence_and_ode():
    all_pass(recurrence_check(8))
    all_pass(ode_check(8, 4))
    passed(9, "recurrences for m <= 8 and the differential equation for m <= 8, k <= 4")


def test_criterion_10_structural_identities():
    t_set = [Fraction(1), Fraction(-1), Fraction(1, 2)]
    cases = 0
    for n in (1, 2):
        idx = list(iter_multiindices(n, 3))
        for t in t_set:
            for alpha in idx:
                for beta in idx:
                    m = star_monomial(t, alpha, beta)
                    # Euler grading
                    euler = Poly.zero(n)
                    for i in range(1, n + 1):
                        euler = euler + Poly.z_var(n, i) * m.d_z(i) \
                            - Poly.xi_var(n, i) * m.d_xi(i)
                    assert euler == m * (sum(beta) - sum(alpha))
                    # Leibniz on star monomials, both families
                    for gamma in idx:
                        dz = m.d_multi("z", gamma)
                        if mi_le(gamma, beta):
                            assert dz == star_monomial(t, alpha, mi_sub(beta, gamma)) \
                                * (mi_factorial(gamma) * mi_binomial(beta, gamma))
                        else:
                            assert dz.is_zero()
                        dxi = m.d_multi("xi", gamma)
                        if mi_le(gamma, alpha):
                            assert dxi == star_monomial(t, mi_sub(alpha, gamma), beta) \
                                * (mi_factorial(gamma) * mi_binomial(alpha, gamma))
                        else:
                            assert dxi.is_zero()
                    # multiplication-operator identities on the monomial
                    f = Poly.monomial(n, alpha, beta)
                    for i in range(1, n + 1):
                        xv = Poly.xi_var(n, i)
                        zv = Poly.z_var(n, i)
                        assert xv * f == star(t, xv, f) + f.d_z(i) * t
                        assert zv * f == star(t, zv, f) + f.d_xi(i) * t
                    cases += 1
        # symmetry of mixed products of single-family factors
        for a1 in idx:
            for b1 in idx:
                for a2 in idx:
                    for b2 in idx:
                        left = star(1, Poly.monomial(n, a1, b1), Poly.monomial(n, a2, b2))
                        right = star_monomial(1, a1, b2) * star_monomial(1, a2, b1)
                        assert left == right
                        cases += 1
        # even identity
        for alpha in idx:
            for beta in idx:
                assert even_identity_check(alpha, beta)
                cases += 1
    passed(10, f"Euler grading, symmetry, even identity, Leibniz, multiplication "
               f"operators: {cases} enumerated cases")


def test_criterion_11_membership_oracle_equivalence():
    t_set = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3)]
    rng = random.Random(1111)
    cases = 0
    for t in t_set:
        for n in (1, 2):
            for total in range(5):
                for xe in iter_multiindices(n, total):
                    rest = total - sum(xe)
                    for ze in iter_multiindices(n, rest):
                        if sum(ze) != rest:
                            continue
                        p = Poly.monomial(n, xe, ze)
                        assert in_image_ev0(t, p) == in_image_linear(t, p)
                        cases += 1
            for _ in range(25):
                p = random_poly(rng, n, 4)
                assert in_image_ev0(t, p) == in_image_linear(t, p)
                cases += 1
    passed(11, f"the two image oracles agree on {cases} inputs "
               f"(basis monomials to degree 4 plus 200 random polynomials)")


def test_criterion_12_ev0_worked_family():
    z1, x1 = Poly.z_var(1, 1), Poly.xi_var(1, 1)
    # degree in t is 2, so four distinct t values pin the identity
    for t in (Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(3)):
        for m in (2, 3, 4):
            got = star_ev0(t, z1 ** m * x1 ** 2)
            assert got == z1 ** (m - 2) * (m * (m - 1)) * t ** 2
    passed(12, "ev0 analogue reproduces m(m-1) t^2 z^(m-2) for m in {2, 3, 4}")


def test_criterion_13_mathieu_determinism_and_ideal_case(capsys):
    rng = random.Random(1313)
    oracle = MembershipOracle("image_ev0", t=Fraction(0))
    for _ in range(6):
        n = rng.choice([1, 2])
        f = Poly.xi_var(n, rng.randint(1, n)) * random_poly(rng, n, 2)
        b = random_poly(rng, n, 2)
        pairs, _ = experiment(power_experiment(oracle, f, b, 6, "star"), n)
        # every power and product a member, so the stable tail starts at m = 1
        assert pairs == ((True, True),) * 6
    argv = ["mathieu", "--oracle", "image", "--n", "1", "--t", "1",
            "--f", "x1*z1 + x1", "--b", "z1^2", "--mmax", "6"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    passed(13, "t = 0 experiments over the x ideal are all-member; "
               "reports byte-identical across runs")
