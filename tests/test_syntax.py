"""Expression parsing and canonical printing."""

import gc
import importlib
import operator
import sys
import weakref
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from staralg import syntax
from staralg.poly import Poly
from staralg.syntax import (
    MAX_NESTING,
    MAX_TERM_PAIRS,
    ParseError,
    _power_pairs,
    format_poly,
    parse_expr,
    parse_poly,
    parse_weyl,
)
from staralg.weyl import WeylOp, right_symbol

from conftest import polys


def xi(n=1, i=1):
    return Poly.xi_var(n, i)


def z(n=1, i=1):
    return Poly.z_var(n, i)


# -- parsing -------------------------------------------------------------------

def test_parse_symbol_polynomial():
    got = parse_poly("x1^3*z1^2 - 6*x1^2*z1 + 6*x1", 1)
    assert got == xi() ** 3 * z() ** 2 - 6 * xi() ** 2 * z() + 6 * xi()


def test_parse_constant_in_two_vars():
    assert parse_poly("1", 2) == Poly.const(2, 1)
    assert parse_poly("0", 2) == Poly.zero(2)


def test_parse_square_of_difference():
    assert parse_poly("(x1 - z1)^2", 1) == xi() ** 2 - 2 * xi() * z() + z() ** 2


def test_parse_rational_literals():
    assert parse_poly("1/2*z1^2", 1) == z() ** 2 / 2
    assert parse_poly("3/4", 1) == Poly.const(1, Fraction(3, 4))
    assert parse_poly("2^3", 1) == Poly.const(1, 8)


def test_parse_unary_minus_binds_tighter_than_product():
    assert parse_poly("-x1*z1", 1) == -(xi() * z())
    assert parse_poly("2*-3", 1) == Poly.const(1, -6)
    assert parse_poly("--x1", 1) == xi()


def test_parse_whitespace_insignificant():
    assert parse_poly("  x1 +\n z1\t", 2) == xi(2) + z(2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + + z1", 1)
    assert err.value.line == 1 and err.value.column == 6

    with pytest.raises(ParseError, match="out of range"):
        parse_poly("z3", 2)
    with pytest.raises(ParseError, match="negative exponent"):
        parse_poly("x1^-2", 1)
    with pytest.raises(ParseError, match="rational literal"):
        parse_poly("x1/2", 1)
    with pytest.raises(ParseError, match="trailing input"):
        parse_poly("2x1", 1)  # juxtaposition is not multiplication
    with pytest.raises(ParseError, match="needs a 1-based index"):
        parse_poly("x + 1", 1)
    with pytest.raises(ParseError, match="not allowed"):
        parse_poly("d1", 1)  # derivations only exist in operator expressions
    with pytest.raises(ParseError, match="zero denominator"):
        parse_poly("1/0", 1)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_poly("x1 & z1", 1)


@pytest.mark.parametrize("text, column", [("x١ + 1", 1), ("٣*z1", 1), ("x²", 1),
                                          ("z1 + ٣", 6)],
                         ids=["arabic-indic-index", "arabic-indic-integer", "superscript-index",
                              "arabic-indic-after-sum"])
def test_parse_refuses_non_ascii_digits(text, column):
    # str.isdigit accepts Arabic-Indic and superscript digits; the grammar does not
    with pytest.raises(ParseError) as err:
        parse_poly(text, 1)
    assert (err.value.line, err.value.column) == (1, column)


def test_parse_nesting_is_bounded():
    deepest = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert parse_poly(deepest, 1) == xi()
    assert parse_poly(" + ".join([deepest] * 3), 1) == 3 * xi()  # siblings do not add up
    assert parse_weyl(deepest.replace("x", "d"), 1) == WeylOp(xi())
    with pytest.raises(ParseError, match=f"nesting depth {MAX_NESTING + 1} is above the "
                                         f"limit {MAX_NESTING}") as err:
        parse_poly(f"z1 + ({deepest})", 1)
    assert (err.value.line, err.value.column) == (1, 6 + MAX_NESTING)


def test_parse_long_sign_runs_without_recursion():
    assert parse_poly("-" * 10001 + "x1", 1) == -xi()
    assert parse_poly("2*" + "-" * 10000 + "z1", 1) == 2 * z()


def test_parse_weyl_examples():
    op = parse_weyl("z1^2*d1^3", 1)
    assert op == WeylOp(xi() ** 3 * z() ** 2)
    assert parse_weyl("d1*z1", 1) == WeylOp(xi() * z() + Poly.const(1, 1))
    assert parse_weyl("1", 1) == WeylOp.identity(1)
    assert parse_weyl("D1*z1", 1) == parse_weyl("d1*z1", 1)


def test_parse_weyl_product_is_composition():
    # z1*d1 and d1*z1 differ by the commutation relation
    assert right_symbol(parse_weyl("z1*d1", 1)) == xi() * z()
    assert right_symbol(parse_weyl("d1*z1", 1)) == xi() * z() + Poly.const(1, 1)


def test_parse_weyl_rejects_x_vars():
    with pytest.raises(ParseError, match="not allowed in operator"):
        parse_weyl("x1*d1", 1)


@pytest.mark.parametrize("mode", ["Poly", "WEYL", "op", ""])
def test_parse_expr_refuses_unknown_modes(mode):
    with pytest.raises(ValueError, match=f"unknown parse mode {mode!r}"):
        parse_expr("z1", 1, mode)
    assert parse_expr("z1", 1, "poly") == z() and parse_expr("z1", 1, "weyl") == WeylOp(z())


def _signed_sum(pieces):
    """'p0 - p1 + p2 - p3 ...' and the sign it gives each piece."""
    signs = [(-1) ** i for i in range(len(pieces))]
    text = pieces[0] + "".join((" + " if s > 0 else " - ") + p
                               for s, p in zip(signs[1:], pieces[1:]))
    return text, signs


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda *args: calls.append(1) or original(*args))
    return calls


def test_long_polynomial_sum_is_added_once(monkeypatch):
    # repeated monomials, so summands cancel and merge
    pieces = [f"{i}/7*x1^{i % 5}*z2^{i % 3}" for i in range(1, 301)]
    text, signs = _signed_sum(pieces)
    want = Poly.sum(2, (parse_poly(p, 2) * s for p, s in zip(pieces, signs)))
    adds = _count_calls(monkeypatch, Poly, "__add__")
    assert parse_poly(text, 2) == want
    assert not adds


def test_long_operator_sum_is_added_once(monkeypatch):
    pieces = [f"{i}*z1^{i % 4}*d1^{i % 3}*z1" for i in range(1, 41)]
    text, signs = _signed_sum(pieces)
    want = reduce(operator.add, (parse_weyl(p, 1).scale(s) for p, s in zip(pieces, signs)))
    adds = _count_calls(monkeypatch, WeylOp, "__add__")
    assert parse_weyl(text, 1) == want
    assert not adds


# -- printing ------------------------------------------------------------------

def test_print_examples():
    assert format_poly(Poly.zero(1)) == "0"
    assert format_poly(xi() * z() - Poly.const(1, 1)) == "x1*z1 - 1"
    symbol = xi() ** 3 * z() ** 2 - 6 * xi() ** 2 * z() + 6 * xi()
    assert format_poly(symbol) == "x1^3*z1^2 - 6*x1^2*z1 + 6*x1"
    assert format_poly(z() ** 2 / 2 - 2 * z() + Poly.const(1, 1)) == "1/2*z1^2 - 2*z1 + 1"


def test_print_descending_grlex_with_ties():
    p = xi() ** 2 + xi() * z() + z() ** 2 + xi() + z()
    assert format_poly(p) == "x1^2 + x1*z1 + z1^2 + x1 + z1"


def test_print_negative_leading_term():
    assert format_poly(-xi() + Poly.const(1, 1)) == "-x1 + 1"
    assert format_poly(-xi() - z()) == "-x1 - z1"


def test_print_coefficient_one_elision():
    assert format_poly(Poly.const(1, 1)) == "1"
    assert format_poly(Poly.const(1, -1)) == "-1"
    assert format_poly(xi(2, 2) * z(2, 1)) == "x2*z1"


@settings(max_examples=80, deadline=None)
@given(polys())
def test_round_trip_parse_print(p):
    assert parse_poly(format_poly(p), p.n) == p


def wide_coefficients():
    """Signed coefficients with large numerators and denominators, and the
    unit magnitudes +-1, +-1/d whose printing elides or keeps the 1."""
    units = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-1, 2)])
    wide = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
    return st.one_of(units, wide.filter(lambda c: c != 0))


@settings(max_examples=80, deadline=None)
@given(polys(coeffs=wide_coefficients))
def test_round_trip_wide_coefficients(p):
    text = format_poly(p)
    assert parse_poly(text, p.n) == p
    signs = [c > 0 for _, c in p.sorted_terms()]
    assert text.startswith("-") == (not signs[0] if signs else False)
    assert text.count(" - ") == signs[1:].count(False)


@settings(max_examples=60, deadline=None)
@given(polys())
def test_print_idempotent_on_canonical_strings(p):
    text = format_poly(p)
    assert format_poly(parse_poly(text, p.n)) == text


def _drop_staralg():
    for name in [m for m in sys.modules if m == "staralg" or m.startswith("staralg.")]:
        del sys.modules[name]


def test_reimport_releases_previous_package():
    # Nothing module-level (such as a typing cache entry) may pin the
    # classes of an earlier import, or each re-import keeps a full copy.
    saved = {m: mod for m, mod in sys.modules.items()
             if m == "staralg" or m.startswith("staralg.")}
    try:
        _drop_staralg()
        cli = importlib.import_module("staralg.cli")  # imports every module
        refs = [weakref.ref(cli.mathieu.Poly), weakref.ref(cli.OutputRecord)]
        del cli
        _drop_staralg()
        importlib.import_module("staralg.cli")
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
    finally:
        _drop_staralg()
        sys.modules.update(saved)


def counted_pairs(monkeypatch):
    """The term pairs each Poly-by-Poly product multiplies, as they happen."""
    pairs, real = [], Poly.__mul__

    def counting(self, other):
        if isinstance(other, Poly):
            pairs.append(len(self.nums) * len(other.nums))
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    return pairs


@pytest.mark.parametrize("text", ["x1+x2+z1+z2", "1+x1", "x1", "0", "(x1+z1)^2 - 3/2*x2",
                                  "x1^2*z2 + x1*z2^2 + 7"])
def test_power_pairs_bound_the_work_of_pow(monkeypatch, text):
    base = parse_poly(text, 2)
    pairs = counted_pairs(monkeypatch)
    for e in range(14):
        pairs.clear()
        base ** e
        predicted = _power_pairs(len(base.nums), e)
        assert sum(pairs) <= predicted
        if text == "x1+x2+z1+z2":  # distinct variables: every bound is reached
            assert sum(pairs) == predicted


def test_poly_products_and_powers_over_the_budget_are_refused_unbuilt(monkeypatch):
    pairs = counted_pairs(monkeypatch)
    with pytest.raises(ParseError, match=f"above the limit {MAX_TERM_PAIRS} .line 1, column 15"):
        parse_poly("(x1+x2+z1+z2)^200", 2)
    assert max(pairs, default=0) == 0  # nothing was multiplied
    side = "+".join(f"{{v}}^{i}" for i in range(1001))
    text = f"({side.format(v='x1')})*({side.format(v='z1')})"
    with pytest.raises(ParseError, match="term pairs to multiply is above the limit"):
        parse_poly(text, 1)
    assert max(pairs) == 1  # only the 1-term powers x1^i, z1^i were built
    # within the budget both are built
    assert len(parse_poly("(x1+x2+z1+z2)^20", 2).nums) == 1771
    assert len(parse_poly("(x1+z1+1)^3*(x2+z2)^2", 2).nums) == 30


def test_the_term_budget_covers_the_whole_text(monkeypatch):
    # many products of 4 pairs each: the text is refused once they add up
    monkeypatch.setattr(syntax, "MAX_TERM_PAIRS", 1000)
    pairs = counted_pairs(monkeypatch)
    assert parse_poly(" + ".join(["(x1+z1)*(x2+z2)"] * 250), 2) == \
        parse_poly("250*x1*x2 + 250*x1*z2 + 250*z1*x2 + 250*z1*z2", 2)
    pairs.clear()
    with pytest.raises(ParseError, match="1004 term pairs to multiply is above the limit 1000"):
        parse_poly(" + ".join(["(x1+z1)*(x2+z2)"] * 300), 2)
    assert sum(pairs) == 1000  # the 251st product was not built


def test_only_polynomial_text_has_a_term_budget(monkeypatch):
    want = parse_poly("x1^3 + 2*x1^2*z1 + x1*z1^2 + x1", 1)
    monkeypatch.setattr(syntax, "MAX_TERM_PAIRS", 0)
    with pytest.raises(ParseError, match="term pairs"):
        parse_poly("x1*z1", 1)
    with pytest.raises(ParseError, match="term pairs"):
        parse_poly("x1^2", 1)
    assert right_symbol(parse_weyl("(z1+d1)^2*d1", 1)) == want  # operator text: no budget yet


def test_integer_literals_beyond_the_interpreter_limit_are_parse_errors():
    with pytest.raises(ParseError, match="integer too long: 5000 digits .line 1, column 4"):
        parse_poly("x1+" + "7" * 5000, 1)
