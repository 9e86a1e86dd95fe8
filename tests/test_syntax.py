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

from staralg.poly import Poly
from staralg.syntax import MAX_NESTING, ParseError, format_poly, parse_poly, parse_weyl
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
        ref = weakref.ref(importlib.import_module("staralg.poly").Poly)
        _drop_staralg()
        importlib.import_module("staralg")
        gc.collect()
        assert ref() is None
    finally:
        _drop_staralg()
        sys.modules.update(saved)
