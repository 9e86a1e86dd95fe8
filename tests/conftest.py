from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import settings

from staralg.poly import Poly
from staralg.syntax import parse_poly

# Reproducible runs (select with --hypothesis-profile=ci); example counts
# stay as each test sets them.
settings.register_profile("ci", derandomize=True, deadline=None)


def coefficients():
    return st.fractions(
        min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
    ).filter(lambda c: c != 0)


def mixed_coefficients():
    """Nonzero rationals with unrelated denominators, so factors share no
    common denominator."""
    return st.fractions(
        min_value=Fraction(-60), max_value=Fraction(60), max_denominator=12
    ).filter(lambda c: c != 0)


@st.composite
def polys(draw, n=None, max_degree=4, max_terms=6, zero_ok=True, coeffs=coefficients):
    """Random sparse polynomials with small exact-rational coefficients."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=2))
    n_terms = draw(st.integers(min_value=0 if zero_ok else 1, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        budget = draw(st.integers(min_value=0, max_value=max_degree))
        xe = draw(exponents(n, budget))
        ze = draw(exponents(n, budget - sum(xe)))
        terms[(xe, ze)] = draw(coeffs())
    return Poly(n, terms)


@st.composite
def exponents(draw, n, budget):
    out = []
    for _ in range(n):
        e = draw(st.integers(min_value=0, max_value=budget))
        out.append(e)
        budget -= e
    return tuple(out)


@st.composite
def xi_only_polys(draw, n=None, max_degree=3, max_terms=4):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=2))
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        xe = draw(exponents(n, max_degree))
        terms[(xe, (0,) * n)] = draw(coefficients())
    return Poly(n, terms)


@st.composite
def z_only_polys(draw, n=None, max_degree=3, max_terms=4, coeffs=coefficients):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=2))
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        ze = draw(exponents(n, max_degree))
        terms[((0,) * n, ze)] = draw(coeffs())
    return Poly(n, terms)


def small_t():
    return st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)])


def all_pass(records):
    """The records as a list, each asserted to pass; a failure names the
    first failing line."""
    records = list(records)
    failed = next((r for r in records if r.verdict != "pass"), None)
    assert failed is None, failed.line()
    return records


def experiment(records, n):
    """A power experiment's (power, product) membership pair for each m, and
    its payloads, the products b*f^m, parsed back to Poly."""
    pairs, products = [], []
    for record in records:
        pairs.append((dict(record.params)["power"] == "member", record.verdict == "member"))
        products.append(parse_poly(record.payload, n))
    return tuple(pairs), tuple(products)
