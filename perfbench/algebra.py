"""A small exact polynomial toolkit that the benchmark's checkers own.

It shares no code with ``staralg``: outputs are parsed from their printed
text and verified here, so a change to the program cannot also change the
yardstick it is measured against.

A polynomial in Q[x1..xn, z1..zn] is a dict mapping an exponent tuple of
length 2n, laid out (x1..xn, z1..zn), to a nonzero Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial

_FACTOR = re.compile(r"([xz])([1-9][0-9]*)(?:\^([0-9]+))?\Z")
_NUMBER = re.compile(r"[0-9]+(?:/[0-9]+)?\Z")


class Malformed(ValueError):
    """Program output that is not a canonical polynomial text."""


def const(n: int, value) -> dict:
    value = Fraction(value)
    return {(0,) * (2 * n): value} if value else {}


def monomial(n: int, x: tuple, z: tuple, coeff=1) -> dict:
    return {tuple(x) + tuple(z): Fraction(coeff)}


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def scale(p: dict, c) -> dict:
    c = Fraction(c)
    return {k: v * c for k, v in p.items()} if c else {}


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            k = tuple(a + b for a, b in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def deriv(p: dict, slot: int, times: int = 1) -> dict:
    """times-fold derivative in the variable stored at exponent position slot."""
    out: dict = {}
    for k, c in p.items():
        e = k[slot]
        if e < times:
            continue
        kk = k[:slot] + (e - times,) + k[slot + 1:]
        out[kk] = c * (factorial(e) // factorial(e - times))
    return out


def degree(p: dict) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((sum(k) for k in p), default=-1)


def is_z_only(p: dict, n: int) -> bool:
    return all(not any(k[:n]) for k in p)


def phi(p: dict, n: int, t: Fraction) -> dict:
    """exp(t L) p with L = sum_i d/dx_i d/dz_i; the series is finite."""
    acc, cur, weight, m = dict(p), p, Fraction(1), 1
    while True:
        nxt: dict = {}
        for k, c in cur.items():
            for i in range(n):
                a, b = k[i], k[n + i]
                if a and b:
                    kk = list(k)
                    kk[i] -= 1
                    kk[n + i] -= 1
                    kk = tuple(kk)
                    nxt[kk] = nxt.get(kk, 0) + c * a * b
        cur = {k: c for k, c in nxt.items() if c}
        if not cur:
            return acc
        weight *= Fraction(t) / m
        acc = add(acc, scale(cur, weight))
        m += 1


def star_via_flow(f: dict, g: dict, n: int, t: Fraction) -> dict:
    """f star_t g as phi_{-t}(phi_t f * phi_t g): the flow isomorphism route."""
    return phi(mul(phi(f, n, t), phi(g, n, t)), n, -Fraction(t))


def ev0(p: dict, n: int, t: Fraction) -> dict:
    """Termwise x^b z^g -> t^|b| g!/(g-b)! z^(g-b); zero unless b <= g."""
    out: dict = {}
    for k, c in p.items():
        xb, zg = k[:n], k[n:]
        if any(b > g for b, g in zip(xb, zg)):
            continue
        coeff = c * Fraction(t) ** sum(xb)
        for b, g in zip(xb, zg):
            coeff *= factorial(g) // factorial(g - b)
        kk = (0,) * n + tuple(g - b for b, g in zip(xb, zg))
        out[kk] = out.get(kk, 0) + coeff
    return {k: c for k, c in out.items() if c}


def laguerre(alpha: tuple, k: tuple) -> dict:
    """prod_i sum_j C(a_i + k_i, a_i - j) (-z_i)^j / j!, written out here."""
    n = len(alpha)
    out = const(n, 1)
    for i, (a, kk) in enumerate(zip(alpha, k)):
        factor: dict = {}
        for j in range(a + 1):
            e = [0] * (2 * n)
            e[n + i] = j
            factor[tuple(e)] = Fraction(comb(a + kk, a - j) * (-1) ** j, factorial(j))
        out = mul(out, factor)
    return out


# -- text ------------------------------------------------------------------

def parse(text: str, n: int) -> dict:
    """Parse canonical polynomial text: terms joined by ' + ' / ' - ',
    factors joined by '*', each monomial at most once."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    out: dict = {}
    for i in range(0, len(pieces), 2):
        if i:
            sign = 1 if pieces[i - 1] == "+" else -1
        k, c = _parse_term(pieces[i], n)
        if k in out:
            raise Malformed(f"monomial repeated in {text!r}")
        if c == 0:
            raise Malformed(f"zero coefficient in {text!r}")
        out[k] = sign * c
    return out


def _parse_term(term: str, n: int) -> tuple[tuple, Fraction]:
    exps = [0] * (2 * n)
    coeff = Fraction(1)
    for pos, factor in enumerate(term.split("*")):
        if pos == 0 and _NUMBER.match(factor):
            coeff = Fraction(factor)
            continue
        m = _FACTOR.match(factor)
        if not m or int(m.group(2)) > n:
            raise Malformed(f"bad factor {factor!r} in {term!r}")
        slot = int(m.group(2)) - 1 + (n if m.group(1) == "z" else 0)
        exps[slot] += int(m.group(3) or 1)
    return tuple(exps), coeff


def fmt(p: dict, n: int) -> str:
    """Text in the program's input syntax, highest total degree first."""
    if not p:
        return "0"
    out = []
    for k in sorted(p, key=lambda k: (sum(k), k), reverse=True):
        c = p[k]
        factors = [f"{'x' if s < n else 'z'}{s % n + 1}" + (f"^{e}" if e > 1 else "")
                   for s, e in enumerate(k) if e]
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f" {'+' if c > 0 else '-'} {body}")
    return "".join(out)


# -- operators on Q[z] ------------------------------------------------------
#
# An operator is a list of (coefficient, factors); factors is a sequence of
# (letter, index, power) with letter 'z' (multiply) or 'd' (differentiate),
# composed left to right, so the rightmost factor acts first.

def op_text(op: list) -> str:
    out = []
    for coeff, factors in op:
        body = "*".join([str(abs(coeff))] + [f"{l}{i}" + (f"^{p}" if p > 1 else "")
                                              for l, i, p in factors])
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f" {'+' if coeff > 0 else '-'} {body}")
    return "".join(out)


def op_order(op: list) -> int:
    return max((sum(p for l, _, p in factors if l == "d") for _, factors in op), default=0)


def op_apply(op: list, p: dict, n: int) -> dict:
    total: dict = {}
    for coeff, factors in op:
        h = p
        for letter, i, pw in reversed(factors):
            if letter == "d":
                h = deriv(h, n + i - 1, pw)
            else:
                e = [0] * (2 * n)
                e[n + i - 1] = pw
                h = mul(h, {tuple(e): Fraction(1)})
        total = add(total, scale(h, coeff))
    return total


def right_symbol_apply(sym: dict, p: dict, n: int) -> dict:
    """Apply sum_a c_a(z) dz^a, read from the right symbol sum_a c_a(z) x^a."""
    total: dict = {}
    for k, c in sym.items():
        h = p
        for i, a in enumerate(k[:n]):
            if a:
                h = deriv(h, n + i, a)
        total = add(total, scale(mul(h, {(0,) * n + k[n:]: Fraction(1)}), c))
    return total


def left_symbol_apply(sym: dict, p: dict, n: int) -> dict:
    """Apply sum_b dz^b o c_b(z), read from the left symbol sum_b c_b(z) x^b."""
    total: dict = {}
    for k, c in sym.items():
        h = mul(p, {(0,) * n + k[n:]: Fraction(c)})
        for i, b in enumerate(k[:n]):
            if b:
                h = deriv(h, n + i, b)
        total = add(total, h)
    return total


def z_monomials(n: int, max_total: int) -> list[dict]:
    """Every z^g with |g| <= max_total; operators of order <= max_total that
    agree on all of them are equal."""
    out = []

    def rec(prefix: tuple, left: int) -> None:
        if len(prefix) == n:
            out.append({(0,) * n + prefix: Fraction(1)})
            return
        for e in range(left + 1):
            rec(prefix + (e,), left - e)

    rec((), max_total)
    return out
