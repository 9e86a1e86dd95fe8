"""Output checkers, run outside the timed region.

Each checker takes an item and the stdout of its ``cli.main`` call, and
returns a Verdict: whether the output is right, how many records it holds,
and the item's input and output sizes.  They verify by a route the program
does not take, in the benchmark's own arithmetic (``algebra``):

* ``mathieu``: each verdict equals ev0(b) = 0 or ev0(f) = 0, each power
  field equals ev0(f) = 0, and each payload b star f^m has degree
  deg b + m deg f and equals phi_{-t}(phi_t b * (phi_t f)^m);
* ``check``: every verdict is pass and the record count is the one the
  bounds imply;
* ``star``: equals phi_{-t}(phi_t f * phi_t g);
* ``phi``: phi_{-t} of the output returns the input;
* ``taylor``: sum_a x^a c_a / a! equals phi_t f;
* ``symbol``, ``apply``: compared by the action of both operator readings
  on every z-monomial up to the operator order;
* ``laguerre``: equals the explicit binomial product written out here, so
  all three ``--via`` routes must agree with it and with each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import algebra
from gen import Item


@dataclass
class Verdict:
    ok: bool
    reason: str
    records: int
    sizes: dict


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _fields(line: str) -> dict:
    out = {}
    for part in line.split("\t"):
        key, sep, value = part.partition("=")
        _require(bool(sep), f"field without '=': {part!r}")
        out[key] = value
    return out


def _sizes(inputs: list[dict], outputs: list[dict]) -> dict:
    return {"in_terms": sum(len(p) for p in inputs),
            "in_deg": max((algebra.degree(p) for p in inputs), default=-1),
            "out_terms": sum(len(p) for p in outputs),
            "out_deg": max((algebra.degree(p) for p in outputs), default=-1)}


def check(item: Item, rc, stdout: str) -> Verdict:
    lines = stdout.splitlines()
    sizes: dict = {}
    try:
        _require(rc == 0, f"exit code {rc}")
        sizes = _CHECKERS[item.kind](item, lines)
    except (CheckFailed, algebra.Malformed) as exc:
        return Verdict(False, str(exc), len(lines), sizes)
    except (KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
        return Verdict(False, f"unreadable output: {exc!r}", len(lines), sizes)
    return Verdict(True, "", len(lines), sizes)


# -- star_powers -------------------------------------------------------------

def _check_mathieu(item: Item, lines: list[str]) -> dict:
    n, d = item.n, item.data
    f, b, t, mmax = d["f"], d["b"], d["t"], d["mmax"]
    _require(len(lines) == mmax, f"{len(lines)} records, expected {mmax}")
    power_member = not algebra.ev0(f, n, t)
    product_member = power_member or not algebra.ev0(b, n, t)
    deg_f, deg_b = algebra.degree(f), algebra.degree(b)
    flow_f, flow_product = algebra.phi(f, n, t), algebra.phi(b, n, t)
    payloads = []
    for m, line in enumerate(lines, start=1):
        rec = _fields(line)
        _require(rec["kind"] == "mathieu" and rec["oracle"] == "image_ev0",
                 f"record {m} is not an image-oracle record")
        _require(int(rec["m"]) == m and Fraction(rec["t"]) == t, f"record {m}: wrong m or t")
        _require(rec["power"] == ("member" if power_member else "nonmember"),
                 f"m={m}: power={rec['power']}, but ev0(f)={'0' if power_member else 'nonzero'}")
        _require(rec["verdict"] == ("member" if product_member else "nonmember"),
                 f"m={m}: verdict={rec['verdict']} contradicts ev0(b), ev0(f)")
        p = algebra.parse(rec["payload"], n)
        _require(algebra.degree(p) == deg_b + m * deg_f,
                 f"m={m}: payload degree {algebra.degree(p)} != {deg_b} + {m}*{deg_f}")
        flow_product = algebra.mul(flow_product, flow_f)
        _require(p == algebra.phi(flow_product, n, -t), f"m={m}: payload != phi_-t(phi_t b * phi_t f^m)")
        payloads.append(p)
    return _sizes([f, b], payloads)


# -- check_suites --------------------------------------------------------------

def expected_records(suite: str, n: int, d: dict) -> int:
    """Record count implied by the bounds: one record per case the suite runs."""
    if suite in ("ortho", "even"):                 # all pairs of |a| <= degmax
        return comb(d["degmax"] + n, n) ** 2
    if suite == "recur":                           # two relations per m in 1..mmax
        return 2 * d["mmax"]
    if suite == "ode":
        return (d["mmax"] + 1) * (d["kmax"] + 1)
    if suite == "genfun":
        return (d["kmax"] + 1) * (d["order"] + 1)
    if suite == "starexp":                         # per coordinate, then all |a| <= order
        return n * (d["order"] + 1) + (comb(d["order"] + n, n) if n > 1 else 0)
    if suite == "interchange":                     # (a, b) with |a|+|b| <= degmax, two ways
        return 2 * comb(d["degmax"] + 2 * n, 2 * n)
    if suite == "oracles":                         # monomials of degree <= degmax, then probes
        return comb(d["degmax"] + 2 * n, 2 * n) + d["count"]
    raise ValueError(f"unknown suite {suite!r}")


def _check_suite(item: Item, lines: list[str]) -> dict:
    suite = item.data["suite"]
    want = expected_records(suite, item.n, item.data)
    _require(len(lines) == want, f"{len(lines)} records, bounds imply {want}")
    payloads = []
    for line in lines:
        rec = _fields(line)
        _require(rec["kind"] == suite, f"record of kind {rec['kind']!r} in suite {suite}")
        _require(rec["verdict"] == "pass", f"failing case: {line}")
        if rec["payload"]:
            payloads.append(algebra.parse(rec["payload"], item.n))
    bound = item.data.get("degmax", item.data.get("order", item.data.get("mmax")))
    return {"in_terms": 0, "in_deg": bound, **_sizes([], payloads)}


# -- cli_requests --------------------------------------------------------------

def _one_line(lines: list[str], n: int) -> dict:
    _require(len(lines) == 1, f"{len(lines)} lines, expected 1")
    return algebra.parse(lines[0], n)


def _check_star(item: Item, lines: list[str]) -> dict:
    d = item.data
    got = _one_line(lines, item.n)
    _require(got == algebra.star_via_flow(d["f"], d["g"], item.n, d["t"]),
             "star != phi_{-t}(phi_t f * phi_t g)")
    return _sizes([d["f"], d["g"]], [got])


def _check_phi(item: Item, lines: list[str]) -> dict:
    d = item.data
    got = _one_line(lines, item.n)
    _require(algebra.phi(got, item.n, -d["t"]) == d["f"], "inverse flow does not return the input")
    return _sizes([d["f"]], [got])


def _check_taylor(item: Item, lines: list[str]) -> dict:
    n, d = item.n, item.data
    total: dict = {}
    coeffs, seen = [], set()
    for line in lines:
        rec = _fields(line)
        alpha = tuple(int(a) for a in rec["alpha"].split(","))
        _require(len(alpha) == n and alpha not in seen, f"bad or repeated alpha {alpha}")
        seen.add(alpha)
        c = algebra.parse(rec["a"], n)
        _require(bool(c) and algebra.is_z_only(c, n), f"alpha={alpha}: coefficient not a nonzero z-polynomial")
        weight = Fraction(1)
        for a in alpha:
            weight /= factorial(a)
        total = algebra.add(total, algebra.mul(algebra.monomial(n, alpha, (0,) * n, weight), c))
        coeffs.append(c)
    _require(total == algebra.phi(d["f"], n, d["t"]), "sum x^a c_a / a! != phi_t f")
    return _sizes([d["f"]], coeffs)


def _same_action(n: int, order: int, left, right) -> bool:
    return all(left(m) == right(m) for m in algebra.z_monomials(n, order))


def _check_symbol(item: Item, lines: list[str]) -> dict:
    n, d = item.n, item.data
    got = _one_line(lines, n)
    got_order = max((sum(k[:n]) for k in got), default=0)
    read_got = algebra.right_symbol_apply if d["dir"] in ("right", "l2r") else algebra.left_symbol_apply
    if "op" in d:
        in_terms, in_deg = len(d["op"]), algebra.op_order(d["op"])
        source = lambda m: algebra.op_apply(d["op"], m, n)
    else:
        in_terms, in_deg = len(d["sym"]), max(sum(k[:n]) for k in d["sym"])
        read_in = algebra.left_symbol_apply if d["dir"] == "l2r" else algebra.right_symbol_apply
        source = lambda m: read_in(d["sym"], m, n)
    _require(_same_action(n, max(in_deg, got_order), source, lambda m: read_got(got, m, n)),
             f"{d['dir']} symbol acts differently from the input on some z-monomial")
    return {**_sizes([], [got]), "in_terms": in_terms, "in_deg": in_deg}


def _check_apply(item: Item, lines: list[str]) -> dict:
    n, d = item.n, item.data
    got = _one_line(lines, n)
    _require(got == algebra.op_apply(d["op"], d["p"], n), "apply differs from factor-by-factor action")
    return {**_sizes([d["p"]], [got]), "in_terms": len(d["op"]) + len(d["p"])}


def _check_laguerre(item: Item, lines: list[str]) -> dict:
    d = item.data
    got = _one_line(lines, item.n)
    _require(got == algebra.laguerre(d["alpha"], d["k"]),
             f"--via {d['via']} differs from the explicit binomial product")
    return {**_sizes([], [got]), "in_deg": sum(d["alpha"])}


_CHECKERS = {
    "mathieu": _check_mathieu,
    "check": _check_suite,
    "star": _check_star,
    "phi": _check_phi,
    "taylor": _check_taylor,
    "symbol": _check_symbol,
    "apply": _check_apply,
    "laguerre": _check_laguerre,
}
