"""Membership oracles and bounded power experiments.

Two independent oracles, each called with the parameter t first, decide
membership in the image of the commuting first-order operators x_i - t dz_i:

* ``in_image_ev0``:     p belongs iff star_ev0(t, p) = 0 (the image equals the
                          star-ideal generated by the x variables, whose
                          star-Taylor constant coefficient this is);
* ``in_image_linear``:  division: p = sum_i (x_i - t dz_i) g_i + r with r in
                          Q[z], and p belongs iff r = 0, since no nonzero
                          polynomial of Q[z] is a member; the g_i are a
                          witness.  It calls neither phi nor star_ev0.

A third oracle decides membership in the span of the non-constant Laguerre
polynomials for a fixed weight k: by orthogonality that holds iff the plain
weight integral of p vanishes.

The power-experiment harness computes star (or ordinary) powers f^m for
m = 1..mmax and yields one record per m, the membership of the power and of
b*f^m, as each is computed; it checks the degree cap for every m before the
first record, so an abort on the cap prints nothing.  Star powers are computed
in flow coordinates, where phi_t turns star_t into the ordinary product and
x_i - t dz_i into x_i, so the image into the ideal (x): image_ev0 reads its
verdicts there, the other oracles and the payloads in original coordinates.
The flows of one experiment, its map-backs among them, share one table of
phi's t-free expansions, which lives as long as the experiment's generator.
All output is evidence at a truncated range, never a proof of anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .deform import phi, star_ev0
from .laguerre import integrate_weight
from .poly import (
    ZERO_DEGREE,
    MultiIndex,
    Poly,
    Scalar,
    compositions,
    iter_multiindices,
)
from .report import InternalFault, OutputRecord, check

DEFAULT_DEGREE_CAP = 40


class DegreeCapExceeded(RuntimeError):
    """An intermediate power exceeded the configured total-degree cap."""


class OracleDisagreement(InternalFault):
    """A membership verdict contradicts the closed form: an internal fault."""


def in_image_ev0(t: Scalar, p: Poly) -> bool:
    """Membership in Im(x - t dz) via the homomorphism criterion."""
    return star_ev0(t, p).is_zero()


def in_image_linear(t: Scalar, p: Poly) -> bool:
    """Membership in Im(x - t dz) by dividing p through the operators."""
    return image_linear_witness(t, p) is not None


def image_linear_witness(t: Scalar, p: Poly) -> list[Poly] | None:
    """Find g_1..g_n with p = sum_i (x_i - t dz_i) g_i, or None.

    Divides p by the operators from the top x-degree down.  A term
    c x^a z^b with a != 0 whose first x variable is x_i goes to g_i by

        x^a z^b = (x_i - t dz_i) x^(a-e_i) z^b + t b_i x^(a-e_i) z^(b-e_i),

    and the second term is carried one x-degree down.  What is left lies in
    Q[z], where the image is zero, so p is a member iff nothing is left.  The
    witness is the unique one with each g_i free of x_1..x_(i-1), and every
    term of it has total degree below the term it came from, so below deg(p).
    """
    # in integers: a value c at x-depth d is stored as c * den * q^(top - d), t = num/q
    n, num, q = p.n, t.numerator, t.denominator
    top = max((sum(k[:n]) for k in p.nums), default=0)
    by_depth: dict[int, dict[MultiIndex, int]] = {}
    for k, c in p.nums.items():
        by_depth.setdefault(sum(k[:n]), {})[k] = c * q ** (top - sum(k[:n]))
    quotients: list[dict[MultiIndex, int]] = [{} for _ in range(n)]
    for depth in range(top, 0, -1):
        below = by_depth.setdefault(depth - 1, {})
        for k, c in by_depth.pop(depth, {}).items():
            if not c:
                continue  # cancelled by a carry
            i = next(j for j, e in enumerate(k) if e)  # the first x variable
            lowered = k[:i] + (k[i] - 1,) + k[i + 1:]
            quotients[i][lowered] = c * q ** depth  # over den * q^top
            if num and k[n + i]:
                key = lowered[:n + i] + (k[n + i] - 1,) + lowered[n + i + 1:]
                below[key] = below.get(key, 0) + c * num * k[n + i]
    if any(by_depth.get(0, {}).values()):
        return None
    return [Poly._make(n, g, p.den * q ** top) for g in quotients]


def in_laguerre_span(p: Poly, k: MultiIndex) -> bool:
    """Membership in the span of the non-constant Laguerre polynomials for
    weight k: exactly when the plain weight integral vanishes."""
    return integrate_weight(p, k) == 0


@dataclass(frozen=True)
class MembershipOracle:
    """A deterministic membership test: kind plus its parameter (t or k)."""

    kind: str  # "image_ev0" | "image_linear" | "laguerre_span"
    t: Fraction | None = None
    k: MultiIndex | None = None

    def __post_init__(self) -> None:
        if self.kind in ("image_ev0", "image_linear"):
            if self.t is None:
                raise ValueError(f"oracle {self.kind} requires parameter t")
            object.__setattr__(self, "t", Fraction(self.t))
        elif self.kind == "laguerre_span":
            if self.k is None:
                raise ValueError("oracle laguerre_span requires parameter k")
            object.__setattr__(self, "k", tuple(self.k))
        else:
            raise ValueError(f"unknown oracle kind {self.kind!r}")

    def contains(self, p: Poly) -> bool:
        if self.kind == "image_ev0":
            return in_image_ev0(self.t, p)
        if self.kind == "image_linear":
            return in_image_linear(self.t, p)
        return in_laguerre_span(p, self.k)


def _membership(member: bool) -> str:
    return "member" if member else "nonmember"


def power_experiment(oracle: MembershipOracle, f: Poly, b: Poly, mmax: int,
                     power_kind: str,
                     degree_cap: int = DEFAULT_DEGREE_CAP) -> Iterator[OutputRecord]:
    """Probe the Mathieu property of the oracle's subspace at truncated range.

    Yields one record per m = 1..mmax: its verdict is the membership of
    b*f^m, its power field that of f^m, its payload the product b*f^m.  The
    products are members from some m on iff the last verdict is member.
    power_kind "star" pairs with the image oracles (powers and the b-product
    taken with star_t); "ordinary" pairs with the Laguerre-span oracle.
    Powers and products are ordinary products in flow coordinates (phi_t;
    the identity for ordinary powers).  image_ev0 reads its verdicts there,
    as star_ev0(phi_{-t} F) = F at x = 0; only the payload, and the other
    oracles, get them mapped back by phi_{-t}.  All of its phi calls, the
    map-backs included, share one expansion table (see phi), so a key that
    several products have is expanded once.
    Raises DegreeCapExceeded before the first record if any power or product
    up to mmax would outgrow degree_cap, and OracleDisagreement if an
    image-oracle verdict contradicts the closed form.
    """
    if mmax < 1:
        raise ValueError(f"mmax must be >= 1, got {mmax}")
    if f.n != b.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {b.n}")
    if power_kind == "star":
        if not oracle.kind.startswith("image_"):
            raise ValueError("star powers pair with the image oracles")
        t = oracle.t
    elif power_kind == "ordinary":
        if oracle.kind != "laguerre_span":
            raise ValueError("ordinary powers pair with the laguerre_span oracle")
        t = Fraction(0)  # star_0 is the ordinary product and phi_0 the identity
    else:
        raise ValueError(f"unknown power kind {power_kind!r}")
    table: dict = {}
    flow_f, flow_b = phi(t, f, table=table), phi(t, b, table=table)
    # star_ev0 maps onto Q[z], which has no zero divisors: f^m is in the image
    # iff star_ev0(f) = 0, and b star f^m iff star_ev0(f) = 0 or star_ev0(b) = 0.
    f_in = star_ev0(t, f).is_zero()
    closed_form = (f_in, f_in or star_ev0(t, b).is_zero())

    # phi preserves total degree, so the caps apply in flow coordinates; Q[x, z]
    # has no zero divisors, so deg f^m = m deg f and deg b*f^m = deg b + m deg f
    # unless a factor is zero.  Every m is checked before the first record.
    deg_f, deg_b = flow_f.degree().total, flow_b.degree().total
    for m in range(1, mmax + 1):
        deg_power = ZERO_DEGREE.total if f.is_zero() else m * deg_f
        _check_degree_cap(f"f^{m}", deg_power, degree_cap)
        deg_product = ZERO_DEGREE.total if f.is_zero() or b.is_zero() else deg_b + deg_power
        _check_degree_cap(f"b*f^{m}", deg_product, degree_cap)
    param = {"k": oracle.k} if oracle.kind == "laguerre_span" else {"t": oracle.t}

    flow_power = Poly.const(f.n, 1)
    for m in range(1, mmax + 1):
        flow_power = flow_power * flow_f
        flow_product = flow_b * flow_power
        product = phi(-t, flow_product, table=table)
        if oracle.kind == "image_ev0":
            verdicts = (_x_divisible(flow_power), _x_divisible(flow_product))
        else:
            verdicts = (oracle.contains(phi(-t, flow_power, table=table)),
                        oracle.contains(product))
        if power_kind == "star" and verdicts != closed_form:
            raise OracleDisagreement(f"oracle {oracle.kind} at m={m} gives (power, product) "
                                     f"membership {verdicts}, star_ev0 gives {closed_form}")
        yield OutputRecord.of("mathieu", _membership(verdicts[1]), product, oracle=oracle.kind,
                              **param, m=m, power=_membership(verdicts[0]))


def _x_divisible(p: Poly) -> bool:
    """Whether every term of p has an x: p is in (x), the image in flow coordinates."""
    return all(any(k[:p.n]) for k in p.nums)


def _check_degree_cap(name: str, degree: int, degree_cap: int) -> None:
    """Refuse a product before building it if its degree exceeds the cap."""
    if degree > degree_cap:
        raise DegreeCapExceeded(f"degree of {name} is {degree}, above the cap {degree_cap}")


def random_poly(rng: random.Random, n: int, degmax: int, max_terms: int = 6) -> Poly:
    """A small random polynomial with rational coefficients, for scans and tests."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        total = rng.randint(0, degmax)
        split = rng.randint(0, total)
        xe = _random_exponent(rng, n, split)
        ze = _random_exponent(rng, n, total - split)
        num = rng.choice([c for c in range(-9, 10) if c])
        terms[(xe, ze)] = Fraction(num, rng.randint(1, 4))
    return Poly(n, terms)


def _random_exponent(rng: random.Random, n: int, total: int) -> MultiIndex:
    exps = [0] * n
    for _ in range(total):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def oracle_equivalence_scan(t: Fraction, n: int, degmax: int,
                            random_count: int = 20, seed: int = 0) -> Iterator[OutputRecord]:
    """Cross-validate the two image oracles on the monomial basis up to
    degmax plus seeded random combinations."""
    t = Fraction(t)

    def probe(p: Poly, source: str) -> OutputRecord:
        via_ev0 = in_image_ev0(t, p)
        via_linear = in_image_linear(t, p)
        return check("oracles", via_ev0 == via_linear, p, t=t, source=source,
                     ev0=_membership(via_ev0), linear=_membership(via_linear))

    for total in range(degmax + 1):
        for xe in iter_multiindices(n, total):
            for ze in compositions(n, total - sum(xe)):
                yield probe(Poly.monomial(n, xe, ze), "monomial")
    rng = random.Random(seed)
    for _ in range(random_count):
        yield probe(random_poly(rng, n, degmax), "random")


def basis_power_scan(t: Fraction, n: int, degmax: int, mmax: int,
                     b: Poly | None = None,
                     degree_cap: int = DEFAULT_DEGREE_CAP
                     ) -> Iterator[tuple[Poly, Iterator[OutputRecord]]]:
    """Enumeration mode: for every monomial multiple of an x variable up to
    degmax as the candidate f, yield f and its power experiment's records.

    Candidate curation beyond this basis sweep is left to the caller.
    """
    oracle = MembershipOracle("image_ev0", t=Fraction(t))
    if b is None:
        b = Poly.z_var(n, 1)
    for total in range(degmax + 1):
        for xe in iter_multiindices(n, total):
            if sum(xe) == 0:
                continue  # candidates come from the x-generated ideal
            for ze in compositions(n, total - sum(xe)):
                f = Poly.monomial(n, xe, ze)
                yield f, power_experiment(oracle, f, b, mmax, "star", degree_cap=degree_cap)
