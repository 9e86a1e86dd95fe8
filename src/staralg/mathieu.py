"""Membership oracles and bounded power experiments.

Two independent oracles decide membership in the image of the commuting
first-order operators x_i - t dz_i:

* ``in_image_ev0``:     p belongs iff star_ev0(p) = 0 (the image equals the
                          star-ideal generated by the x variables, whose
                          star-Taylor constant coefficient this is);
* ``in_image_linear``:  brute force: solve the finite exact linear system
                          p = sum_i (x_i - t dz_i) g_i with each g_i bounded
                          in total degree by deg(p) - 1, a bound that is
                          sound because the flow map preserves degree.

A third oracle decides membership in the span of the non-constant Laguerre
polynomials for a fixed weight k: by orthogonality that holds iff the plain
weight integral of p vanishes.

The power-experiment harness computes star (or ordinary) powers f^m for
m = 1..mmax, records membership of each power and of b*f^m, and reports the
first stable tail index if one appears in range.  Star powers are computed
in flow coordinates, where phi_t turns star_t into the ordinary product;
the oracles and the printed payloads see them in the original coordinates.
All output is evidence at a truncated range, never a proof of anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .deform import StarContext, phi, star_ev0
from .laguerre import integrate_weight
from .poly import (
    ZERO_DEGREE,
    MultiIndex,
    Poly,
    TermKey,
    compositions,
    grlex_key,
    iter_multiindices,
    mi_sum,
)
from .report import OutputRecord, Report

DEFAULT_DEGREE_CAP = 40


class DegreeCapExceeded(RuntimeError):
    """An intermediate power exceeded the configured total-degree cap."""


class OracleDisagreement(RuntimeError):
    """A membership verdict contradicts the closed form: an internal fault."""


def in_image_ev0(ctx: StarContext, p: Poly) -> bool:
    """Membership in Im(x - t dz) via the homomorphism criterion."""
    return star_ev0(ctx, p).is_zero()


def in_image_linear(ctx: StarContext, p: Poly, degree_bound: int | None = None) -> bool:
    """Membership in Im(x - t dz) via an exact linear solve."""
    return image_linear_witness(ctx, p, degree_bound) is not None


def image_linear_witness(ctx: StarContext, p: Poly,
                         degree_bound: int | None = None) -> list[Poly] | None:
    """Find g_1..g_n with p = sum_i (x_i - t dz_i) g_i, or None.

    Each g_i ranges over total degree <= degree_bound (default deg(p) - 1).
    The operators raise the grading (x-degree minus z-degree) by exactly 1,
    so the system splits by grade; each graded component is solved
    independently, which keeps the matrices small.
    """
    ctx.check(p)
    if p.is_zero():
        return [Poly.zero(ctx.n) for _ in range(ctx.n)]
    bound = p.degree().total - 1 if degree_bound is None else degree_bound
    partials = []
    for grade, component in sorted(_split_by_grade(p).items()):
        partial = _solve_graded_component(ctx, component, grade, bound)
        if partial is None:
            return None
        partials.append(partial)
    return [Poly.sum(ctx.n, pieces) for pieces in zip(*partials)]


def _split_by_grade(p: Poly) -> dict[int, Poly]:
    buckets: dict[int, dict[TermKey, Fraction]] = {}
    for (xe, ze), c in p.terms.items():
        buckets.setdefault(mi_sum(xe) - mi_sum(ze), {})[(xe, ze)] = c
    return {g: Poly(p.n, t) for g, t in buckets.items()}


def _solve_graded_component(ctx: StarContext, q: Poly, grade: int,
                            bound: int) -> list[Poly] | None:
    n = ctx.n
    columns: list[tuple[int, TermKey]] = []
    for total in range(bound + 1):
        # the column's grade |xe| - |ze| is grade - 1 and |xe| + |ze| = total
        x_total, odd = divmod(total + grade - 1, 2)
        if odd or not 0 <= x_total <= total:
            continue
        for xe in compositions(n, x_total):
            for ze in compositions(n, total - x_total):
                for i in range(n):
                    columns.append((i, (xe, ze)))
    columns.sort(key=lambda col: (col[0], grlex_key(col[1])))

    row_index: dict[TermKey, int] = {}

    def row_of(key: TermKey) -> int:
        if key not in row_index:
            row_index[key] = len(row_index)
        return row_index[key]

    entries: list[list[tuple[int, Fraction]]] = []
    for i, (xe, ze) in columns:
        image: list[tuple[int, Fraction]] = []
        lifted = xe[:i] + (xe[i] + 1,) + xe[i + 1:]
        image.append((row_of((lifted, ze)), Fraction(1)))
        if ctx.t != 0 and ze[i] > 0:
            lowered = ze[:i] + (ze[i] - 1,) + ze[i + 1:]
            image.append((row_of((xe, lowered)), -ctx.t * ze[i]))
        entries.append(image)
    for key in q.terms:
        row_of(key)

    nrows = len(row_index)
    rows: list[linalg.SparseRow] = [{} for _ in range(nrows)]
    for col, image in enumerate(entries):
        for r, v in image:
            rows[r][col] = rows[r].get(col, Fraction(0)) + v
    rhs = [Fraction(0)] * nrows
    for key, c in q.terms.items():
        rhs[row_index[key]] = c

    solution = linalg.solve(rows, rhs, len(columns))
    if solution is None:
        return None
    witness: list[dict[TermKey, Fraction]] = [{} for _ in range(n)]
    for (i, key), coeff in zip(columns, solution):
        witness[i][key] = coeff
    return [Poly(n, terms) for terms in witness]


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
            return in_image_ev0(StarContext(p.n, self.t), p)
        if self.kind == "image_linear":
            return in_image_linear(StarContext(p.n, self.t), p)
        return in_laguerre_span(p, self.k)


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one bounded power experiment.

    ``power_member[m-1]`` records membership of f^m, ``product_member[m-1]``
    that of b*f^m (products taken in the matching algebra, kept in
    ``products``).  first_stable_n is the least N with b*f^m a member for
    every N <= m <= mmax, or None if even the last product fails.
    """

    oracle: MembershipOracle
    f: Poly
    b: Poly
    mmax: int
    power_kind: str
    power_member: tuple[bool, ...]
    product_member: tuple[bool, ...]
    products: tuple[Poly, ...]
    first_stable_n: int | None

    def records(self) -> list[OutputRecord]:
        from .syntax import format_poly

        out = []
        if self.oracle.kind == "laguerre_span":
            param = ("k", ",".join(map(str, self.oracle.k)))
        else:
            param = ("t", str(self.oracle.t))
        for m in range(1, self.mmax + 1):
            out.append(OutputRecord(
                kind="mathieu",
                params=(("oracle", self.oracle.kind), param, ("m", str(m)),
                        ("power", "member" if self.power_member[m - 1] else "nonmember")),
                verdict="member" if self.product_member[m - 1] else "nonmember",
                payload=format_poly(self.products[m - 1]),
            ))
        return out


def power_experiment(oracle: MembershipOracle, f: Poly, b: Poly, mmax: int,
                     power_kind: str,
                     degree_cap: int = DEFAULT_DEGREE_CAP) -> ExperimentReport:
    """Probe the Mathieu property of the oracle's subspace at truncated range.

    power_kind "star" pairs with the image oracles (powers and the b-product
    taken with star_t); "ordinary" pairs with the Laguerre-span oracle.
    Powers and products are ordinary products in flow coordinates (phi_t;
    the identity for ordinary powers), mapped back by phi_{-t} for the oracle.
    Raises DegreeCapExceeded, before building it, if an intermediate power or
    product would outgrow degree_cap, and OracleDisagreement if an
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
    ctx, back = StarContext(f.n, t), StarContext(f.n, -t)
    flow_f, flow_b = phi(ctx, f), phi(ctx, b)
    # star_ev0 maps onto Q[z], which has no zero divisors: f^m is in the image
    # iff star_ev0(f) = 0, and b star f^m iff star_ev0(f) = 0 or star_ev0(b) = 0.
    f_in = star_ev0(ctx, f).is_zero()
    closed_form = (f_in, f_in or star_ev0(ctx, b).is_zero())

    power_member = []
    product_member = []
    products = []
    flow_power = Poly.const(f.n, 1)
    for m in range(1, mmax + 1):
        # phi preserves total degree, so the caps apply in flow coordinates
        _check_degree_cap(f"f^{m}", flow_power, flow_f, degree_cap)
        flow_power = flow_power * flow_f
        _check_degree_cap(f"b*f^{m}", flow_b, flow_power, degree_cap)
        flow_product = flow_b * flow_power
        product = phi(back, flow_product)
        verdicts = (oracle.contains(phi(back, flow_power)), oracle.contains(product))
        if power_kind == "star" and verdicts != closed_form:
            raise OracleDisagreement(f"oracle {oracle.kind} at m={m} gives (power, product) "
                                     f"membership {verdicts}, star_ev0 gives {closed_form}")
        power_member.append(verdicts[0])
        product_member.append(verdicts[1])
        products.append(product)

    last_miss = max((m for m, ok in enumerate(product_member, 1) if not ok), default=0)
    first_stable = last_miss + 1 if last_miss < mmax else None

    return ExperimentReport(
        oracle=oracle, f=f, b=b, mmax=mmax, power_kind=power_kind,
        power_member=tuple(power_member), product_member=tuple(product_member),
        products=tuple(products), first_stable_n=first_stable,
    )


def _check_degree_cap(name: str, a: Poly, b: Poly, degree_cap: int) -> None:
    """Refuse the product a*b before building it if its degree exceeds the cap.

    Q[x, z] has no zero divisors, so deg(a*b) = deg(a) + deg(b) unless a
    factor is zero.
    """
    zero = a.is_zero() or b.is_zero()
    degree = ZERO_DEGREE.total if zero else a.degree().total + b.degree().total
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
                            random_count: int = 20, seed: int = 0) -> Report:
    """Cross-validate the two image oracles on the monomial basis up to
    degmax plus seeded random combinations."""
    from .syntax import format_poly

    ctx = StarContext(n, Fraction(t))
    report = Report()

    def probe(p: Poly, source: str) -> None:
        via_ev0 = in_image_ev0(ctx, p)
        via_linear = in_image_linear(ctx, p)
        report.add("oracles", (("t", str(ctx.t)), ("source", source),
                               ("ev0", "member" if via_ev0 else "nonmember"),
                               ("linear", "member" if via_linear else "nonmember")),
                   via_ev0 == via_linear, format_poly(p))

    for total in range(degmax + 1):
        for xe in iter_multiindices(n, total):
            for ze in compositions(n, total - mi_sum(xe)):
                probe(Poly.monomial(n, xe, ze), "monomial")
    rng = random.Random(seed)
    for _ in range(random_count):
        probe(random_poly(rng, n, degmax), "random")
    return report


def basis_power_scan(t: Fraction, n: int, degmax: int, mmax: int,
                     b: Poly | None = None,
                     degree_cap: int = DEFAULT_DEGREE_CAP) -> list[ExperimentReport]:
    """Enumeration mode: run a power experiment for every monomial multiple
    of an x variable up to degmax as the candidate f.

    Candidate curation beyond this basis sweep is left to the caller.
    """
    oracle = MembershipOracle("image_ev0", t=Fraction(t))
    if b is None:
        b = Poly.z_var(n, 1)
    reports = []
    for total in range(degmax + 1):
        for xe in iter_multiindices(n, total):
            if mi_sum(xe) == 0:
                continue  # candidates come from the x-generated ideal
            for ze in compositions(n, total - mi_sum(xe)):
                f = Poly.monomial(n, xe, ze)
                reports.append(power_experiment(oracle, f, b, mmax, "star",
                                                degree_cap=degree_cap))
    return reports
