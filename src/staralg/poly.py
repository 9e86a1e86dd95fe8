"""Exact sparse polynomials in two matched families of variables.

A polynomial lives in Q[x1..xn, z1..zn].  Terms are stored sparsely as a
mapping

    (x_exponent, z_exponent) -> coefficient

where both exponents are length-n tuples of non-negative integers and every
stored coefficient is a nonzero ``Fraction``.  The zero polynomial is the
empty mapping.  Values are immutable after construction and every operation
is a pure function, so polynomials may be shared freely between workers.

The product (like ``phi`` and ``star_ev0`` in ``deform``) sums in integers
over one common denominator and builds one Fraction per output term.
Kernels whose output is canonical by construction wrap it with the trusted
``Poly._canonical``; every dict from outside, the parser's included, goes
through ``Poly(n, terms)``, which validates and prunes it.

Variable indices in the public API are 1-based, matching the surface syntax
x1..xn / z1..zn.  Mixing polynomials of different dimension n is a hard
error, never a coercion.

``format_poly`` prints the canonical text: terms in descending graded-lex
order, coefficients as a/b, exponent 1 and coefficient 1 (except on the
constant term) elided; parse_poly(format_poly(p), p.n) == p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from operator import add
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

MultiIndex = tuple[int, ...]
TermKey = tuple[MultiIndex, MultiIndex]
Scalar = Union[int, Fraction]
SIDES = {"xi": 0, "z": 1}  # derivative kind -> position of its exponent in a TermKey


# ---------------------------------------------------------------------------
# Multi-index helpers
# ---------------------------------------------------------------------------

def mi_zero(n: int) -> MultiIndex:
    return (0,) * n


def mi_unit(n: int, i: int) -> MultiIndex:
    """Unit multi-index e_i, 1-based i."""
    if not 1 <= i <= n:
        raise IndexError(f"index {i} out of range 1..{n}")
    return tuple(1 if j == i - 1 else 0 for j in range(n))


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def mi_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    """Componentwise a - b; defined only when the result is non-negative."""
    if not mi_le(b, a):
        raise ValueError(f"multi-index subtraction {a} - {b} is negative")
    return tuple(x - y for x, y in zip(a, b))


def mi_le(a: MultiIndex, b: MultiIndex) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mi_factorial(a: MultiIndex) -> int:
    out = 1
    for k in a:
        out *= factorial(k)
    return out


def mi_binomial(a: MultiIndex, b: MultiIndex) -> int:
    """Product of componentwise binomials; 0 unless b <= a componentwise."""
    if not mi_le(b, a):
        return 0
    out = 1
    for x, y in zip(a, b):
        out *= comb(x, y)
    return out


def iter_multiindices(n: int, max_total: int) -> Iterator[MultiIndex]:
    """All multi-indices of length n with |a| <= max_total, ascending grlex."""
    if max_total < 0:
        return
    for total in range(max_total + 1):
        yield from compositions(n, total)


def compositions(n: int, total: int) -> Iterator[MultiIndex]:
    """All multi-indices of length n >= 1 with |a| == total, in grlex order."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions(n - 1, total - head):
            yield (head,) + tail


def grlex_key(key: TermKey) -> tuple[int, tuple[int, ...]]:
    """Graded-lex sort key on the concatenated exponent (x1..xn, z1..zn)."""
    xi, z = key
    cat = xi + z
    return (sum(cat), cat)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class Degree(NamedTuple):
    total: int
    xi: int
    z: int


ZERO_DEGREE = Degree(-1, -1, -1)  # degree of the zero polynomial, by convention


@dataclass(frozen=True)
class Poly:
    """Sparse exact-rational polynomial in x1..xn, z1..zn.

    ``terms`` maps (x_exponent, z_exponent) to a nonzero Fraction; the
    constructor prunes zero coefficients and validates exponent shapes, and
    the kernels that skip it through ``_canonical`` produce only canonical
    dicts, so the representation invariant holds for every value.  The
    stored mapping is a read-only view, and equal polynomials hash equal.
    """

    n: int
    terms: Mapping[TermKey, Fraction]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        clean: dict[TermKey, Fraction] = {}
        for (xe, ze), c in self.terms.items():
            if len(xe) != self.n or len(ze) != self.n:
                raise ValueError(f"exponent length mismatch for dimension {self.n}: {(xe, ze)}")
            if min(xe) < 0 or min(ze) < 0:
                raise ValueError(f"negative exponent in term {(xe, ze)}")
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[(tuple(xe), tuple(ze))] = c
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    # -- constructors -------------------------------------------------------

    @classmethod
    def _canonical(cls, n: int, terms: dict[TermKey, Fraction]) -> "Poly":
        """Wrap terms a kernel has already made canonical, skipping the checks
        in __post_init__; outside input goes through Poly(n, terms)."""
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "terms", MappingProxyType(terms))
        return p

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n, {})

    @classmethod
    def const(cls, n: int, value: Scalar) -> "Poly":
        return cls(n, {(mi_zero(n), mi_zero(n)): Fraction(value)})

    @classmethod
    def xi_var(cls, n: int, i: int) -> "Poly":
        """The variable x_i (1-based)."""
        return cls(n, {(mi_unit(n, i), mi_zero(n)): Fraction(1)})

    @classmethod
    def z_var(cls, n: int, i: int) -> "Poly":
        """The variable z_i (1-based)."""
        return cls(n, {(mi_zero(n), mi_unit(n, i)): Fraction(1)})

    @classmethod
    def sum(cls, n: int, pieces: Iterable["Poly"]) -> "Poly":
        """The sum of polynomials of dimension n (zero if there are none),
        accumulated in one dict rather than one new Poly per addition."""
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        out: dict[TermKey, Fraction] = {}
        for p in pieces:
            if p.n != n:
                raise ValueError(f"dimension mismatch: {n} vs {p.n}")
            for k, c in p.terms.items():
                out[k] = out[k] + c if k in out else c
        return cls._canonical(n, {k: c for k, c in out.items() if c})

    @classmethod
    def monomial(cls, n: int, xi_exp: MultiIndex, z_exp: MultiIndex,
                 coeff: Scalar = 1) -> "Poly":
        return cls(n, {(tuple(xi_exp), tuple(z_exp)): Fraction(coeff)})

    @classmethod
    def xi_monomial(cls, n: int, alpha: MultiIndex, coeff: Scalar = 1) -> "Poly":
        return cls.monomial(n, alpha, mi_zero(n), coeff)

    @classmethod
    def z_monomial(cls, n: int, beta: MultiIndex, coeff: Scalar = 1) -> "Poly":
        return cls.monomial(n, mi_zero(n), beta, coeff)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_z_only(self) -> bool:
        """True iff no term depends on any x variable."""
        return all(sum(xe) == 0 for xe, _ in self.terms)

    def coefficient(self, xi_exp: MultiIndex, z_exp: MultiIndex) -> Fraction:
        return self.terms.get((tuple(xi_exp), tuple(z_exp)), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coefficient(mi_zero(self.n), mi_zero(self.n))

    def degree(self) -> Degree:
        """(total, x, z) degrees; (-1, -1, -1) for the zero polynomial."""
        if not self.terms:
            return ZERO_DEGREE
        xi_deg = z_deg = total = 0
        for xe, ze in self.terms:
            sx, sz = sum(xe), sum(ze)
            xi_deg = max(xi_deg, sx)
            z_deg = max(z_deg, sz)
            total = max(total, sx + sz)
        return Degree(total, xi_deg, z_deg)

    def sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        """Terms in descending graded-lex order; the canonical iteration order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def homogeneous_part(self, total_degree: int) -> "Poly":
        """The homogeneous component of the given total degree."""
        picked = {k: c for k, c in self.terms.items()
                  if sum(k[0]) + sum(k[1]) == total_degree}
        return Poly(self.n, picked)

    # -- arithmetic ----------------------------------------------------------

    def _require_same_n(self, other: "Poly") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Poly") -> "Poly":
        return Poly.sum(self.n, (self, other))

    def __neg__(self) -> "Poly":
        return Poly._canonical(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly.sum(self.n, (self, -other))

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            scaled = {k: c * other for k, c in self.terms.items()} if other else {}
            return Poly._canonical(self.n, scaled)
        self._require_same_n(other)
        # integer numerators over the common denominators da, db of the factors
        da, db = (lcm(*(c.denominator for c in p.terms.values())) for p in (self, other))
        right = [(xb, zb, cb.numerator * (db // cb.denominator))
                 for (xb, zb), cb in other.terms.items()]
        out: dict[TermKey, int] = {}
        for (xa, za), ca in self.terms.items():
            wa = ca.numerator * (da // ca.denominator)
            for xb, zb, wb in right:
                k = (tuple(map(add, xa, xb)), tuple(map(add, za, zb)))
                out[k] = out.get(k, 0) + wa * wb
        return Poly._canonical(self.n, {k: Fraction(v, da * db) for k, v in out.items() if v})

    def __rmul__(self, other: Scalar) -> "Poly":
        return self * other

    def __truediv__(self, scalar: Scalar) -> "Poly":
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = Poly.const(self.n, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- calculus ------------------------------------------------------------

    def _d(self, side: int, i: int) -> "Poly":
        """Partial derivative in the i-th (1-based) x (side 0) or z (side 1) variable."""
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} out of range 1..{self.n}")
        j = i - 1
        out: dict[TermKey, Fraction] = {}
        for key, c in self.terms.items():
            e = key[side][j]
            if e:
                lowered = key[side][:j] + (e - 1,) + key[side][j + 1:]
                out[(lowered, key[1]) if side == 0 else (key[0], lowered)] = c * e
        return Poly._canonical(self.n, out)

    def d_z(self, i: int) -> "Poly":
        """Partial derivative with respect to z_i (1-based)."""
        return self._d(1, i)

    def d_xi(self, i: int) -> "Poly":
        """Partial derivative with respect to x_i (1-based)."""
        return self._d(0, i)

    def d_multi(self, kind: str, gamma: MultiIndex) -> "Poly":
        """Iterated partials: d^gamma in the z ('z') or x ('xi') variables."""
        if kind not in SIDES:
            raise ValueError(f"kind must be 'z' or 'xi', got {kind!r}")
        if len(gamma) != self.n:
            raise ValueError(f"multi-index length {len(gamma)} != dimension {self.n}")
        out = self
        side = SIDES[kind]
        for i, reps in enumerate(gamma, start=1):
            for _ in range(reps):
                if out.is_zero():
                    return out
                out = out._d(side, i)
        return out

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, xi_point: Sequence[Scalar] | None = None,
                 z_point: Sequence[Scalar] | None = None):
        """Substitute rational points for the x and/or z variables.

        Substituting only one family returns a Poly in the remaining family;
        substituting both returns the exact Fraction value.
        """
        points = (xi_point, z_point)
        for name, pt in zip(SIDES, points):
            if pt is not None and len(pt) != self.n:
                raise ValueError(f"{name} point length {len(pt)} != dimension {self.n}")
        out: dict[TermKey, Fraction] = {}
        for key, c in self.terms.items():
            key = list(key)
            for side, pt in enumerate(points):
                if pt is not None:
                    for e, v in zip(key[side], pt):
                        if e:
                            c *= Fraction(v) ** e
                    key[side] = mi_zero(self.n)
            k = tuple(key)
            out[k] = out.get(k, 0) + c
        result = Poly(self.n, out)
        if xi_point is not None and z_point is not None:
            return result.constant_term()
        return result

    def _divide_monomial(self, side: int, k: MultiIndex) -> "Poly":
        """Exact division by x^k (side 0) or z^k (side 1); raises ValueError
        if any term is not divisible."""
        if len(k) != self.n:
            raise ValueError(f"multi-index length {len(k)} != dimension {self.n}")
        out: dict[TermKey, Fraction] = {}
        for (xe, ze), c in self.terms.items():
            if not mi_le(k, (xe, ze)[side]):
                raise ValueError(f"term x^{xe} z^{ze} not divisible by {'xz'[side]}^{k}")
            out[(mi_sub(xe, k), ze) if side == 0 else (xe, mi_sub(ze, k))] = c
        return Poly._canonical(self.n, out)

    def divide_xi_monomial(self, k: MultiIndex) -> "Poly":
        """Exact division by x^k; raises ValueError if any term is not divisible."""
        return self._divide_monomial(0, k)

    def divide_z_monomial(self, k: MultiIndex) -> "Poly":
        """Exact division by z^k; raises ValueError if any term is not divisible."""
        return self._divide_monomial(1, k)

    def __repr__(self) -> str:
        items = ", ".join(f"x^{xe} z^{ze}: {c}" for (xe, ze), c in self.sorted_terms())
        return f"Poly(n={self.n}, {{{items}}})"


def format_poly(p: Poly) -> str:
    """Canonical text form; round-trips through parse_poly exactly."""
    if p.is_zero():
        return "0"
    names = [f"{letter}{i}" for letter in "xz" for i in range(1, p.n + 1)]
    pieces = []
    for (xe, ze), coeff in p.sorted_terms():
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, xe + ze) if e]
        num, den = coeff.numerator, coeff.denominator
        magnitude = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if magnitude != "1" or not factors:
            factors.insert(0, magnitude)
        term = "*".join(factors)
        if not pieces:
            pieces.append(term if num > 0 else f"-{term}")
        else:
            pieces.append(f"{' + ' if num > 0 else ' - '}{term}")
    return "".join(pieces)
