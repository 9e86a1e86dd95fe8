"""Exact sparse polynomials in two matched families of variables.

A polynomial lives in Q[x1..xn, z1..zn] and is stored once, in integers:
``nums`` maps a flat exponent key, the 2n-tuple (x1..xn, z1..zn), to a
nonzero integer numerator over one positive denominator ``den``, with
gcd(den, *nums) = 1 (den = 1 for zero).  Values are immutable and every
operation is a pure function, so polynomials may be shared freely.

Every kernel, here and in the modules above, sums in integers over one
common denominator and hands its output to the trusted ``Poly._make``, which
drops zeros and divides out the gcd; no Fraction is built per term.
``Poly(n, terms)`` validates and prunes a mapping from outside.  ``terms``
is the public view, derived lazily: (x_exponent, z_exponent) -> Fraction.

Variable indices in the public API are 1-based, matching the surface syntax
x1..xn / z1..zn.  Mixing polynomials of different dimension n is a hard
error, never a coercion.

``format_poly`` prints the canonical text: terms in descending graded-lex
order (``grlex_key``), coefficients as a/b, exponent 1 and coefficient 1
(except on the constant term) elided; parse_poly(format_poly(p), p.n) == p.
A coefficient longer than sys.get_int_max_str_digits() digits cannot be
printed; it raises DigitLimitExceeded.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, prod
from operator import add, sub
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

MultiIndex = tuple[int, ...]
TermKey = tuple[MultiIndex, MultiIndex]
Scalar = Union[int, Fraction]
SIDES = {"xi": 0, "z": 1}  # derivative kind -> which half of a flat key holds its exponent


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
    return prod(map(factorial, a))


def mi_binomial(a: MultiIndex, b: MultiIndex) -> int:
    """Product of componentwise binomials; 0 unless b <= a componentwise."""
    return prod(map(comb, a, b))  # comb(x, y) = 0 for y > x


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


def grlex_key(key: MultiIndex) -> tuple[int, MultiIndex]:
    """Graded-lex sort key on a flat key, the concatenated exponent (x1..xn, z1..zn)."""
    return (sum(key), key)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class Degree(NamedTuple):
    total: int
    xi: int
    z: int


ZERO_DEGREE = Degree(-1, -1, -1)  # degree of the zero polynomial, by convention


def _flat_key(n: int, xe: MultiIndex, ze: MultiIndex) -> MultiIndex:
    """The flat key of an exponent pair from outside, validated."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if len(xe) != n or len(ze) != n:
        raise ValueError(f"exponent length mismatch for dimension {n}: {(xe, ze)}")
    if min(xe) < 0 or min(ze) < 0:
        raise ValueError(f"negative exponent in term {(xe, ze)}")
    return (*xe, *ze)


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class Poly:
    """Sparse exact-rational polynomial in x1..xn, z1..zn, stored as reduced
    integer numerators ``nums`` on flat keys over ``den`` (module docstring)."""

    n: int
    nums: Mapping[MultiIndex, int]
    den: int

    def __init__(self, n: int, terms: Mapping[TermKey, Scalar]) -> None:
        """Validate and prune a mapping (x_exponent, z_exponent) -> rational."""
        p = Poly.sum(n, (Poly.monomial(n, xe, ze, c) for (xe, ze), c in terms.items()))
        for name in ("n", "nums", "den"):
            object.__setattr__(self, name, getattr(p, name))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Poly) and self.n == other.n and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.n, self.den, frozenset(self.nums.items())))

    def __reduce__(self):
        # the read-only view cannot be pickled; rebuild it from a plain dict
        return (Poly._make, (self.n, dict(self.nums), self.den))

    @property
    def terms(self) -> Mapping[TermKey, Fraction]:
        """Read-only view: (x_exponent, z_exponent) -> nonzero Fraction."""
        return MappingProxyType(_Terms(self))

    # -- constructors -------------------------------------------------------

    @classmethod
    def _make(cls, n: int, nums: dict[MultiIndex, int], den: int = 1) -> "Poly":
        """Trusted: integer numerators on flat keys over den > 0, reduced here.
        The caller hands nums over; outside input goes through Poly(n, terms)."""
        if 0 in nums.values():
            nums = {k: v for k, v in nums.items() if v}
        g = gcd(den, *nums.values()) if den != 1 else 1
        if g != 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
        p = object.__new__(cls)
        for name, value in (("n", n), ("nums", MappingProxyType(nums)), ("den", den)):
            object.__setattr__(p, name, value)
        return p

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n, {})

    @classmethod
    def const(cls, n: int, value: Scalar) -> "Poly":
        return cls.monomial(n, mi_zero(n), mi_zero(n), value)

    @classmethod
    def xi_var(cls, n: int, i: int) -> "Poly":
        """The variable x_i (1-based)."""
        return cls.monomial(n, mi_unit(n, i), mi_zero(n))

    @classmethod
    def z_var(cls, n: int, i: int) -> "Poly":
        """The variable z_i (1-based)."""
        return cls.monomial(n, mi_zero(n), mi_unit(n, i))

    @classmethod
    def sum(cls, n: int, pieces: Iterable["Poly"]) -> "Poly":
        """The sum of polynomials of dimension n (zero if there are none), in
        one dict over a common denominator grown only when a piece needs it."""
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        out: dict[MultiIndex, int] = {}
        den = 1  # the lcm of the denominators so far
        for p in pieces:
            if p.n != n:
                raise ValueError(f"dimension mismatch: {n} vs {p.n}")
            if den % p.den:
                grow = p.den // gcd(den, p.den)
                den, out = den * grow, {k: v * grow for k, v in out.items()}
            scale = den // p.den
            for k, v in p.nums.items():
                out[k] = out.get(k, 0) + v * scale
        return cls._make(n, out, den)

    @classmethod
    def monomial(cls, n: int, xi_exp: MultiIndex, z_exp: MultiIndex,
                 coeff: Scalar = 1) -> "Poly":
        c = coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff)
        return cls._make(n, {_flat_key(n, xi_exp, z_exp): c.numerator}, c.denominator)

    @classmethod
    def xi_monomial(cls, n: int, alpha: MultiIndex, coeff: Scalar = 1) -> "Poly":
        return cls.monomial(n, alpha, mi_zero(n), coeff)

    @classmethod
    def z_monomial(cls, n: int, beta: MultiIndex, coeff: Scalar = 1) -> "Poly":
        return cls.monomial(n, mi_zero(n), beta, coeff)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_z_only(self) -> bool:
        """True iff no term depends on any x variable."""
        return not any(any(k[:self.n]) for k in self.nums)

    def coefficient(self, xi_exp: MultiIndex, z_exp: MultiIndex) -> Fraction:
        fits = len(xi_exp) == len(z_exp) == self.n
        return Fraction(self.nums.get((*xi_exp, *z_exp), 0) if fits else 0, self.den)

    def degree(self) -> Degree:
        """(total, x, z) degrees; (-1, -1, -1) for the zero polynomial."""
        if not self.nums:
            return ZERO_DEGREE
        sides = [(sum(k[:self.n]), sum(k[self.n:])) for k in self.nums]
        return Degree(max(map(sum, sides)), max(x for x, _ in sides), max(z for _, z in sides))

    def sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        """Terms in descending graded-lex order; the canonical iteration order."""
        return [((k[:self.n], k[self.n:]), Fraction(self.nums[k], self.den))
                for k in sorted(self.nums, key=grlex_key, reverse=True)]

    def homogeneous_part(self, total_degree: int) -> "Poly":
        """The homogeneous component of the given total degree."""
        return Poly._make(self.n, {k: v for k, v in self.nums.items() if sum(k) == total_degree},
                          self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly.sum(self.n, (self, other))

    def __neg__(self) -> "Poly":
        return Poly._make(self.n, {k: -v for k, v in self.nums.items()}, self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly.sum(self.n, (self, -other))

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly._make(self.n, {k: v * other.numerator for k, v in self.nums.items()},
                              self.den * other.denominator)
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        right = list(other.nums.items())
        out: dict[MultiIndex, int] = {}
        for ka, va in self.nums.items():
            for kb, vb in right:
                k = tuple(map(add, ka, kb))
                out[k] = out.get(k, 0) + va * vb
        return Poly._make(self.n, out, self.den * other.den)

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
        """Partial derivative in x_i (side 0) or z_i (side 1): flat position side * n + i - 1."""
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} out of range 1..{self.n}")
        j = side * self.n + i - 1
        out = {k[:j] + (k[j] - 1,) + k[j + 1:]: v * k[j] for k, v in self.nums.items() if k[j]}
        return Poly._make(self.n, out, self.den)

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
        substituting both returns the exact Fraction value.  A value p/q at a
        flat position of largest exponent d adds p^e q^(d - e) over q^d.
        """
        n = self.n
        values: dict[int, Fraction] = {}  # flat position -> value
        for side, (name, pt) in enumerate(zip(SIDES, (xi_point, z_point))):
            if pt is not None and len(pt) != n:
                raise ValueError(f"{name} point length {len(pt)} != dimension {n}")
            values.update((side * n + j, Fraction(v)) for j, v in enumerate(pt or ()))
        depth = {j: max((k[j] for k in self.nums), default=0) for j in values}
        den = self.den * prod(v.denominator ** depth[j] for j, v in values.items())
        out: dict[MultiIndex, int] = {}
        for k, w in self.nums.items():
            for j, v in values.items():
                w *= v.numerator ** k[j] * v.denominator ** (depth[j] - k[j])
            key = tuple(0 if j in values else e for j, e in enumerate(k))
            out[key] = out.get(key, 0) + w
        result = Poly._make(n, out, den)
        return result.coefficient(mi_zero(n), mi_zero(n)) if len(values) == 2 * n else result

    def _divide_monomial(self, side: int, k: MultiIndex) -> "Poly":
        """Exact division by x^k (side 0) or z^k (side 1); ValueError unless every term divides."""
        n = self.n
        if len(k) != n:
            raise ValueError(f"multi-index length {len(k)} != dimension {n}")
        shift = (0,) * (side * n) + tuple(k) + (0,) * ((1 - side) * n)
        out: dict[MultiIndex, int] = {}
        for key, v in self.nums.items():
            if not mi_le(shift, key):
                raise ValueError(f"term x^{key[:n]} z^{key[n:]} not divisible by {'xz'[side]}^{k}")
            out[tuple(map(sub, key, shift))] = v
        return Poly._make(n, out, self.den)

    def divide_xi_monomial(self, k: MultiIndex) -> "Poly":
        """Exact division by x^k; raises ValueError if any term is not divisible."""
        return self._divide_monomial(0, k)

    def divide_z_monomial(self, k: MultiIndex) -> "Poly":
        """Exact division by z^k; raises ValueError if any term is not divisible."""
        return self._divide_monomial(1, k)

    def __repr__(self) -> str:
        items = ", ".join(f"x^{xe} z^{ze}: {c}" for (xe, ze), c in self.sorted_terms())
        return f"Poly(n={self.n}, {{{items}}})"


class _Terms(Mapping):
    """The Fraction view behind ``Poly.terms``, read off nums and den per lookup."""

    def __init__(self, p: Poly) -> None:
        self._p = p

    def __len__(self) -> int:
        return len(self._p.nums)

    def __iter__(self) -> Iterator[TermKey]:
        return ((k[:self._p.n], k[self._p.n:]) for k in self._p.nums)

    def __getitem__(self, key: TermKey) -> Fraction:
        xe, ze = key
        if len(xe) != self._p.n or len(ze) != self._p.n or (*xe, *ze) not in self._p.nums:
            raise KeyError(key)
        return Fraction(self._p.nums[(*xe, *ze)], self._p.den)


@cache
def _variable_names(n: int) -> tuple[str, ...]:
    """x1..xn, z1..zn: the variable at each position of a flat key."""
    return tuple(f"{letter}{i}" for letter in "xz" for i in range(1, n + 1))


class DigitLimitExceeded(ValueError):
    """A number has more digits than Python converts to text."""

    def __init__(self, what: str) -> None:
        super().__init__(f"{what} has more than {sys.get_int_max_str_digits()} digits, "
                         "the limit for printing an integer")


def format_poly(p: Poly) -> str:
    """Canonical text form; round-trips through parse_poly exactly."""
    if p.is_zero():
        return "0"
    names = _variable_names(p.n)
    pieces = []
    for key in sorted(p.nums, key=grlex_key, reverse=True):
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, key) if e]
        num = p.nums[key]
        g = gcd(num, p.den)
        try:
            magnitude = str(abs(num) // g) if g == p.den else f"{abs(num) // g}/{p.den // g}"
        except ValueError:  # more digits than str() of an int allows
            raise DigitLimitExceeded("a coefficient") from None
        if magnitude != "1" or not factors:
            factors.insert(0, magnitude)
        sign = (" + " if num > 0 else " - ") if pieces else ("" if num > 0 else "-")
        pieces.append(sign + "*".join(factors))
    return "".join(pieces)
