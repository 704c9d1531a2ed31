"""Exact arithmetic for E-polynomial bookkeeping.

Sparse bivariate polynomials over Z with unbounded integer coefficients,
rationals serialized as "num/den" strings, and cyclotomic integers Z[xi]
for xi a primitive n-th root of unity, n prime, which only the tests and
the benchmark's counters use. Everything here is exact; there is no
floating point and no machine-integer fast path.

Each class is closed under its own arithmetic: polynomials meet only
polynomials in ==, + and -, and an int enters only as a factor of *.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


class IdentityCheckError(RuntimeError):
    """An internal cross-check of the exact computation failed: a
    mathematical failure, not a usage error."""


class NonIntegralCoefficientError(IdentityCheckError):
    """A quantity expected to be a rational integer is not one."""


class LimitError(ValueError):
    """Requested brute-force size exceeds the supported budget."""


class CheckedRecord:
    """Put first among a checked named tuple's bases: _make and _replace then run __new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def parse_rat(text: str) -> Fraction:
    """Parse a "num/den" string (or bare integer string) into a Fraction."""
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rat(q: Fraction | int) -> str:
    """Render a rational as "num/den" with the denominator always explicit."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _power(base, e: int, one):
    """base ** e by left-to-right square-and-multiply: one squaring per bit
    after the leading one, one product per further set bit."""
    if not isinstance(e, int) or e < 0:
        raise ValueError(f"exponent {e!r} must be a nonnegative int")
    out = base if e else one
    for bit in bin(e)[3:]:
        out = out * out
        if bit == "1":
            out = out * base
    return out


class BivarPoly:
    """Sparse polynomial in u, v with integer coefficients.

    Terms are kept in a dict (i, j) -> nonzero int with i, j >= 0. Instances
    are treated as immutable; arithmetic returns new objects. Equality and
    serialization use the sorted term list, so representation is canonical.
    ==, + and - take another BivarPoly only; an int is accepted as a factor
    of * on either side, never as a constant to compare with or add.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int], int] = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent pair ({i}, {j})")
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r} is not an int")
            if c:
                clean[(int(i), int(j))] = c
        self._terms = clean

    @classmethod
    def constant(cls, c: int) -> BivarPoly:
        return cls({(0, 0): int(c)})

    @classmethod
    def monomial(cls, i: int, j: int, c: int = 1) -> BivarPoly:
        return cls({(i, j): c})

    def terms(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """Sorted ((i, j), coeff) pairs."""
        return tuple(sorted(self._terms.items()))

    def coeff(self, i: int, j: int) -> int:
        return self._terms.get((i, j), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def shift(self, du: int, dv: int) -> BivarPoly:
        """Multiply by the monomial u^du v^dv."""
        return BivarPoly({(i + du, j + dv): c for (i, j), c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self.terms())

    def __neg__(self) -> BivarPoly:
        return BivarPoly({k: -c for k, c in self._terms.items()})

    def __add__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc.get(k, 0) + c
        return BivarPoly(acc)

    def __sub__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return BivarPoly({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, BivarPoly):
            return NotImplemented
        acc: dict[tuple[int, int], int] = {}
        for (i, j), c in self._terms.items():
            for (a, b), e in other._terms.items():
                k = (i + a, j + b)
                acc[k] = acc.get(k, 0) + c * e
        return BivarPoly(acc)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> BivarPoly:
        return _power(self, e, BivarPoly.constant(1))

    def to_triples(self) -> list[list]:
        """Canonical form [i, j, "coeff"] sorted by exponent pair.

        Coefficients ride as decimal strings so arbitrary precision survives
        any JSON round trip bit-exactly.
        """
        return [[i, j, str(c)] for (i, j), c in self.terms()]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (i, j), c in self.terms():
            mono = "*".join(
                ([] if i == 0 else ["u" if i == 1 else f"u^{i}"])
                + ([] if j == 0 else ["v" if j == 1 else f"v^{j}"])
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"BivarPoly({self})"


ZERO = BivarPoly()
ONE = BivarPoly.constant(1)
U = BivarPoly.monomial(1, 0)
V = BivarPoly.monomial(0, 1)


def binom_deg_slice(G: int, m: int) -> BivarPoly:
    """Degree-m slice of ((1-u)(1-v))^G.

    Sum over p + q = m, 0 <= p, q <= G of (-1)^(p+q) C(G,p) C(G,q) u^p v^q;
    the zero polynomial once m > 2G.
    """
    if G < 0 or m < 0:
        raise ValueError(f"need G >= 0 and m >= 0, got ({G}, {m})")
    sign = -1 if m % 2 else 1
    terms = {}
    for p in range(max(0, m - G), min(G, m) + 1):
        terms[(p, m - p)] = sign * comb(G, p) * comb(G, m - p)
    return BivarPoly(terms)


class CycInt:
    """Element of Z[xi] for xi a primitive n-th root of unity, n prime.

    Coordinates live on the power basis 1, xi, ..., xi^(n-2); the relation
    1 + xi + ... + xi^(n-1) = 0 reduces xi^(n-1). The basis is a Z-basis, so
    representation (and the rationality test) is canonical. == and + take
    another CycInt of the same n; an int enters only as the right factor
    of *.
    """

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords):
        if not is_prime(n):
            raise ValueError(f"n = {n} is not prime")
        coords = tuple(int(c) for c in coords)
        if len(coords) != n - 1:
            raise ValueError(f"need {n - 1} coordinates for n = {n}, got {len(coords)}")
        self.n = n
        self.coords = coords

    @classmethod
    def zero(cls, n: int) -> CycInt:
        return cls(n, (0,) * (n - 1))

    @classmethod
    def from_int(cls, n: int, c: int) -> CycInt:
        return cls(n, (int(c),) + (0,) * (n - 2))

    @classmethod
    def root_power(cls, n: int, e: int) -> CycInt:
        """xi^e reduced to the power basis."""
        e %= n
        if e == n - 1:
            return cls(n, (-1,) * (n - 1))
        coords = [0] * (n - 1)
        coords[e] = 1
        return cls(n, tuple(coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def rational_value(self) -> int:
        if not self.is_rational():
            raise NonIntegralCoefficientError(f"{self!r} is not a rational integer")
        return self.coords[0]

    def exact_div(self, m: int) -> CycInt:
        if any(c % m for c in self.coords):
            raise NonIntegralCoefficientError(f"{self!r} is not divisible by {m}")
        return CycInt(self.n, tuple(c // m for c in self.coords))

    def __eq__(self, other):
        if not isinstance(other, CycInt) or other.n != self.n:
            return NotImplemented
        return self.coords == other.coords

    def __neg__(self) -> CycInt:
        return CycInt(self.n, tuple(-c for c in self.coords))

    def __add__(self, other):
        if not isinstance(other, CycInt) or other.n != self.n:
            return NotImplemented
        return CycInt(self.n, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.n, tuple(c * other for c in self.coords))
        if not isinstance(other, CycInt) or other.n != self.n:
            return NotImplemented
        n = self.n
        acc = [0] * (n - 1)
        for a, ca in enumerate(self.coords):
            if not ca:
                continue
            for b, cb in enumerate(other.coords):
                if not cb:
                    continue
                c = ca * cb
                e = a + b
                if e >= n:
                    e -= n
                if e == n - 1:
                    # xi^(n-1) = -(1 + xi + ... + xi^(n-2))
                    for t in range(n - 1):
                        acc[t] -= c
                else:
                    acc[e] += c
        return CycInt(n, tuple(acc))

    def __repr__(self) -> str:
        return f"CycInt(n={self.n}, {self.coords})"


class CycBivarPoly:
    """Sparse polynomial in u, v with CycInt coefficients, fixed prime n.

    Polynomials meet only polynomials of the same n in ==, +, - and *; a
    CycInt factor enters only through scale.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        if not is_prime(n):
            raise ValueError(f"n = {n} is not prime")
        clean: dict[tuple[int, int], CycInt] = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent pair ({i}, {j})")
            if not isinstance(c, CycInt) or c.n != n:
                raise TypeError(f"coefficient {c!r} does not live in Z[xi_{n}]")
            if not c.is_zero():
                clean[(int(i), int(j))] = c
        self.n = n
        self._terms = clean

    @classmethod
    def zero(cls, n: int) -> CycBivarPoly:
        return cls(n)

    @classmethod
    def one(cls, n: int) -> CycBivarPoly:
        return cls(n, {(0, 0): CycInt.from_int(n, 1)})

    @classmethod
    def monomial(cls, n: int, i: int, j: int, c) -> CycBivarPoly:
        return cls(n, {(i, j): c})

    def scale(self, c: CycInt) -> CycBivarPoly:
        return CycBivarPoly(self.n, {k: e * c for k, e in self._terms.items()})

    def exact_div(self, m: int) -> CycBivarPoly:
        return CycBivarPoly(self.n, {k: c.exact_div(m) for k, c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, CycBivarPoly) or other.n != self.n:
            return NotImplemented
        return self._terms == other._terms

    def __neg__(self) -> CycBivarPoly:
        return CycBivarPoly(self.n, {k: -c for k, c in self._terms.items()})

    def __add__(self, other):
        if not isinstance(other, CycBivarPoly) or other.n != self.n:
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc[k] + c if k in acc else c
        return CycBivarPoly(self.n, acc)

    def __sub__(self, other):
        if not isinstance(other, CycBivarPoly) or other.n != self.n:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CycBivarPoly) or other.n != self.n:
            return NotImplemented
        acc: dict[tuple[int, int], CycInt] = {}
        for (i, j), c in self._terms.items():
            for (a, b), e in other._terms.items():
                k = (i + a, j + b)
                prod = c * e
                acc[k] = acc[k] + prod if k in acc else prod
        return CycBivarPoly(self.n, acc)

    def __pow__(self, e: int) -> CycBivarPoly:
        return _power(self, e, CycBivarPoly.one(self.n))

    def __repr__(self) -> str:
        return f"CycBivarPoly(n={self.n}, {dict(sorted(self._terms.items()))})"
