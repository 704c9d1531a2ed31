"""Numerical invariants of the moduli spaces.

Dimensions of the moduli space, its Hitchin base and the Prym variety, and a
typing check for the section of the Hitchin map built from a companion
matrix with full-flag parabolic structure. Rank is a prime n, the curve has
genus g >= 2, and every one of the k marked points carries a full flag.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactpoly import IdentityCheckError, NonIntegralCoefficientError, is_prime


class _ModuliFields(NamedTuple):
    n: int
    g: int
    k: int
    d: int


class ModuliParams(_ModuliFields):
    """Discrete input data: prime rank n, genus g, marked points k, degree d.
    An immutable tuple of these four fields, checked on construction."""

    __slots__ = ()

    def __new__(cls, n: int, g: int, k: int, d: int = 0):
        if not is_prime(n):
            raise ValueError(f"rank {n} is not prime")
        if g < 2:
            raise ValueError(f"genus {g} must be at least 2")
        if k < 1:
            raise ValueError(f"need at least one marked point, got {k}")
        return tuple.__new__(cls, (n, g, k, d))

    @classmethod
    def _make(cls, iterable):
        # the inherited _make (and _replace, which calls it) skips __new__
        return cls(*iterable)


def _as_int(q: Fraction, what: str) -> int:
    if q.denominator != 1:
        raise NonIntegralCoefficientError(f"{what} = {q} is not an integer")
    return q.numerator


def dim_moduli(p: ModuliParams) -> int:
    """Dimension 2(n^2-1)(g-1) + k n(n-1) of the full-flag moduli space."""
    return 2 * (p.n**2 - 1) * (p.g - 1) + p.k * p.n * (p.n - 1)


def dim_hitchin_base(p: ModuliParams) -> int:
    """Dimension of the parabolic Hitchin base; always half of dim_moduli."""
    val = _as_int(
        Fraction((p.n**2 - 1) * (p.g - 1)) + Fraction(p.n * (p.n - 1) * p.k, 2),
        "Hitchin base dimension",
    )
    if 2 * val != dim_moduli(p):
        raise IdentityCheckError(f"Hitchin base dimension {val} is not half of {dim_moduli(p)}")
    return val


def prym_dim(n: int, g: int) -> int:
    """Dimension (n-1)(g-1) of the Prym variety of the degree-n unramified
    cyclic cover."""
    return (n - 1) * (g - 1)


def hitchin_section_check(p: ModuliParams, reverse_flags: bool = False) -> bool:
    """Typing check for the companion-matrix section of the Hitchin map.

    The underlying bundle is the sum of slots K(D)^(j-n), j = 1..n, and the
    flag at each marked point drops one slot per step starting from the top
    exponent, so step i spans slots 1..n+1-i. The check verifies that
      (a) the determinant degree matches the fixed value,
      (b) each superdiagonal unit is a constant that lowers every flag step,
      (c) each characteristic coefficient lands in K^i((i-1)D) inside the
          ambient K(D)^i twist, so its residue at the marked points vanishes.
    With reverse_flags=True the flags grow from the bottom exponent instead;
    that orientation is not strongly parabolic and the check fails, which is
    kept as a deliberate negative control.
    """
    n, g, k = p.n, p.g, p.k
    kd = 2 * g - 2 + k
    slots = [(j - n) * kd for j in range(1, n + 1)]

    if sum(slots) != -(n * (n - 1) // 2) * kd:
        return False

    def step(i: int) -> set[int]:
        if reverse_flags:
            return set(range(i, n + 1))
        return set(range(1, n + 2 - i))

    for j in range(1, n):
        src, dst = j + 1, j
        if slots[dst - 1] + kd - slots[src - 1] != 0:
            return False
        for i in range(1, n + 1):
            if src in step(i) and dst not in step(i + 1):
                return False

    for j in range(1, n):
        i = n + 1 - j
        twist = slots[n - 1] + kd - slots[j - 1]
        if twist != i * kd:
            return False
        # the entry sits in the K(D)^i twist (pole allowance twist/kd at D)
        # but is drawn from H^0(K^i((i-1)D)) (pole allowance i-1), so it
        # vanishes at the marked points and the residue stays nilpotent
        ambient_pole = twist // kd
        if i - 1 >= ambient_pole:
            return False
    return True
