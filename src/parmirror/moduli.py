"""Numerical invariants of the moduli spaces.

Dimensions, spectral-cover degrees and genera, parabolic slopes, and a
typing check for the section of the Hitchin map built from a companion
matrix with full-flag parabolic structure. Rank is a prime n, the curve has
genus g >= 2, and every one of the k marked points carries a full flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import IdentityCheckError, NonIntegralCoefficientError, is_prime


@dataclass(frozen=True)
class ModuliParams:
    """Discrete input data: prime rank n, genus g, marked points k, degree d."""

    n: int
    g: int
    k: int
    d: int = 0

    def __post_init__(self):
        if not is_prime(self.n):
            raise ValueError(f"rank {self.n} is not prime")
        if self.g < 2:
            raise ValueError(f"genus {self.g} must be at least 2")
        if self.k < 1:
            raise ValueError(f"need at least one marked point, got {self.k}")


@dataclass(frozen=True)
class ParabolicSummary:
    """Rank, degree and total weight of a parabolic bundle, for slopes."""

    rank: int
    degree: int
    weight_total: Fraction

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank {self.rank} must be positive")
        if self.weight_total < 0:
            raise ValueError(f"total weight {self.weight_total} must be nonnegative")


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


def spectral_fiber_degree(p: ModuliParams) -> int:
    """Degree d + n(n-1)(g - 1 + k/2) of the line bundles on the spectral
    cover that parametrize a generic Hitchin fibre."""
    return _as_int(
        p.d + p.n * (p.n - 1) * (Fraction(2 * p.g - 2 + p.k, 2)),
        "spectral fibre degree",
    )


def cover_genus(n: int, g: int) -> int:
    """Genus n(g-1) + 1 of the degree-n unramified cyclic cover."""
    return n * (g - 1) + 1


def prym_dim(n: int, g: int) -> int:
    """Dimension (n-1)(g-1) of the Prym variety of that cover."""
    return (n - 1) * (g - 1)


def par_slope(s: ParabolicSummary) -> Fraction:
    """Parabolic slope (degree + total weight) / rank."""
    return Fraction(s.degree + s.weight_total, s.rank)


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
