"""Formulas and direct sums that only the tests use.

Each is either a reference the library's faster path is checked against
(one component's variant E-polynomial, the character sum over S_n, the
discarded filter terms, the root-of-unity filter, coordinates in a basis)
or a textbook invariant the moduli tests check by hand (spectral fibre
degree, cover genus, parabolic slope). None of them runs on a CLI path.
"""

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from parmirror import kernels
from parmirror.cstar_fixed import count_S
from parmirror.exactpoly import U, V, ZERO, BivarPoly, CycInt, binom_deg_slice, is_prime
from parmirror.moduli import ModuliParams, _as_int
from parmirror.torsion import TorsionVector, _invert_mod


def component_variant_epoly(p: ModuliParams, c: kernels.CensusRow) -> BivarPoly:
    """Variant E-polynomial contribution of one component:
    (n^2g - 1) times the product of the degree-m_j slices of
    ((1-u)(1-v))^(g-1); zero once any m_j exceeds 2g-2."""
    poly = BivarPoly.constant(p.n ** (2 * p.g) - 1)
    for mj in c.m:
        poly = poly * binom_deg_slice(p.g - 1, mj)
    return poly


def descent_character_sum(n: int, l: int) -> CycInt:
    """Sum over S_n of xi^(l * sigma(word)); zero for every l not divisible
    by n because each residue class of sigma has exactly (n-1)! words."""
    acc = CycInt.zero(n)
    for w in kernels.words_lex(n):
        acc = acc + CycInt.root_power(n, (l * kernels.sigma(w)) % n)
    return acc


def cyclotomic_discarded_term(p: ModuliParams) -> BivarPoly:
    """Closed form of each discarded l != 0 filter term:
    ((1-u^n)(1-v^n)/((1-u)(1-v)))^(g-1) * (n*count_S(n) - n!)^k.
    The scalar factor vanishes, so this is the zero polynomial."""
    n, g, k = p.n, p.g, p.k
    geom_u = sum((U**i for i in range(n)), ZERO)
    geom_v = sum((V**i for i in range(n)), ZERO)
    weight = (n * count_S(n) - factorial(n)) ** k
    return (geom_u * geom_v) ** (g - 1) * weight


def root_of_unity_filter(n: int, nu: int) -> int:
    """Sum of xi^(l*nu) over l = 0..n-1: n when n | nu, else 0."""
    if not is_prime(n):
        raise ValueError(f"n = {n} is not prime")
    return n if nu % n == 0 else 0


def coordinates_in_basis(v: TorsionVector, basis) -> tuple[int, ...]:
    """Coefficients c with v = sum c_i basis_i, mod n."""
    basis = tuple(basis)
    n = v.n
    binv = _invert_mod([b.coords for b in basis], n)
    # v = c . B (vectors as rows), so c = v . B^(-1)
    size = len(basis)
    return tuple(
        sum(v.coords[i] * binv[i][j] for i in range(size)) % n for j in range(size)
    )


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


class _SummaryFields(NamedTuple):
    rank: int
    degree: int
    weight_total: Fraction


class ParabolicSummary(_SummaryFields):
    """Rank, degree and total weight of a parabolic bundle, for slopes."""

    __slots__ = ()

    def __new__(cls, rank: int, degree: int, weight_total: Fraction):
        if rank < 1:
            raise ValueError(f"rank {rank} must be positive")
        if weight_total < 0:
            raise ValueError(f"total weight {weight_total} must be nonnegative")
        return tuple.__new__(cls, (rank, degree, weight_total))


def par_slope(s: ParabolicSummary) -> Fraction:
    """Parabolic slope (degree + total weight) / rank."""
    return Fraction(s.degree + s.weight_total, s.rank)
