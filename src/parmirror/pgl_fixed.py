"""Gamma-fixed loci on the quotient side and their stringy contributions.

For each nonzero n-torsion point the fixed locus is modeled on a Prym
variety times the word data; its invariant E-polynomial, the fermionic
degree shift, and the count of word orbits under simultaneous cyclic
rotation combine into the stringy total that mirrors the variant total.
"""

from __future__ import annotations

from math import factorial

from .exactpoly import ONE, U, V, BivarPoly, IdentityCheckError
from .moduli import ModuliParams, dim_moduli, prym_dim


def fixed_locus_dim(n: int, g: int) -> int:
    """Dimension 2(n-1)(g-1) of the gamma-fixed locus: twice the Prym."""
    return 2 * prym_dim(n, g)


def fermionic_shift(p: ModuliParams) -> int:
    """Half the codimension of the fixed locus: n(n-1)(g - 1 + k/2)."""
    val = p.n * (p.n - 1) * (2 * p.g - 2 + p.k) // 2
    codim = dim_moduli(p) - fixed_locus_dim(p.n, p.g)
    if 2 * val != codim:
        raise IdentityCheckError(f"fermionic shift {val} is not half the codimension {codim}")
    return val


def prym_epoly(n: int, g: int) -> BivarPoly:
    """E-polynomial ((1-u)(1-v))^((n-1)(g-1)) of the Prym factor."""
    return ((ONE - U) * (ONE - V)) ** prym_dim(n, g)


def sn_quotient_count(n: int, k: int) -> int:
    """(n!)^k / n: word tuples up to simultaneous cyclic rotation."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    total = factorial(n) ** k
    if total % n:
        raise IdentityCheckError(f"(n!)^k = {total} is not divisible by n = {n}")
    return total // n


def invariant_epoly(p: ModuliParams) -> BivarPoly:
    """Rotation-invariant E-polynomial of the fixed locus:
    (uv)^((n-1)(g-1)) ((1-u)(1-v))^((n-1)(g-1)) (n!)^k / n."""
    dim = prym_dim(p.n, p.g)
    return prym_epoly(p.n, p.g).shift(dim, dim) * sn_quotient_count(p.n, p.k)


def stringy_gamma_sum(p: ModuliParams) -> BivarPoly:
    """Sum over the n^2g - 1 nonzero torsion points of identical summands."""
    shift = fermionic_shift(p)
    return invariant_epoly(p).shift(shift, shift) * (p.n ** (2 * p.g) - 1)
