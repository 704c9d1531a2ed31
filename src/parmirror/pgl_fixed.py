"""Gamma-fixed loci on the quotient side and their stringy contributions.

For each nonzero n-torsion point the fixed locus is modeled on a Prym
variety times the word data; its invariant E-polynomial, the fermionic
degree shift, and the count of word orbits under simultaneous cyclic
rotation combine into the stringy total that mirrors the variant total.
"""

from __future__ import annotations

from itertools import product
from math import factorial
from typing import NamedTuple

from .exactpoly import ONE, U, V, BivarPoly, IdentityCheckError
from .kernels import words_lex
from .moduli import ModuliParams, dim_moduli, prym_dim
from .torsion import NormFiberModel, SymplecticForm, TorsionVector, check_component_action
from .cstar_fixed import LimitError

_ORBIT_MATERIALIZE_LIMIT = 2_000_000


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


def rotate_word(word: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Cyclic rotation sending slot j to slot j + r (mod n)."""
    n = len(word)
    r %= n
    return word[n - r:] + word[: n - r]


def sn_quotient_count(n: int, k: int) -> int:
    """(n!)^k / n: word tuples up to simultaneous cyclic rotation."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    total = factorial(n) ** k
    if total % n:
        raise IdentityCheckError(f"(n!)^k = {total} is not divisible by n = {n}")
    return total // n


def sn_quotient_count_bruteforce(n: int, k: int) -> int:
    """Count the rotation orbits on word tuples directly.

    Explicit orbit marking when the tuple space fits in memory, otherwise
    the exact orbit-counting average over the rotation group with a
    per-rotation scan of fixed words. Either way the scan certifies that no
    nontrivial rotation fixes any word (distinct letters kill periodicity),
    and the result is cross-checked against the counting average.
    """
    if not (2 <= n <= 5 and 1 <= k <= 4):
        raise LimitError(f"brute force supports 2 <= n <= 5, 1 <= k <= 4, got ({n}, {k})")
    words = words_lex(n)
    fixed_per_rotation = []
    for r in range(n):
        fixed = sum(1 for w in words if rotate_word(w, r) == w)
        fixed_per_rotation.append(fixed)
        if r != 0 and fixed != 0:
            raise IdentityCheckError(f"rotation {r} fixes {fixed} words")
    average, rem = divmod(sum(f**k for f in fixed_per_rotation), n)
    if rem:
        raise IdentityCheckError(f"orbit-counting sum leaves remainder {rem} mod n = {n}")
    total = factorial(n) ** k
    if total <= _ORBIT_MATERIALIZE_LIMIT:
        lookup = {w: i for i, w in enumerate(words)}
        rot = [
            tuple(lookup[rotate_word(w, r)] for w in words) for r in range(n)
        ]  # rot[r][i]: index of words[i] rotated by r
        seen: set[tuple[int, ...]] = set()
        orbits = 0
        for t in product(range(len(words)), repeat=k):
            if t in seen:
                continue
            orbits += 1
            for r in range(n):
                seen.add(tuple(rot[r][i] for i in t))
        if orbits != average:
            raise IdentityCheckError(f"orbit marking {orbits} disagrees with average {average}")
    return average


class FixedLocusInvariants(NamedTuple):
    """Everything the stringy side needs for one nonzero torsion point."""

    dim: int
    fermionic_shift: int
    orbit_count: int
    invariant_epoly: BivarPoly


def invariant_epoly(p: ModuliParams) -> BivarPoly:
    """Rotation-invariant E-polynomial of the fixed locus:
    (uv)^((n-1)(g-1)) ((1-u)(1-v))^((n-1)(g-1)) (n!)^k / n."""
    dim = prym_dim(p.n, p.g)
    return prym_epoly(p.n, p.g).shift(dim, dim) * sn_quotient_count(p.n, p.k)


def fixed_locus_invariants(p: ModuliParams) -> FixedLocusInvariants:
    return FixedLocusInvariants(
        dim=fixed_locus_dim(p.n, p.g),
        fermionic_shift=fermionic_shift(p),
        orbit_count=sn_quotient_count(p.n, p.k),
        invariant_epoly=invariant_epoly(p),
    )


def stringy_gamma_summand(
    p: ModuliParams,
    gamma: TorsionVector,
    form: SymplecticForm,
    l_gamma: int = 1,
) -> BivarPoly:
    """Contribution (uv)^F(gamma) E-invariant of one nonzero torsion point.

    Runs the component-action model for this specific gamma first; the
    returned polynomial does not depend on which gamma was chosen. A gamma
    of another (n, g) raises ValueError; a failed model check is a fault of
    the computation and raises IdentityCheckError.
    """
    if gamma.n != p.n or gamma.g != p.g:
        raise ValueError("gamma does not match the moduli parameters")
    model = NormFiberModel(n=p.n, d=p.d, gamma=gamma, l_gamma=l_gamma)
    if not check_component_action(model, form):
        raise IdentityCheckError(f"component action model fails for gamma = {gamma}")
    shift = fermionic_shift(p)
    return invariant_epoly(p).shift(shift, shift)


def stringy_gamma_sum(p: ModuliParams) -> BivarPoly:
    """Sum over the n^2g - 1 nonzero torsion points of identical summands."""
    shift = fermionic_shift(p)
    return invariant_epoly(p).shift(shift, shift) * (p.n ** (2 * p.g) - 1)
