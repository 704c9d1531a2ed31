"""Formulas and direct sums that only the tests use.

Each is either a reference the library's faster path is checked against
(one component's variant E-polynomial, a census's lattice uses counted
over its word tuples, one residue's lattice searched on its own, the
twist-vector check and box counts walked entry by entry, the character sum
over S_n, the discarded filter terms, the filtered total in the cyclotomic
ring, the root-of-unity filter, coordinates in a basis)
or a textbook invariant the moduli tests check by hand (spectral fibre
degree, cover genus, parabolic slope), or an observed closed form the
census is compared against (its component count). None of them runs on a
CLI path.
"""

from collections import Counter
from fractions import Fraction
from math import factorial
from operator import floordiv, sub
from typing import NamedTuple

from parmirror import cstar_fixed, kernels
from parmirror.cstar_fixed import count_S
from parmirror.exactpoly import (
    U,
    V,
    ZERO,
    BivarPoly,
    CycBivarPoly,
    CycInt,
    IdentityCheckError,
    binom_deg_slice,
    cyc_project,
    is_prime,
)
from parmirror.moduli import ModuliParams, _as_int, dim_hitchin_base
from parmirror.torsion import TorsionVector, _invert_mod


def component_variant_epoly(p: ModuliParams, c: kernels.CensusRow) -> BivarPoly:
    """Variant E-polynomial contribution of one component:
    (n^2g - 1) times the product of the degree-m_j slices of
    ((1-u)(1-v))^(g-1); zero once any m_j exceeds 2g-2."""
    poly = BivarPoly.constant(p.n ** (2 * p.g) - 1)
    for mj in c.m:
        poly = poly * binom_deg_slice(p.g - 1, mj)
    return poly


def component_count_formula(p: ModuliParams) -> int:
    """Number of census components, from closed forms fitted to census
    runs, not derived: (2g-1)^(n-1) n^(n-2) at k = 1 (box size times
    Cayley's count), 2^(k-2)(4g-3+k) at n = 2, and 72g^2-36g+5 and 432g^2+6
    at n = 3 with k = 2 and 3. No weights, seed or degree enter. Other
    (n, k) raise ValueError."""
    n, g, k = p.n, p.g, p.k
    if k == 1:
        return (2 * g - 1) ** (n - 1) * n ** (n - 2)
    if n == 2:
        return 2 ** (k - 2) * (4 * g - 3 + k)
    if n == 3 and k == 2:
        return 72 * g * g - 36 * g + 5
    if n == 3 and k == 3:
        return 432 * g * g + 6
    raise ValueError(f"no component count formula for n = {n}, k = {k}")


def census_uses(groups) -> list[tuple[tuple, int]]:
    """Each distinct lattice of the CensusGroups, by identity, with the
    number of groups that share it, in order of first use: Census.uses,
    up to order, derived by one walk over the word tuples."""
    uses: dict[int, list] = {}
    for group in groups:
        entry = uses.get(id(group.lattice))
        if entry is None:
            uses[id(group.lattice)] = [group.lattice, 1]
        else:
            entry[1] += 1
    return [(lattice, count) for lattice, count in uses.values()]


def residue_lattice(n, coef, Q, residue):
    """The lattice of one residue, searched on its own: every m >= 0 with
    coef[l].m <= Q[l] for all l whose degree offset sum_j (j+1) m_j is
    congruent to -residue mod n, in increasing m order, as pairs
    (m, (residue + offset) // n); and their loads, the list [coef[l].m for
    each l] of each point, in the same order."""
    out: list = []
    loads: list = []
    _residue_dfs(n, n - 1, [*zip(*coef)], Q, residue, 0, [0] * (n - 1), [0] * (n - 1), out, loads)
    return out, loads


def _residue_dfs(n, nm, cols, Q, num, j, m, spent, out, loads):
    """Append the points below the prefix m[:j] and their loads; num is the
    residue plus the prefix's degree offset. The last coordinate enters the
    congruence with coefficient n - 1, a unit mod n, so exactly one residue
    class of its values passes: it is stepped from num mod n in strides of
    n."""
    col = cols[j]
    cap = min(map(floordiv, map(sub, Q, spent), col))
    if j == nm - 1:
        for val in range(num % n, cap + 1, n):
            m[j] = val
            out.append((tuple(m), (num + nm * val) // n))
            loads.append([x + c * val for x, c in zip(spent, col)])
        m[j] = 0
        return
    for val in range(cap + 1):
        m[j] = val
        nxt = spent if val == 0 else [x + c * val for x, c in zip(spent, col)]
        _residue_dfs(n, nm, cols, Q, num + (j + 1) * val, j + 1, m, nxt, out, loads)
    m[j] = 0


def check_every_entry(n: int, census) -> None:
    """The twist-vector check walked over every entry of every lattice of
    the census: IdentityCheckError unless each m has n - 1 entries, none
    negative."""
    for lattice, _ in census.uses:
        for m, _ in lattice:
            if len(m) != n - 1:
                raise IdentityCheckError("m must have length n-1")
            if min(m, default=0) < 0:
                raise IdentityCheckError(f"negative twist jump in {m}")


def entry_box_counts(census, top: int) -> Counter:
    """Census.box_counts walked over every entry: the row count per twist
    vector m with every entry at most top."""
    counts: Counter = Counter()
    for lattice, uses in census.uses:
        for m, _ in lattice:
            if max(m) <= top:
                counts[m] += uses
    return counts


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


def _root_shift_product(n: int, g: int, l: int) -> CycBivarPoly:
    """Product over j = 1..n-1 of (1 - xi^(jl) u)^(g-1) (1 - xi^(jl) v)^(g-1)."""
    poly = CycBivarPoly.one(n)
    for j in range(1, n):
        r = CycInt.root_power(n, (j * l) % n)
        fu = CycBivarPoly(n, {(0, 0): CycInt.from_int(n, 1), (1, 0): -r})
        fv = CycBivarPoly(n, {(0, 0): CycInt.from_int(n, 1), (0, 1): -r})
        poly = poly * fu ** (g - 1) * fv ** (g - 1)
    return poly


def ring_filtered_total(p: ModuliParams) -> BivarPoly:
    """The root-of-unity filtered variant total in Z[xi][u, v].

    Sums xi^(l * e) over every word tuple and every l = 0..n-1, where a
    tuple's filter exponent e is d + (its sigma sum) mod n, less k for
    n = 2; the m sums are folded into the per-l product of
    (1 - xi^(jl) u)^(g-1) (1 - xi^(jl) v)^(g-1). Then divides by n inside
    the ring, projects to Z[u, v], and applies the (n^2g - 1)(uv)^(dim/2)
    prefactor.
    """
    n, g, k, d = p.n, p.g, p.k, p.d
    sums = cstar_fixed._sigma_sum_residues(n, k)
    offset = d - k if n == 2 else d
    total = CycBivarPoly.zero(n)
    for l in range(n):
        scal = CycInt.zero(n)
        for r, cnt in enumerate(sums):
            scal = scal + CycInt.root_power(n, (l * (offset + r)) % n) * cnt
        if not scal.is_zero():
            total = total + _root_shift_product(n, g, l).scale(scal)
    proj = cyc_project(total.exact_div(n))
    h = dim_hitchin_base(p)
    return (proj * (n ** (2 * g) - 1)).shift(h, h)


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
