"""Census of scaling-action fixed components of type (1, ..., 1) and the
three equal ways to total their variant E-polynomials.

A component is labeled by one permutation word per marked point plus a
vector m of twist jumps. The census filters by the degree congruence and by
strict parabolic stability; the variant total over the census, the closed
product formula, and the root-of-unity filtered sum agree exactly for
generic weights. Also houses the descent-statistics counting lemma that
makes the filtered sum collapse.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import product
from math import factorial
from typing import NamedTuple

from . import kernels
from .chambers import (
    NonGenericWeightsError,
    WeightSystem,
    integer_weights,
    is_generic,
)
from .exactpoly import (
    ONE,
    U,
    V,
    ZERO,
    BivarPoly,
    CycBivarPoly,
    CycInt,
    IdentityCheckError,
    binom_deg_slice,
    cyc_project,
)
from .moduli import ModuliParams, dim_hitchin_base


class LimitError(ValueError):
    """Requested brute-force size exceeds the supported budget."""


class NonIntegralDegreeError(ValueError):
    """The degree congruence fails, so the component degree is not an integer."""


@dataclass(frozen=True)
class PermWord:
    """A permutation of 1..n as a letter tuple."""

    letters: tuple[int, ...]

    def __post_init__(self):
        n = len(self.letters)
        if sorted(self.letters) != list(range(1, n + 1)):
            raise ValueError(f"{self.letters} is not a permutation word of 1..{n}")

    @classmethod
    def from_string(cls, text: str) -> PermWord:
        if "." in text:
            return cls(tuple(int(part) for part in text.split(".")))
        return cls(tuple(int(ch) for ch in text))

    @property
    def n(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(a) for a in self.letters)
        return ".".join(str(a) for a in self.letters)


@dataclass(frozen=True)
class PermTuple:
    """One permutation word per marked point."""

    words: tuple[PermWord, ...]

    def __post_init__(self):
        if not self.words:
            raise ValueError("need at least one word")
        n = self.words[0].n
        if any(w.n != n for w in self.words):
            raise ValueError("words have mixed sizes")

    @classmethod
    def from_strings(cls, *texts: str) -> PermTuple:
        return cls(tuple(PermWord.from_string(t) for t in texts))

    @property
    def n(self) -> int:
        return self.words[0].n

    @property
    def k(self) -> int:
        return len(self.words)

    @cached_property
    def descents(self) -> tuple[int, ...]:
        """s_j: how many of the words step down at position j."""
        n = self.n
        s = [0] * (n - 1)
        for w in self.words:
            for i in range(n - 1):
                if w.letters[i] > w.letters[i + 1]:
                    s[i] += 1
        return tuple(s)

    @cached_property
    def text(self) -> str:
        """The words joined by "|", as written in the census CSV."""
        return "|".join(str(w) for w in self.words)

    def __str__(self) -> str:
        return self.text


def sigma(word) -> int:
    """Descent statistic: sum of the positions where the word steps down."""
    letters = word.letters if isinstance(word, PermWord) else word
    return sum(i + 1 for i in range(len(letters) - 1) if letters[i] > letters[i + 1])


class _ComponentFields(NamedTuple):
    words: PermTuple
    m: tuple[int, ...]
    s: tuple[int, ...]
    d_n: int


class ComponentType11(_ComponentFields):
    """A fixed component: words, twist jumps m, descent counts s, and the
    common degree d_n of its line-bundle factors. An immutable tuple of
    these four fields, checked on construction."""

    __slots__ = ()

    def __new__(cls, words: PermTuple, m, s, d_n: int):
        desc = words.descents
        if len(s) != len(desc):
            raise ValueError("m and s must have length n-1")
        cls.check_twists(m, len(desc))
        cls.check_descents(words, s)
        return tuple.__new__(cls, (words, m, s, d_n))

    @staticmethod
    def check_twists(m, length: int) -> None:
        if len(m) != length:
            raise ValueError("m and s must have length n-1")
        if min(m, default=0) < 0:
            raise ValueError(f"negative twist jump in {m}")

    @staticmethod
    def check_descents(words: PermTuple, s) -> None:
        if s != words.descents:
            raise ValueError(f"s = {s} does not match the words {words}")

    @classmethod
    def _make(cls, iterable):
        # the inherited _make (and _replace, which calls it) skips __new__
        return cls(*iterable)


def degree_constraint(p: ModuliParams, t: PermTuple, m) -> bool:
    """Degree congruence for a type-(1,...,1) component to exist."""
    s = t.descents
    if p.n == 2:
        return (p.d + m[0] + s[0] - p.k) % 2 == 0
    total = sum((j + 1) * (m[j] + s[j]) for j in range(p.n - 1))
    return (p.d + total) % p.n == 0


def component_dn(p: ModuliParams, t: PermTuple, m) -> int:
    """Common factor degree d_n with
    n*d_n = d + sum j(m_j + s_j) - n(n-1)(g - 1 + k/2)."""
    s = t.descents
    num = p.d + sum((j + 1) * (m[j] + s[j]) for j in range(p.n - 1))
    num -= p.n * (p.n - 1) * (2 * p.g - 2 + p.k) // 2
    if num % p.n:
        raise NonIntegralDegreeError(f"degree congruence fails for m={tuple(m)}, t={t}")
    return num // p.n


def stability_check(p: ModuliParams, w: WeightSystem, t: PermTuple, m) -> bool:
    """Strict stability of the component data against every destabilizing
    index l = 2..n, evaluated in exact rational arithmetic. Reference
    implementation; the kernels must agree with it."""
    n, g, k = p.n, p.g, p.k
    s = t.descents
    for l in range(2, n + 1):
        coef = [(n - l + 1) * j if j <= l - 1 else (l - 1) * (n - j) for j in range(1, n)]
        lhs = sum(c * (mj + sj) for c, mj, sj in zip(coef, m, s))
        rhs = Fraction((n - l + 1) * (l - 1) * n * (2 * g - 2 + k), 2)
        for row, word in zip(w.alpha, t.words):
            rhs += (n - l + 1) * sum(row) - n * sum(
                row[word.letters[j] - 1] for j in range(l - 1, n)
            )
        if not lhs < rhs:
            return False
    return True


class Components:
    """The census as a sized, re-iterable sequence of ComponentType11, in
    canonical (word tuple, m) order.

    Holds the kernel's Census, grouped by word tuple, and one PermTuple per
    group; each component is built only while iterating, so memory does not
    grow with the number of components. enumerate_components has already
    run every ComponentType11 check on the groups and lattice points the
    rows are made of.
    """

    __slots__ = ("census", "tuples")

    def __init__(self, census: kernels.Census, tuples: list[PermTuple]):
        self.census = census
        self.tuples = tuples

    def __len__(self) -> int:
        return len(self.census)

    def __iter__(self):
        return map(partial(tuple.__new__, ComponentType11), self.census.rows(self.tuples))


def enumerate_components(p: ModuliParams, w: WeightSystem) -> Components:
    """All type-(1,...,1) fixed components for generic weights, in canonical
    (word tuple, m) order.

    Every row is checked as ComponentType11 checks it, at the level where
    its fields live: s against the descents of its group's PermTuple once
    per word tuple, and the length and signs of m once per shared lattice
    point.
    """
    if not is_generic(w, p):
        raise NonGenericWeightsError(f"weights sit on a wall for {p}")
    den, wnum = integer_weights(w)
    census = kernels.enumerate_census(p.n, p.g, p.k, p.d, wnum, den)
    words = [PermWord(letters) for letters in kernels.words_lex(p.n)]
    tuples = []
    for group in census.groups:
        t = PermTuple(tuple(words[i] for i in group.t_idx))
        ComponentType11.check_descents(t, group.s)
        tuples.append(t)
    for m, _ in census.points():
        ComponentType11.check_twists(m, p.n - 1)
    return Components(census, tuples)


def component_variant_epoly(p: ModuliParams, c: ComponentType11) -> BivarPoly:
    """Variant E-polynomial contribution of one component:
    (n^2g - 1) times the product of the degree-m_j slices of
    ((1-u)(1-v))^(g-1); zero once any m_j exceeds 2g-2."""
    poly = BivarPoly.constant(p.n ** (2 * p.g) - 1)
    for mj in c.m:
        poly = poly * binom_deg_slice(p.g - 1, mj)
    return poly


def variant_total_bruteforce(
    p: ModuliParams, w: WeightSystem, *, components=None
) -> BivarPoly:
    """Sum of the census contributions, shifted by (uv)^(dim/2).

    A contribution depends only on the twist vector m, through the product
    of the slices of its entries, and the slices vanish beyond 2g - 2. So
    the row counts per m, taken from the census groups without listing the
    rows, are summed over the box [0, 2g - 2]^(n-1) only, and each multiset
    of entries gets one product: its row count times (n^2g - 1) times its
    slices, summed in sorted order.

    Raises IdentityCheckError when the m counts miss census rows, or when
    some box point is not the twist vector of exactly (n!)^k / n rows: the
    whole box is stable for every word tuple, and each degree residue mod n
    holds (n!)^k / n word tuples.
    """
    if components is None:
        components = enumerate_components(p, w)
    counts = components.census.m_counts()
    if sum(counts.values()) != len(components):
        raise IdentityCheckError(
            f"m-histogram holds {sum(counts.values())} rows, census has {len(components)}"
        )
    flat = factorial(p.n) ** p.k // p.n
    multisets: Counter = Counter()
    for m in product(range(2 * p.g - 1), repeat=p.n - 1):
        if counts[m] != flat:
            raise IdentityCheckError(
                f"twist vector {m} has {counts[m]} census rows, not {flat}, for {p}"
            )
        multisets[tuple(sorted(m))] += counts[m]
    slices = [binom_deg_slice(p.g - 1, mj) for mj in range(2 * p.g - 1)]
    scalar = p.n ** (2 * p.g) - 1
    total = ZERO
    for entries, cnt in sorted(multisets.items()):
        term = BivarPoly.constant(cnt * scalar)
        for mj in entries:
            term = term * slices[mj]
        total = total + term
    h = dim_hitchin_base(p)
    return total.shift(h, h)


def variant_closed_form(p: ModuliParams) -> BivarPoly:
    """((n^2g - 1)/n) (n!)^k (uv)^(dim/2) ((1-u)(1-v))^((n-1)(g-1))."""
    n, g, k = p.n, p.g, p.k
    c = (n ** (2 * g) - 1) * factorial(n) ** k
    if c % n:
        raise IdentityCheckError(f"closed-form scalar {c} is not divisible by n = {n}")
    h = dim_hitchin_base(p)
    return (((ONE - U) * (ONE - V)) ** ((n - 1) * (g - 1)) * (c // n)).shift(h, h)


def _root_shift_product(n: int, g: int, l: int) -> CycBivarPoly:
    """Product over j = 1..n-1 of (1 - xi^(jl) u)^(g-1) (1 - xi^(jl) v)^(g-1)."""
    poly = CycBivarPoly.one(n)
    for j in range(1, n):
        r = CycInt.root_power(n, (j * l) % n)
        fu = CycBivarPoly(n, {(0, 0): CycInt.from_int(n, 1), (1, 0): -r})
        fv = CycBivarPoly(n, {(0, 0): CycInt.from_int(n, 1), (0, 1): -r})
        poly = poly * fu ** (g - 1) * fv ** (g - 1)
    return poly


@cache
def _sigma_residue_counts(n: int) -> tuple[int, ...]:
    """How many words of S_n have each value of sigma mod n; computed once
    per n."""
    single = [0] * n
    for w in kernels.words_lex(n):
        single[sigma(w) % n] += 1
    return tuple(single)


def _filter_exponent_counts(n, k, d, single):
    """counts[l][e]: word tuples whose filter exponent, times l, is e mod n.

    The exponent depends on a word tuple only through its sigma sum mod n,
    so single, the sigma mod n histogram over S_n, is convolved k times
    over Z/n: O(n! + k n^2) work instead of a scan of all (n!)^k tuples.
    """
    sums = [1] + [0] * (n - 1)
    for _ in range(k):
        sums = [sum(sums[a] * single[(r - a) % n] for a in range(n)) for r in range(n)]
    offset = d - k if n == 2 else d
    counts = [[0] * n for _ in range(n)]
    for r, cnt in enumerate(sums):
        for l in range(n):
            counts[l][(l * (offset + r)) % n] += cnt
    return counts


def variant_total_cyclotomic(p: ModuliParams) -> BivarPoly:
    """Root-of-unity filtered form of the variant total.

    Sums xi^(l * congruence exponent) over every word tuple and every
    l = 0..n-1, with the m sums folded into the per-l product of
    (1 - xi^(jl) u)^(g-1) (1 - xi^(jl) v)^(g-1); then divides by n inside
    the cyclotomic ring, projects to Z[u, v], and applies the
    (n^2g - 1)(uv)^(dim/2) prefactor. Exact at every step.
    """
    n, g, k, d = p.n, p.g, p.k, p.d
    counts = _filter_exponent_counts(n, k, d, _sigma_residue_counts(n))
    total = CycBivarPoly.zero(n)
    for l in range(n):
        scal = CycInt.zero(n)
        for e in range(n):
            if counts[l][e]:
                scal = scal + CycInt.root_power(n, e) * counts[l][e]
        if not scal.is_zero():
            total = total + _root_shift_product(n, g, l).scale(scal)
    proj = cyc_project(total.exact_div(n))
    h = dim_hitchin_base(p)
    return (proj * (n ** (2 * g) - 1)).shift(h, h)


def descent_character_sum(n: int, l: int) -> CycInt:
    """Sum over S_n of xi^(l * sigma(word)); zero for every l not divisible
    by n because each residue class of sigma has exactly (n-1)! words."""
    acc = CycInt.zero(n)
    for w in kernels.words_lex(n):
        acc = acc + CycInt.root_power(n, (l * sigma(w)) % n)
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


def count_S(n: int, residue: int = 0) -> int:
    """Number of words in S_n whose descent statistic is congruent to the
    given residue mod n; equals (n-1)! for every residue."""
    if not 1 <= n <= 10:
        raise LimitError(f"count_S supports 1 <= n <= 10, got {n}")
    residue %= n
    return sum(1 for w in kernels.words_lex(n) if sigma(w) % n == residue)


def insertion_bijection_check(prev: PermWord) -> bool:
    """Insert the letter n into a word of S_(n-1) at each of the n slots and
    check that the descent statistic shifts hit every residue mod n once.

    Each insertion is classified (end, front, interior at an ascent,
    interior at a descent), and its predicted shift is checked against
    direct recomputation.
    """
    w = prev.letters
    n = len(w) + 1
    if n > 10:
        raise LimitError(f"insertion check supports n <= 10, got {n}")
    sig_prev = sigma(w)
    dsc = [1 if w[i] > w[i + 1] else 0 for i in range(len(w) - 1)]
    residues = []
    for j in range(n):
        inserted = w[:j] + (n,) + w[j:]
        shift = (sigma(inserted) - sig_prev) % n
        if j == n - 1:  # end
            pred = 0
        elif j == 0:  # front
            pred = 1 + sum(dsc)
        elif dsc[j - 1]:  # interior, at a descent
            pred = 1 + sum(dsc[j:])
        else:  # interior, at an ascent
            pred = j + 1 + sum(dsc[j:])
        if shift != pred % n:
            return False
        residues.append(shift)
    return sorted(residues) == list(range(n))


def components_to_csv(components: Components, dest) -> None:
    """Write the census as CSV: words, m, s, d_n, homogeneous degree.

    Lines end in CRLF, as the csv module writes them. No field can hold a
    comma, a quote or a line break, so none is quoted and each line is
    formatted directly and streamed to the file. A word tuple's lines differ
    only in the text after its words field, and that text depends only on
    its (lattice, s, floor of d_n) block: each block's lines are rendered
    once, and each word tuple writes them behind its own words field.
    """
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    fh = open(dest, "w", newline="") if own else dest
    try:
        fh.write("words,m,s,d_n,degree\r\n")
        blocks: dict[tuple, list[str]] = {}
        for t, (_, s, dn_floor, lattice) in zip(components.tuples, components.census.groups):
            key = (id(lattice), s, dn_floor)
            block = blocks.get(key)
            if block is None:
                s_text = " ".join(map(str, s))
                block = blocks[key] = [
                    f"{' '.join(map(str, m))},{s_text},{dn_floor + q},{sum(m)}\r\n"
                    for m, q in lattice
                ]
            prefix = t.text + ","
            fh.write(prefix + prefix.join(block))
    finally:
        if own:
            fh.close()
