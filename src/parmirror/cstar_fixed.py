"""Census of scaling-action fixed components of type (1, ..., 1) and the
three equal ways to total their variant E-polynomials.

A component is labeled by one permutation word per marked point plus a
vector m of twist jumps. The census filters by the degree congruence and by
strict parabolic stability; the variant total over the census, the closed
product formula, and the root-of-unity filtered sum agree exactly for
generic weights. The census total is a check that the census is flat on
the box its slices read, times one power of the summed slices; the filtered
sum is the closed form times a check that the sigma sums are flat mod n, as
the descent counting lemma housed here says.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, permutations, product
from math import factorial
from operator import add, itemgetter

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
    IdentityCheckError,
    LimitError,
    binom_deg_slice,
)
from .moduli import ModuliParams, dim_hitchin_base


class NonIntegralDegreeError(ValueError):
    """The degree congruence fails, so the component degree is not an integer."""


def _dn_numerator(p: ModuliParams, words, m) -> int:
    """n*d_n = d + sum j(m_j + s_j) - n(n-1)(g - 1 + k/2), where s holds the
    descent counts of words, one letter tuple per marked point."""
    s = kernels.descent_counts(words)
    num = p.d + sum((j + 1) * (m[j] + s[j]) for j in range(p.n - 1))
    return num - p.n * (p.n - 1) * (2 * p.g - 2 + p.k) // 2


def degree_constraint(p: ModuliParams, words, m) -> bool:
    """Degree congruence for a type-(1,...,1) component to exist: n divides
    the numerator of its common factor degree d_n."""
    return _dn_numerator(p, words, m) % p.n == 0


def component_dn(p: ModuliParams, words, m) -> int:
    """Common factor degree d_n with
    n*d_n = d + sum j(m_j + s_j) - n(n-1)(g - 1 + k/2)."""
    num = _dn_numerator(p, words, m)
    if num % p.n:
        raise NonIntegralDegreeError(f"degree congruence fails for m={tuple(m)}, words={words}")
    return num // p.n


def stability_check(p: ModuliParams, w: WeightSystem, words, m) -> bool:
    """Strict stability of the component data against every destabilizing
    index l = 2..n, evaluated in exact rational arithmetic. Reference
    implementation; the kernels must agree with it."""
    n, g, k = p.n, p.g, p.k
    s = kernels.descent_counts(words)
    for l in range(2, n + 1):
        coef = [(n - l + 1) * j if j <= l - 1 else (l - 1) * (n - j) for j in range(1, n)]
        lhs = sum(c * (mj + sj) for c, mj, sj in zip(coef, m, s))
        rhs = Fraction((n - l + 1) * (l - 1) * n * (2 * g - 2 + k), 2)
        for row, letters in zip(w.alpha, words):
            rhs += (n - l + 1) * sum(row) - n * sum(row[letters[j] - 1] for j in range(l - 1, n))
        if not lhs < rhs:
            return False
    return True


def _word_texts(n: int) -> list[str]:
    """Each word of S_n, in lexicographic order, as the CSV prints it: its
    letters run together up to n = 9, joined by "." above."""
    sep = "" if n <= 9 else "."
    return [sep.join(map(str, letters)) for letters in kernels.words_lex(n)]


def enumerate_components(p: ModuliParams, w: WeightSystem, memo=None) -> kernels.Census:
    """The kernel's census of all type-(1,...,1) fixed components for
    generic weights, checked: iterating it yields CensusRow in canonical
    (word tuple, m) order. memo, when a dict, is handed to the kernel,
    which keeps each key's lattice there for later censuses.

    The length and signs of m are checked once per distinct lattice point,
    which covers every row: the points of all lattices are collected by
    identity, as lattices filtered from one search share their point
    objects, and checked at C level. s comes with each word tuple's group.
    A failure is a fault of the kernel and raises IdentityCheckError.
    """
    if not is_generic(w, p):
        raise NonGenericWeightsError(f"weights sit on a wall for {p}")
    den, wnum = integer_weights(w)
    # all positional: perfbench's census hook takes no keywords
    census = kernels.enumerate_census(p.n, p.g, p.k, p.d, wnum, den, 0, None, memo)
    points: dict[int, tuple] = {}
    for lattice, _ in census.uses:
        points.update(zip(map(id, lattice), lattice))
    ms = [*map(itemgetter(0), points.values())]
    if any(map((p.n - 1).__ne__, map(len, ms))):
        raise IdentityCheckError("m must have length n-1")
    if min(map(min, ms), default=0) < 0:
        raise IdentityCheckError(f"negative twist jump in {next(m for m in ms if min(m) < 0)}")
    return census


def variant_total_bruteforce(p: ModuliParams, census: kernels.Census, memo=None) -> BivarPoly:
    """Sum of the census contributions, shifted by (uv)^(dim/2).

    A contribution is (n^2g - 1) times the product of the slices of its
    twist vector's entries, and the slices vanish beyond 2g - 2. So only
    the row counts on the box [0, 2g - 2]^(n-1) are read, from the
    census's distinct lattices without listing the rows.

    Raises IdentityCheckError when some box point is not the twist vector
    of exactly (n!)^k / n rows: the whole box is stable for every word
    tuple, and each degree residue mod n holds (n!)^k / n word tuples.
    Past that check the box sum is one power of the summed slices: the
    closed form by algebra, with the slice expansion its own content. That
    power reads only n, g and k; when memo is a dict it is kept there under
    ("bruteforce", n, g, k), and the check still runs on every census.
    """
    counts = census.box_counts(2 * p.g - 2)
    flat = factorial(p.n) ** p.k // p.n
    for m in product(range(2 * p.g - 1), repeat=p.n - 1):
        if counts[m] != flat:
            raise IdentityCheckError(
                f"twist vector {m} has {counts[m]} census rows, not {flat}, for {p}"
            )
    return kernels.memoized(memo, ("bruteforce", p.n, p.g, p.k), _box_power, p)


def _box_power(p: ModuliParams) -> BivarPoly:
    """The census total of a flat box: (n!)^k / n (n^2g - 1) times the
    (n-1)-th power of the summed slices, shifted by (uv)^(dim/2)."""
    slices = sum((binom_deg_slice(p.g - 1, a) for a in range(2 * p.g - 1)), ZERO)
    flat = factorial(p.n) ** p.k // p.n
    h = dim_hitchin_base(p)
    return (slices ** (p.n - 1) * (flat * (p.n ** (2 * p.g) - 1))).shift(h, h)


def variant_closed_form(p: ModuliParams) -> BivarPoly:
    """((n^2g - 1)/n) (n!)^k (uv)^(dim/2) ((1-u)(1-v))^((n-1)(g-1))."""
    n, g, k = p.n, p.g, p.k
    c = (n ** (2 * g) - 1) * factorial(n) ** k
    if c % n:
        raise IdentityCheckError(f"closed-form scalar {c} is not divisible by n = {n}")
    h = dim_hitchin_base(p)
    return (((ONE - U) * (ONE - V)) ** ((n - 1) * (g - 1)) * (c // n)).shift(h, h)


@cache
def _sigma_residue_counts(n: int) -> tuple[int, ...]:
    """How many words of S_n have each value of sigma mod n, counted over a
    stream of its words that holds no table; computed once per n."""
    single = [0] * n
    for value in map(kernels.sigma, permutations(range(1, n + 1))):
        single[value % n] += 1
    return tuple(single)


def _sigma_sum_residues(n: int, k: int) -> list[int]:
    """How many k-word tuples have each sigma sum mod n: the sigma mod n
    histogram over S_n convolved k times over Z/n, O(n! + k n^2) work
    instead of a scan of all (n!)^k tuples."""
    single = _sigma_residue_counts(n)
    sums = [1] + [0] * (n - 1)
    for _ in range(k):
        sums = [sum(sums[a] * single[(r - a) % n] for a in range(n)) for r in range(n)]
    return sums


def variant_total_cyclotomic(p: ModuliParams) -> BivarPoly:
    """Root-of-unity filtered form of the variant total, in integers.

    For prime n and l != 0, r -> l(offset + r) permutes Z/n, so the l-th
    filter term vanishes exactly when the word tuples' sigma sums r are
    flat mod n; that is checked (IdentityCheckError otherwise). What remains
    is the l = 0 term: the flat count times (n^2g - 1) ((1-u)(1-v))^((n-1)(g-1)),
    shifted by (uv)^(dim/2).
    """
    n, g, k = p.n, p.g, p.k
    sums = _sigma_sum_residues(n, k)
    if len(set(sums)) != 1:
        raise IdentityCheckError(f"sigma sums of {k} words are not flat mod {n}: {sums}")
    h = dim_hitchin_base(p)
    poly = ((ONE - U) * (ONE - V)) ** ((n - 1) * (g - 1))
    return (poly * (sums[0] * (n ** (2 * g) - 1))).shift(h, h)


def count_S(n: int, residue: int = 0) -> int:
    """Number of words in S_n whose descent statistic is congruent to the
    given residue mod n; equals (n-1)! for every residue."""
    if not 1 <= n <= 10:
        raise LimitError(f"count_S supports 1 <= n <= 10, got {n}")
    return _sigma_residue_counts(n)[residue % n]


def insertion_bijection_check(w: tuple[int, ...]) -> bool:
    """Insert the letter n into w, a word of S_(n-1) as a letter tuple, at
    each of the n slots and check that the descent statistic shifts hit
    every residue mod n once.

    Each insertion is classified (end, front, interior at an ascent,
    interior at a descent), and its predicted shift is checked against
    direct recomputation.
    """
    n = len(w) + 1
    if n > 10:
        raise LimitError(f"insertion check supports n <= 10, got {n}")
    sig_prev = kernels.sigma(w)
    dsc = kernels.descent_vector(w)
    residues = []
    for j in range(n):
        inserted = w[:j] + (n,) + w[j:]
        shift = (kernels.sigma(inserted) - sig_prev) % n
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


def components_to_csv(p: ModuliParams, census: kernels.Census, fh) -> None:
    """Write the census as CSV: words, m, s, d_n, homogeneous degree. The
    words field joins the word tuple's words, as _word_texts prints them,
    with "|".

    Lines end in CRLF, as the csv module writes them. No field can hold a
    comma, a quote or a line break, so none is quoted and each line is
    formatted directly and streamed to fh, an open text file. A word
    tuple's lines differ only in the text after its words field, and that
    text depends only on its (lattice, s, floor of d_n) block, with s as
    its group carries it: each block is rendered once, by one % format
    over its values, as one string with its lines separated by a bare LF.
    Each word tuple writes its words field, the block with every LF
    replaced by CRLF and its words field, and a closing CRLF: str.replace
    has a fast path for a one-character pattern.
    """
    fh.write("words,m,s,d_n,degree\r\n")
    blocks: dict[tuple, str] = {}
    texts = _word_texts(p.n)
    # a block's line: m's entries, its s text, d_n and the degree
    line = " ".join(["%%d"] * (p.n - 1)) + ",%s,%%d,%%d"
    for t_idx, s, dn_floor, lattice in census.groups():
        key = (id(lattice), s, dn_floor)
        block = blocks.get(key)
        if block is None:
            ms = [*map(itemgetter(0), lattice)]
            values = map(add, ms, zip(map(dn_floor.__add__, map(itemgetter(1), lattice)),
                                      map(sum, ms)))
            text = line % " ".join(map(str, s))
            block = blocks[key] = "\n".join([text] * len(ms)) % tuple(chain.from_iterable(values))
        prefix = "|".join(map(texts.__getitem__, t_idx)) + ","
        fh.write(prefix)
        fh.write(block.replace("\n", "\r\n" + prefix))
        fh.write("\r\n")
