"""Census kernel.

Enumerates, for fixed (n, g, k, d) and integer weight numerators over a
common denominator, all pairs (word tuple, m vector) that satisfy the
degree congruence and every strict stability inequality. It runs on
unbounded ints.

Row format: CensusRow(word index tuple, m tuple, s tuple, d_n). Rows come
out in lexicographic order of (word indices, m). The descent counts s are a
function of the words alone; the census does not store them, and the group
walk sums its words' kept descent vectors as it yields each word tuple's
CensusGroup.

At scale 2*wden the stability inequality for index l reads C[l].m < R[l],
and every coefficient is C[l][j] = 2*wden*coef[l][j] with a positive
integer coef. For positive integers b, c, nested floor division gives
(a - 1 - b*c*x) // (b*c) == ((a - 1) // b - c*x) // c, so C[l].m < R[l]
holds exactly when coef[l].m <= Q[l] = (R[l] - 1) // (2*wden): the search
runs on the small integer budgets Q with no loss. A word tuple's stable m
vectors then depend only on Q and, through the congruence, on its degree
offset mod n. Every word tuple with the same (Q, offset mod n) key shares
one lattice; lattices of different keys with the same points share one
tuple, and equal points one (m, q) pair.

The bound is separable over the marked points: each point adds its own
weight term and its word's descents, so R[l](t) = C_l + sum_p a_p(t_p)[l]
with C_l = (n-l+1)(l-1) n chi wden and
a_p(w)[l] = 2((n-l+1) tot_p - n tail_p(w)[l]) - 2*wden*coef[l].desc(w),
where tail_p(w)[l] is the weight numerator sum of the letters of w in
slots l..n. The kernel builds each a_p(w) vector once per word and walks
the word tuples depth first, in lexicographic order, carrying the prefix
sums of R - 1 and of sigma(w) = sum_j j desc(w)_j (whose total fixes the
degree offset), so the last point costs one vector add per tuple. The
bound reads each word's descents only through its share coef.desc(w),
never through s. The weight-free tables come from one pass over S_n per n:
coef and, for each word, its descent vector (one shared object per distinct
vector), its sigma and its share coef.desc(w).

A key is searched only when no searched lattice already holds its points.
For the lattice L(Q) of budgets Q, let reach[l] be the largest coef[l].m
over its points (0 when it is empty). If a key (Q', r) has the residue r of
a searched (Q, r) and reach <= Q' <= Q componentwise, then L(Q') = L(Q):
Q' <= Q gives L(Q') within L(Q), and every point of L(Q) has
coef.m <= reach <= Q', so it lies in L(Q'). Keys are visited in decreasing
order of sum(Q), so a key meets the wider budgets before its own. The
search returns reach with the points: coef is positive, so within one call
on the last coordinate its largest value leaves the least slack for every l.

Neither the rows nor the word tuples are listed. The walk runs once to
count the word tuples of each key; a `Census` keeps each distinct lattice
with the number of word tuples that share it, and walks the word tuples
again, from the same a_p tables, wherever rows are read. What it keeps
grows with the number of keys and distinct lattice points, not with the
number of word tuples or rows.

A lattice depends on (n, Q, residue) alone, not on g, k, d or the
weights, so a caller that runs many censuses may pass memo, a dict that
lives as long as its calls: each search is then kept there under
("lattice", n, Q, residue), as its interned points and reach, and every
later census with that key reads it instead of searching. The reuse by
dominance inside one census is unchanged.

`enumerate_census` is the one entry point. `backends()` names this kernel
"python", and `backend=` accepts only that name; t0_lo/t0_hi restrict the
first word index. The program passes t0_lo = 0 and t0_hi = None, then memo,
all positionally: perfbench's traced run hooks every census call with
positional arguments only, reads t0_lo/t0_hi from positions 6 and 7, and
replays each call with those eight arguments and `backend=`, no memo.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import compress, count, permutations
from operator import mul
from typing import NamedTuple


def active_backend() -> str:
    return "python"


def backends() -> dict:
    """Kernels keyed by name (for tests and benchmarks): this one."""
    return {"python": enumerate_census}


@cache
def words_lex(n: int) -> tuple[tuple[int, ...], ...]:
    """All of S_n as letter tuples, lexicographically ordered; built once
    per n."""
    return tuple(permutations(range(1, n + 1)))


def descent_vector(word) -> tuple[int, ...]:
    """1 at each position j where the word steps down, else 0."""
    return tuple([1 if a > b else 0 for a, b in zip(word, word[1:])])


def sigma(word) -> int:
    """Descent statistic: sum of the positions where the word steps down."""
    return sum(compress(count(1), descent_vector(word)))


def descent_counts(words) -> tuple[int, ...]:
    """s_j: how many of the words, letter tuples, step down at position j."""
    return tuple(map(sum, zip(*map(descent_vector, words))))


@cache
def _word_tables(n: int):
    """The weight-free tables of S_n, from its one pass over the words in
    lexicographic order: each word's descent vector desc(w), its sigma, and
    its descent share coef[l].desc(w), with the stability coefficient rows
    coef; built once per n. S_n has only 2^(n-1) distinct descent vectors,
    so each is interned and its sigma and share are derived once."""
    coef = tuple(
        tuple((n - l + 1) * j if j <= l - 1 else (l - 1) * (n - j) for j in range(1, n))
        for l in range(2, n + 1)
    )
    desc = [descent_vector(w) for w in words_lex(n)]
    derived = {  # each distinct descent vector -> (itself, its sigma, its share)
        dv: (dv, sum(compress(count(1), dv)), tuple([sum(map(mul, row, dv)) for row in coef]))
        for dv in dict.fromkeys(desc)
    }
    desc, sig, share = zip(*map(derived.__getitem__, desc))
    return desc, sig, coef, share


class CensusGroup(NamedTuple):
    """The rows of one word tuple: (t_idx, m, s, dn_floor + q) for each pair
    (m, q) of lattice, in increasing m order, where s holds the descent
    counts of the words of t_idx. The lattice tuple is shared by every word
    tuple with the same budgets and degree offset mod n."""

    t_idx: tuple[int, ...]
    s: tuple[int, ...]
    dn_floor: int
    lattice: tuple


class CensusRow(NamedTuple):
    """One fixed component: its word tuple as indices into words_lex(n), its
    twist jumps m, its descent counts s, and the common degree d_n of its
    line-bundle factors."""

    t_idx: tuple[int, ...]
    m: tuple[int, ...]
    s: tuple[int, ...]
    d_n: int


class Census:
    """Census rows grouped by word tuple.

    A sized, re-iterable sequence of CensusRow in canonical (t_idx, m)
    order; the rows themselves are built only while iterating. uses pairs
    each distinct lattice with the number of word tuples sharing it, in
    order of first use; the row count, points() and box_counts() read it.
    groups is a zero-argument callable that walks the word tuples again and
    yields each one's CensusGroup, s included, in lexicographic order;
    iteration reads it.
    """

    __slots__ = ("uses", "groups")

    def __init__(self, uses: list[tuple[tuple, int]], groups):
        self.uses = uses
        self.groups = groups

    def __len__(self) -> int:
        return sum(len(lattice) * count for lattice, count in self.uses)

    def __iter__(self):
        for t_idx, s, dn_floor, lattice in self.groups():
            for m, q in lattice:
                yield CensusRow(t_idx, m, s, dn_floor + q)

    def points(self):
        """Each lattice point (m, q), once per distinct lattice."""
        for lattice, _ in self.uses:
            yield from lattice

    def box_counts(self, top: int) -> Counter:
        """Row count per twist vector m with every entry at most top: each
        such lattice point counted once per word tuple sharing its lattice."""
        counts: Counter = Counter()
        for lattice, uses in self.uses:
            for m, _ in lattice:
                if max(m) <= top:
                    counts[m] += uses
        return counts


def enumerate_census(n, g, k, d, wnum, wden, t0_lo=0, t0_hi=None, memo=None, *,
                     backend=None) -> Census:
    """The census of (n, g, k, d): rows whose first word index lies in
    [t0_lo, t0_hi), words of S_n taken in lexicographic order.

    wnum[p][i] is the numerator of weight alpha_{i+1} at point p over the
    common denominator wden. Stability is evaluated at scale 2*wden and
    reduced to integer budgets Q (see the module docstring). memo: None, or
    a dict that keeps each lattice search for later censuses (see the
    module docstring). backend: None or "python"; any other name raises
    ValueError, as does a first-word range outside 0 <= t0_lo <= t0_hi <= n!.
    """
    if backend not in (None, "python"):
        raise ValueError(f"unknown backend {backend!r}; have {sorted(backends())}")
    desc, sig, coef, share = _word_tables(n)
    nw = len(sig)
    if t0_hi is None:
        t0_hi = nw
    if not 0 <= t0_lo <= t0_hi <= nw:
        raise ValueError(f"first word range [{t0_lo}, {t0_hi}) is not within [0, {nw}]")
    nm = n - 1
    chi = 2 * g - 2 + k
    scale = 2 * wden
    # vecs[p][wi][l-2]: a_p(w), point p's term in the bound of index l for
    # word w (see the module docstring). Lists and tuple([...]), never
    # tuple(map(...)): a tuple built from an iterator of unknown length is
    # shrunk after the fact, and the shrunk tuples pile up on the
    # interpreter's free lists.
    vecs = []
    for p in range(k):
        pw = wnum[p]
        tot = sum(pw)
        rows = []
        for w, sh in zip(words_lex(n), share):
            a = [0] * nm
            tail = 0
            for l in range(n, 1, -1):
                tail += pw[w[l - 1] - 1]
                a[l - 2] = 2 * ((n - l + 1) * tot - n * tail) - scale * sh[l - 2]
            rows.append(a)
        vecs.append(rows)
    # C_l - 1: r carries R - 1, so Q = r // scale, and Q < 0 exactly when
    # R <= 0, an unstable word tuple
    root = [(n - l + 1) * (l - 1) * n * chi * wden - 1 for l in range(2, n + 1)]
    dn_base = d - n * (n - 1) * chi // 2
    last = k - 1

    def walk(p, t, r, base):
        """Yield (t_idx, dn_floor, key) for each stable word tuple extending
        the prefix t of p words, whose sums of R - 1 and the degree offset
        are r and base."""
        lo, hi = (t0_lo, t0_hi) if p == 0 else (0, nw)
        vec = vecs[p]
        if p < last:
            for wi in range(lo, hi):
                yield from walk(p + 1, t + (wi,), [x + y for x, y in zip(r, vec[wi])], base + sig[wi])
            return
        for wi in range(lo, hi):
            Q = tuple([(x + y) // scale for x, y in zip(r, vec[wi])])
            if min(Q) >= 0:
                dn_floor, residue = divmod(base + sig[wi], n)
                yield t + (wi,), dn_floor, (Q, residue)

    # phase one: how many word tuples share each (Q, offset mod n) key, in
    # order of first use
    keys = Counter(key for _, _, key in walk(0, (), root, dn_base))
    # phase two: one lattice per key, searched only when no searched
    # lattice with wider budgets holds its points (see the module docstring)
    lattices: dict[tuple, tuple] = {}
    searched: dict[int, list] = {}  # residue -> [(Q, reach, lattice)]
    distinct: dict[tuple, tuple] = {}
    points: dict[tuple, tuple] = {}

    def search(Q, residue):
        """_lattice's points, interned within this census, and its reach."""
        found, reach = _lattice(n, coef, Q, residue)
        return tuple(points.setdefault(pt, pt) for pt in found), reach

    for key in sorted(keys, key=lambda item: -sum(item[0])):
        Q, residue = key
        candidates = searched.setdefault(residue, [])
        for wide, reach, lattice in candidates:
            if all(a <= b <= c for a, b, c in zip(reach, Q, wide)):
                break
        else:
            found, reach = memoized(memo, ("lattice", n, Q, residue), search, Q, residue)
            lattice = distinct.setdefault(found, found)
            candidates.append((Q, reach, lattice))
        lattices[key] = lattice
    uses: dict[int, list] = {}
    for key, tuples in keys.items():
        if lattices[key]:
            uses.setdefault(id(lattices[key]), [lattices[key], 0])[1] += tuples

    def groups():
        """The word tuples walked again, each with its nonempty lattice and
        its descent counts, the sum of its words' kept descent vectors."""
        for t, dn_floor, key in walk(0, (), root, dn_base):
            if lattices[key]:
                s = tuple([*map(sum, zip(*map(desc.__getitem__, t)))])
                yield CensusGroup(t, s, dn_floor, lattices[key])

    return Census([(lattice, tuples) for lattice, tuples in uses.values()], groups)


def memoized(memo, key, fn, *args):
    """fn(*args), kept in memo under key when memo is a dict: a key already
    there is read instead of calling fn, and a call that raises keeps
    nothing."""
    if memo is None:
        return fn(*args)
    if key in memo:
        return memo[key]
    value = memo[key] = fn(*args)
    return value


def _lattice(n, coef, Q, residue):
    """Every m >= 0 with coef[l].m <= Q[l] for all l whose degree offset
    sum_j (j+1) m_j is congruent to -residue mod n, in increasing m order,
    as pairs (m, (residue + offset) // n); and reach, the largest coef[l].m
    over those points for each l (0 when there are none)."""
    out: list = []
    slack = list(Q)
    _dfs(n, n - 1, coef, Q, residue, 0, [0] * (n - 1), out, slack)
    return out, tuple(q - left for q, left in zip(Q, slack))


def _dfs(n, nm, coef, Q, num, j, m, out, slack):
    """Append the lattice points below the prefix m[:j], in increasing m
    order; num is residue plus the prefix's degree offset, and slack[l]
    falls to the least Q[l] - coef[l].m any appended point leaves.

    The last coordinate m_{n-1} enters the congruence with coefficient
    n - 1, a unit mod n, so exactly one residue class of its values passes:
    it is stepped from num mod n in strides of n, with no leaf filter.
    """
    cap = min(Q[li] // coef[li][j] for li in range(nm))
    if j == nm - 1:
        last = None
        for val in range(num % n, cap + 1, n):
            m[j] = val
            out.append((tuple(m), (num + nm * val) // n))
            last = val
        m[j] = 0
        if last is not None:
            for li in range(nm):
                left = Q[li] - coef[li][j] * last
                if left < slack[li]:
                    slack[li] = left
        return
    for val in range(cap + 1):
        m[j] = val
        nxt = Q if val == 0 else [Q[li] - coef[li][j] * val for li in range(nm)]
        _dfs(n, nm, coef, nxt, num + (j + 1) * val, j + 1, m, out, slack)
    m[j] = 0
