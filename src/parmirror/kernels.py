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
one lattice, and lattices of different keys with the same points share one
tuple.

The bound is separable over the marked points: each point adds its own
weight term and its word's descents, so R[l](t) = C_l + sum_p a_p(t_p)[l]
with C_l = 2*wden*chi*sum_j coef[l][j] = (n-l+1)(l-1) n chi wden and
a_p(w)[l] = 2((n-l+1) tot_p - n tail_p(w)[l]) - 2*wden*coef[l].desc(w),
where tail_p(w)[l] is the weight numerator sum of the letters of w in
slots l..n. The kernel builds each a_p(w) vector once per word and walks
the prefixes of the first k - 1 words depth first, in lexicographic order,
carrying the prefix sums r of R - 1 and base of sigma(w) = sum_j j desc(w)_j
(whose total fixes the degree offset). Phase one, the count of word tuples
per key, then takes no Python step per tuple: a last word w has key
((r[l] + a(w)[l]) // (2*wden) for each l, (base + sigma(w)) mod n), so the
n! keys of one prefix come from C-level maps over the last point's columns
a(.)[l] and a table of residues, and one Counter.update counts them,
unstable keys too; those, the keys with a negative budget, are dropped
afterwards. The bound reads each word's descents only through its share
coef.desc(w), never through s. coef comes from `stability_coefficients`, which reads no
words, and the other weight-free tables from one pass over S_n per n: for
each word, its descent vector (one shared object per distinct vector), its
sigma and its share coef.desc(w).

One search serves the whole census. For budgets Q' <= Q componentwise
and one residue r, L(Q', r) = {(m, q) in L(Q, r) : coef.m <= Q'}: the
congruence is the same, and coef.m <= Q' implies coef.m <= Q. The kernel
searches once, with no residue, at the componentwise largest budgets top
of the keys the memo does not hold, and files each point under the
residue its degree offset fixes, which gives L(top, r) for every r. The
keys are visited one residue at a time, each residue's in decreasing order
of sum(Q), so a key meets every key that dominates it before its own. The
search records each point's load coef.m, and every key's lattice is
filtered, by those loads, from the smallest dominating lattice held of
its residue: the search's own or an earlier key's. Let reach[l] be the
largest load over a lattice's points (0 when it is empty): when
reach <= Q', the filter would keep every point, so the key takes the held
lattice object itself. A residue's held lattices, the search's among
them, are dropped once its keys are done, and only the lattices the keys
took are kept.

The points of L(Q, r) fit within its reach, and reach <= Q, so
L(Q, r) = L(reach, r): two keys of one residue have the same points
exactly when their reaches are equal, and lattices are told apart by
(residue, reach), not by hashing their points.

Neither the rows nor the word tuples are listed. Phase one counts the word
tuples of each key, a table keyed by (residue, reach) sums them per
lattice, and a `Census` keeps its nonempty entries and walks the word
tuples again, from the same a_p tables, wherever rows are read. What it
keeps grows with the number of keys and distinct lattice points, not with
the number of word tuples or rows.

A lattice depends on (n, Q, residue) alone, not on g, k, d or the
weights, so a caller that runs many censuses may pass memo, a dict that
lives as long as its calls: every key's lattice, searched or filtered, is
then kept there under ("lattice", n, Q, residue), with its loads and reach,
and every later census with that key reads it instead of deriving it.

`enumerate_census` is the one entry point. `backends()` names this kernel
"python", and `backend=` accepts only that name; t0_lo/t0_hi restrict the
first word index. The program passes t0_lo = 0 and t0_hi = None, then memo,
all positionally: perfbench's traced run hooks every census call with
positional arguments only, reads t0_lo/t0_hi from positions 6 and 7, and
replays each call with those eight arguments and `backend=`, no memo.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import cache
from itertools import compress, count, groupby, permutations, repeat
from operator import add, floordiv, itemgetter, le, mul, sub
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


def stability_coefficients(n: int) -> tuple[tuple[int, ...], ...]:
    """The stability coefficient rows coef[l-2] for l = 2..n: coef[l-2][j-1]
    multiplies m_j + s_j in the l-th inequality, and is (n-l+1) j for j < l
    and (l-1)(n-j) for j >= l. Each row sums to n(n-l+1)(l-1)/2."""
    return tuple(
        tuple((n - l + 1) * j if j < l else (l - 1) * (n - j) for j in range(1, n))
        for l in range(2, n + 1)
    )


@cache
def _word_tables(n: int):
    """The weight-free tables of S_n, from its one pass over the words in
    lexicographic order: each word's descent vector desc(w), its sigma, and
    its descent share coef[l].desc(w), with the stability coefficient rows
    coef; built once per n. S_n has only 2^(n-1) distinct descent vectors,
    so each is interned and its sigma and share are derived once."""
    coef = stability_coefficients(n)
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
    each distinct nonempty lattice with the number of word tuples sharing
    it, in no promised order; the row count and box_counts() read it.
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

    def box_counts(self, top: int) -> Counter:
        """Row count per twist vector m with every entry at most top: each
        such lattice point counted once per word tuple sharing its lattice.

        A lattice lists its points in increasing m order, so those with
        m_1 <= top are a prefix of it, found by bisection. The box points
        are selected from that prefix at C level, and only they are stepped
        over."""
        counts: Counter = Counter()
        for lattice, uses in self.uses:
            ms = [*map(itemgetter(0), lattice[:bisect_left(lattice, ((top + 1,),))])]
            for m in compress(ms, map(top.__ge__, map(max, ms))):
                counts[m] += uses
        return counts


def enumerate_census(n, g, k, d, wnum, wden, t0_lo=0, t0_hi=None, memo=None, *,
                     backend=None) -> Census:
    """The census of (n, g, k, d): rows whose first word index lies in
    [t0_lo, t0_hi), words of S_n taken in lexicographic order.

    wnum[p][i] is the numerator of weight alpha_{i+1} at point p over the
    common denominator wden. Stability is evaluated at scale 2*wden and
    reduced to integer budgets Q (see the module docstring). memo: None, or
    a dict that keeps each key's lattice for later censuses (see the
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
    # C_l - 1 with C_l = scale * chi * sum(coef[l]): r carries R - 1, so
    # Q = r // scale, and Q < 0 exactly when R <= 0, an unstable word tuple
    root = [scale * chi * sum(row) - 1 for row in coef]
    dn_base = d - n * (n - 1) * chi // 2
    last = k - 1
    # the last point's terms a(w)[l] as one column per l, and the residue
    # (b + sigma(w)) mod n of each word for each b mod n; when the first
    # point is the last, t0_lo/t0_hi cut its columns
    cols = [*zip(*vecs[last])]
    last_sig = sig
    if last == 0:
        cols = [col[t0_lo:t0_hi] for col in cols]
        last_sig = sig[t0_lo:t0_hi]
    residues = [tuple([(b + s) % n for s in last_sig]) for b in range(n)]
    flat: Counter = Counter()  # (*Q, offset mod n) -> word tuples, stable or not

    def tally(p, r, base):
        """Count into flat the key of every word tuple extending a prefix
        of p words whose sums of R - 1 and the degree offset are r and base;
        the last point's keys come from C-level maps over its columns."""
        if p == last:
            flat.update(zip(*[map(floordiv, map(x.__add__, col), repeat(scale))
                              for x, col in zip(r, cols)], residues[base % n]))
            return
        lo, hi = (t0_lo, t0_hi) if p == 0 else (0, nw)
        vec = vecs[p]
        for wi in range(lo, hi):
            tally(p + 1, [*map(add, r, vec[wi])], base + sig[wi])

    def walk(p, t, r, base):
        """The rows' walk, one Python step per word tuple: yield
        (t_idx, dn_floor, key) for each stable word tuple extending
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
    # order of first use, counted one prefix at a time; a residue is never
    # negative, so min(key) < 0 exactly when the key is unstable, and
    # dropping those keys leaves the stable ones in their order of first use
    tally(0, root, dn_base)
    keys = {(key[:-1], key[-1]): tuples for key, tuples in flat.items() if min(key) >= 0}
    del flat
    # phase two: one search for the census, at the componentwise largest
    # budgets of the keys the memo does not hold; every such key's lattice is
    # filtered from the smallest held lattice of its residue that dominates
    # it, one residue at a time (see the module docstring)
    order = sorted(keys, key=lambda item: (item[1], -sum(item[0])))
    missing = [key for key in order if memo is None or ("lattice", n, *key) not in memo]
    pool: dict[int, list] = {}  # residue -> [(top, (lattice, loads, reach))]
    if missing:
        top = tuple(map(max, zip(*[Q for Q, _ in missing])))
        found, loads = _lattice(n, coef, top)
        for residue in {residue for _, residue in missing}:
            pool[residue] = [(top, (tuple(found[residue]), loads[residue], _reach(loads[residue], nm)))]
        del found, loads  # the residues no key needs
    lattices: dict[tuple, tuple] = {}
    shared: dict[tuple, list] = {}  # (residue, reach) -> [lattice, word tuples]
    for residue, group in groupby(order, key=itemgetter(1)):
        held = pool.pop(residue, [])  # [(Q, (lattice, loads, reach))], dropped with the residue
        for Q, _ in group:
            value = memoized(memo, ("lattice", n, Q, residue), _derived, held, Q)
            held.append((Q, value))
            entry = shared.setdefault((residue, value[2]), [value[0], 0])
            entry[1] += keys[Q, residue]
            lattices[Q, residue] = entry[0]

    def groups():
        """The word tuples walked again, each with its nonempty lattice and
        its descent counts, the sum of its words' kept descent vectors."""
        for t, dn_floor, key in walk(0, (), root, dn_base):
            if lattices[key]:
                s = tuple([*map(sum, zip(*map(desc.__getitem__, t)))])
                yield CensusGroup(t, s, dn_floor, lattices[key])

    return Census([(lattice, tuples) for lattice, tuples in shared.values() if lattice], groups)


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


def _derived(held, Q):
    """(lattice, loads, reach) of the budgets Q: the smallest lattice of
    held, a list of (budgets, (lattice, loads, reach)) of one residue, whose
    budgets dominate Q, filtered."""
    source = min((value for wide, value in held if all(map(le, Q, wide))),
                 key=lambda value: len(value[0]))
    return _filtered(*source, Q)


def _reach(loads, nm) -> tuple:
    """The largest load for each of the nm indices l, 0 over no points."""
    return tuple([max(map(itemgetter(l), loads), default=0) for l in range(nm)])


def _filtered(lattice, loads, reach, Q):
    """(lattice, loads, reach) of the points of lattice whose loads are at
    most Q: the lattice of budgets Q when lattice's budgets dominate Q and
    its residue is the same. The arguments themselves when reach <= Q. The
    kept loads are the same objects, so filtered lattices share them."""
    if all(map(le, reach, Q)):
        return lattice, loads, reach
    # only the indices whose loads can exceed Q decide; zip reuses its tuple
    fits = [map(q.__ge__, map(itemgetter(l), loads)) for l, (q, top) in enumerate(zip(Q, reach))
            if q < top]
    keep = [*map(all, zip(*fits))]
    loads = [*compress(loads, keep)]
    return tuple([*compress(lattice, keep)]), loads, _reach(loads, len(Q))


def _lattice(n, coef, Q):
    """Every m >= 0 with coef[l].m <= Q[l] for all l, in increasing m order,
    filed under the residue that its degree offset fixes: lattices[r] holds
    the pairs (m, (r + offset) // n) of the points whose offset
    sum_j (j+1) m_j is congruent to -r mod n, and loads[r] their loads, the
    list [coef[l].m for each l] of each point, in the same order."""
    lattices: list = [[] for _ in range(n)]
    loads: list = [[] for _ in range(n)]
    _dfs(n, n - 1, [*zip(*coef)], Q, 0, 0, [0] * (n - 1), [0] * (n - 1), lattices, loads)
    return lattices, loads


def _dfs(n, nm, cols, Q, offset, j, m, spent, out, loads):
    """File the lattice points below the prefix m[:j], in increasing m order,
    and their loads under their residues; cols[j] is the column (coef[l][j]
    for each l), offset is the prefix's degree offset, and spent[l] is the
    prefix's coef[l].m.

    Each step of m[j] adds col to the loads, so they are stepped from the
    previous value's, not recomputed, and no call frame is made per point:
    a prefix's by [*map(add, ...)], a leaf's by zipping, over l, the ranges
    from spent[l] in steps of col[l]. The leaf's loads are kept, so they
    are lists built from zip's exact-size tuples: [*map(...)] allocates
    room for 8 entries, twice the 4 loads of n = 5."""
    col = cols[j]
    cap = min(map(floordiv, map(sub, Q, spent), col))
    if j == nm - 1:
        # load l at m[j] = val is spent[l] + val * col[l], for val <= cap
        steps = zip(*map(range, spent, map(add, spent, map(mul, col, repeat(cap + 1))), col))
        for val, load in zip(range(cap + 1), map(list, steps)):
            m[j] = val
            # divmod(-offset, n) = (-q, r): r is the point's residue, r + offset = n q
            neg, residue = divmod(-offset - nm * val, n)
            out[residue].append((tuple(m), -neg))
            loads[residue].append(load)
        m[j] = 0
        return
    nxt = spent
    for val in range(cap + 1):
        m[j] = val
        _dfs(n, nm, cols, Q, offset + (j + 1) * val, j + 1, m, nxt, out, loads)
        nxt = [*map(add, nxt, col)]
    m[j] = 0
