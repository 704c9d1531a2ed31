"""Census kernel.

Enumerates, for fixed (n, g, k, d) and integer weight numerators over a
common denominator, all pairs (word tuple, m vector) that satisfy the
degree congruence and every strict stability inequality. It runs on
unbounded ints.

Row format: (word index tuple, m tuple, s tuple, d_n). Rows come out in
lexicographic order of (word indices, m).

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

A key is searched only when no searched lattice already holds its points.
For the lattice L(Q) of budgets Q, let reach[l] be the largest coef[l].m
over its points (0 when it is empty). If a key (Q', r) has the residue r of
a searched (Q, r) and reach <= Q' <= Q componentwise, then L(Q') = L(Q):
Q' <= Q gives L(Q') within L(Q), and every point of L(Q) has
coef.m <= reach <= Q', so it lies in L(Q'). Keys are visited in decreasing
order of sum(Q), so a key meets the wider budgets before its own. The
search returns reach with the points: coef is positive, so within one call
on the last coordinate its largest value leaves the least slack for every l.

The rows are never listed. A `Census` holds one `CensusGroup` per word
tuple with rows, and each group points at its shared lattice, so memory
grows with the number of word tuples and distinct lattice points, not with
the number of rows.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import NamedTuple


def descent_vector(word) -> tuple[int, ...]:
    return tuple(1 if word[i] > word[i + 1] else 0 for i in range(len(word) - 1))


class CensusGroup(NamedTuple):
    """The rows of one word tuple: (t_idx, m, s, dn_floor + q) for each pair
    (m, q) of lattice, in increasing m order. The lattice tuple is shared by
    every word tuple with the same budgets and degree offset mod n."""

    t_idx: tuple[int, ...]
    s: tuple[int, ...]
    dn_floor: int
    lattice: tuple


class Census:
    """Census rows grouped by word tuple.

    A sized, re-iterable sequence of the rows in canonical order that
    compares equal to a list of them; the rows themselves are built only
    while iterating. Nothing mutates the groups after the kernel returns.
    """

    __slots__ = ("groups", "_rows")

    def __init__(self, groups: list[CensusGroup]):
        self.groups = groups
        self._rows = sum(len(group.lattice) for group in groups)

    def __len__(self) -> int:
        return self._rows

    def __iter__(self):
        return self.rows()

    def __eq__(self, other):
        try:
            size = len(other)
        except TypeError:
            return NotImplemented
        return size == self._rows and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def rows(self, labels=None):
        """The rows in canonical order, as (label, m, s, d_n).

        labels[i] stands in place of the word indices of the i-th group
        (default: the word indices).
        """
        if labels is None:
            labels = [group.t_idx for group in self.groups]
        for label, (_, s, dn_floor, lattice) in zip(labels, self.groups):
            for m, q in lattice:
                yield label, m, s, dn_floor + q

    def lattice_uses(self) -> list[tuple[tuple, int]]:
        """Each distinct lattice with the number of word tuples sharing it."""
        uses: dict[int, list] = {}
        for group in self.groups:
            entry = uses.get(id(group.lattice))
            if entry is None:
                uses[id(group.lattice)] = [group.lattice, 1]
            else:
                entry[1] += 1
        return [(lattice, count) for lattice, count in uses.values()]

    def points(self):
        """Each lattice point (m, q), once per distinct lattice."""
        for lattice, _ in self.lattice_uses():
            yield from lattice

    def m_counts(self) -> Counter:
        """Row count per twist vector m: each lattice point counted once per
        word tuple that shares its lattice."""
        counts: Counter = Counter()
        for lattice, uses in self.lattice_uses():
            for m, _ in lattice:
                counts[m] += uses
        return counts


def enumerate_census(n, g, k, d, words, wnum, wden, t0_lo=0, t0_hi=None) -> Census:
    """Census rows whose first word index lies in [t0_lo, t0_hi).

    words: all of S_n as tuples in lexicographic order. wnum[p][i] is the
    numerator of weight alpha_{i+1} at point p over the common denominator
    wden. Stability is evaluated at scale 2*wden and reduced to integer
    budgets Q (see the module docstring).
    """
    nw = len(words)
    if t0_hi is None:
        t0_hi = nw
    nm = n - 1
    chi = 2 * g - 2 + k
    scale = 2 * wden
    desc = [descent_vector(w) for w in words]
    tot = [sum(pw) for pw in wnum]
    # tails[p][wi][l-2]: weight numerator sum of the letters in slots l..n
    tails = []
    for p in range(k):
        pw = wnum[p]
        row = []
        for w in words:
            col = [0] * nm
            acc = 0
            for l in range(n, 1, -1):
                acc += pw[w[l - 1] - 1]
                col[l - 2] = acc
            row.append(col)
        tails.append(row)
    # per-l coefficient of (m_j + s_j) in the stability bound
    coef = [
        [(n - l + 1) * j if j <= l - 1 else (l - 1) * (n - j) for j in range(1, n)]
        for l in range(2, n + 1)
    ]
    dn_shift = n * (n - 1) * chi // 2
    # phase one: each word tuple's group, with its interned key standing in
    # the lattice slot until phase two has its lattice
    keys: dict[tuple, tuple] = {}
    descents: dict[tuple, tuple] = {}
    groups: list[CensusGroup] = []
    index_ranges = [range(t0_lo, t0_hi)] + [range(nw)] * (k - 1)
    for t in product(*index_ranges):
        s = [0] * nm
        for p in range(k):
            dv = desc[t[p]]
            for j in range(nm):
                s[j] += dv[j]
        Q = []
        for li in range(nm):
            l = li + 2
            w2 = 0
            for p in range(k):
                w2 += (n - l + 1) * tot[p] - n * tails[p][t[p]][li]
            r = 2 * w2 + (n - l + 1) * (l - 1) * n * chi * wden
            for j in range(nm):
                r -= scale * coef[li][j] * s[j]
            if r <= 0:
                break
            Q.append((r - 1) // scale)
        else:
            base = d - dn_shift
            for j in range(nm):
                base += (j + 1) * s[j]
            dn_floor, residue = divmod(base, n)
            key = (tuple(Q), residue)
            s = tuple(s)
            groups.append(
                CensusGroup(t, descents.setdefault(s, s), dn_floor, keys.setdefault(key, key))
            )
    # phase two: one lattice per key, searched only when no searched
    # lattice with wider budgets holds its points (see the module docstring)
    lattices: dict[tuple, tuple] = {}
    searched: dict[int, list] = {}  # residue -> [(Q, reach, lattice)]
    distinct: dict[tuple, tuple] = {}
    points: dict[tuple, tuple] = {}
    for key in sorted(keys, key=lambda item: -sum(item[0])):
        Q, residue = key
        candidates = searched.setdefault(residue, [])
        for wide, reach, lattice in candidates:
            if all(a <= b <= c for a, b, c in zip(reach, Q, wide)):
                break
        else:
            found, reach = _lattice(n, coef, Q, residue)
            found = tuple(points.setdefault(pt, pt) for pt in found)
            lattice = distinct.setdefault(found, found)
            candidates.append((Q, reach, lattice))
        lattices[key] = lattice
    # swap each key for its lattice in place, dropping empty lattices
    kept = 0
    for t, s, dn_floor, key in groups:
        lattice = lattices[key]
        if lattice:
            groups[kept] = CensusGroup(t, s, dn_floor, lattice)
            kept += 1
    del groups[kept:]
    return Census(groups)


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
