"""Census kernel: grouped rows and their oracles.

On small instances the rows must equal the census built from the
Fraction-valued reference checks, and, in order, the rows of a search that
tests every value of the last coordinate at the leaf. The grouped Census
must behave as the row list it stands for.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from operator import le

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import census_uses, entry_box_counts, residue_lattice
from parmirror import chambers, kernels
from parmirror.chambers import integer_weights, sample_generic_weights, small_weight_margin
from parmirror.cstar_fixed import component_dn, degree_constraint, stability_check
from parmirror.kernels import descent_counts
from parmirror.moduli import ModuliParams

INSTANCES = [
    (ModuliParams(2, 2, 1, 0), 1),
    (ModuliParams(2, 2, 1, 1), 2),
    (ModuliParams(2, 3, 2, 1), 3),
    (ModuliParams(3, 2, 1, 0), 1),
    (ModuliParams(3, 2, 2, 2), 5),
    (ModuliParams(5, 2, 1, 1), 1),
]


def _census_args(p, seed, scale=Fraction(1, 8)):
    den, wnum = integer_weights(sample_generic_weights(p, seed=seed, scale=scale))
    return (p.n, p.g, p.k, p.d, wnum, den)


def test_words_lex():
    assert kernels.words_lex(2) == ((1, 2), (2, 1))
    assert kernels.words_lex(3) == tuple(sorted(permutations((1, 2, 3))))
    assert len(kernels.words_lex(4)) == 24


def test_backends_report():
    info = kernels.backends()
    assert "python" in info
    assert kernels.active_backend() in info


@pytest.mark.parametrize("p,seed", INSTANCES)
def test_python_backend_rows_are_canonical(p, seed):
    args = _census_args(p, seed)
    rows = list(kernels.enumerate_census(*args, backend="python"))
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
    for t_idx, m, s, dn in rows:
        assert len(t_idx) == p.k
        assert len(m) == p.n - 1 and len(s) == p.n - 1
        assert all(mj >= 0 for mj in m)
        assert all(0 <= sj <= p.k for sj in s)
        assert isinstance(dn, int)


def test_span_partition_matches_full_run():
    p = ModuliParams(3, 2, 2, 1)
    args = _census_args(p, seed=4)
    full = kernels.enumerate_census(*args, backend="python")
    pieces = []
    for lo, hi in [(0, 2), (2, 3), (3, 6)]:
        pieces.extend(kernels.enumerate_census(*args, t0_lo=lo, t0_hi=hi, backend="python"))
    assert pieces == list(full)


def test_census_behaves_as_its_row_list():
    census = kernels.enumerate_census(*_census_args(ModuliParams(3, 2, 2, 1), seed=4))
    rows = list(census)
    assert len(census) == len(rows) > 0
    assert list(census) == rows


def _unreadable():
    raise AssertionError("the census groups were walked again")


def test_census_answers_from_its_lattice_uses():
    """The row count, the lattice points and the box counts read uses, the
    kernel's word-tuple count per lattice, and never walk the word tuples
    again."""
    census = kernels.enumerate_census(*_census_args(ModuliParams(3, 2, 2, 1), seed=4))
    rows = list(census)
    uses = census.uses
    assert sum(count for _, count in uses) == sum(1 for _ in census.groups())
    # lattices of different keys with the same points are one object
    assert len({lattice for lattice, _ in uses}) == len(uses)
    census.groups = _unreadable
    assert len(census) == len(rows) > 0
    assert {m for lattice, _ in uses for m, _ in lattice} == {m for _, m, _, _ in rows}
    assert census.box_counts(2) == Counter(m for _, m, _, _ in rows if max(m) <= 2)
    assert census.box_counts(2) == entry_box_counts(census, 2)


@pytest.mark.parametrize("p,seed,scale", [
    (ModuliParams(2, 2, 11, 1), 1, Fraction(1)),
    (ModuliParams(3, 2, 2, 1), 4, Fraction(1, 8)),
    (ModuliParams(5, 3, 1, 2), 1, None),
], ids=["2-2-11-1", "3-2-2-1", "5-3-1-2"])
def test_census_groups_carry_their_descent_counts(p, seed, scale):
    """Each group's s is the descent counts of its words, and every row of
    the group carries that same s."""
    census = kernels.enumerate_census(*_census_args(p, seed, scale or small_weight_margin(p)))
    words = kernels.words_lex(p.n)
    expected = []
    for group in census.groups():
        assert group.s == descent_counts(words[i] for i in group.t_idx)
        expected.extend([(group.t_idx, group.s)] * len(group.lattice))
    assert [(row.t_idx, row.s) for row in census] == expected


def test_unknown_backend_rejected():
    p = ModuliParams(2, 2, 1, 0)
    args = _census_args(p, seed=1)
    with pytest.raises(ValueError):
        kernels.enumerate_census(*args, backend="fortran")


def test_first_word_range_is_checked():
    """0 <= t0_lo <= t0_hi <= n! or ValueError: index -1 would read the last
    word, and an index past n! has no word. An empty range is no rows."""
    args = _census_args(ModuliParams(2, 2, 2, 1), seed=1)
    for lo, hi in [(-1, None), (-1, 1), (0, 3), (2, 1)]:
        with pytest.raises(ValueError, match="first word range"):
            kernels.enumerate_census(*args, lo, hi)
    for lo in (0, 1, 2):
        empty = kernels.enumerate_census(*args, lo, lo)
        assert list(empty.groups()) == empty.uses == [] and len(empty) == 0


ORACLE_GRID = [
    ModuliParams(n, g, k, d) for n in (2, 3) for g in (2, 3) for k in (1, 2) for d in (0, 1)
] + [ModuliParams(5, 2, 1, 1)]
ORACLE_WEIGHTS = [(Fraction(1), 1), (Fraction(1, 8), 2)]


def _l2_region(p, w, t):
    """Every m allowed by the l = 2 stability inequality alone.

    Its coefficients n - 1, n - 2, ..., 1 are all at least 1 and the s side is
    nonnegative, so sum_j coef_j m_j < rhs - sum_j coef_j s_j bounds a finite
    region that holds every stable m.
    """
    n = p.n
    coef = [n - 1 if j == 1 else n - j for j in range(1, n)]
    rhs = Fraction((n - 1) * n * (2 * p.g - 2 + p.k), 2)
    for row, word in zip(w.alpha, t):
        rhs += (n - 1) * sum(row) - n * sum(row[word[j] - 1] for j in range(1, n))
    budget = rhs - sum(c * s for c, s in zip(coef, descent_counts(t)))

    def below(j, left):
        if j == n - 1:
            yield ()
            return
        val = 0
        while coef[j] * val < left:
            for rest in below(j + 1, left - coef[j] * val):
                yield (val,) + rest
            val += 1

    return below(0, budget)


@pytest.mark.parametrize("scale,seed", ORACLE_WEIGHTS, ids=["scale1", "scale1/8"])
@pytest.mark.parametrize("p", ORACLE_GRID, ids=lambda p: f"{p.n}-{p.g}-{p.k}-{p.d}")
def test_census_matches_reference_oracle(p, scale, seed):
    """The census is exactly the (word tuple, m) pairs that pass the
    Fraction-valued degree_constraint and stability_check."""
    w = sample_generic_weights(p, seed=seed, scale=scale)
    den, wnum = integer_weights(w)
    words = kernels.words_lex(p.n)
    expected = set()
    for t_idx in product(range(len(words)), repeat=p.k):
        t = tuple(words[i] for i in t_idx)
        for m in _l2_region(p, w, t):
            if degree_constraint(p, t, m) and stability_check(p, w, t, m):
                expected.add((t_idx, m))
    assert expected
    for backend in kernels.backends():
        rows = kernels.enumerate_census(p.n, p.g, p.k, p.d, wnum, den, backend=backend)
        assert len(rows) == len(expected)
        assert {(t_idx, m) for t_idx, m, _, _ in rows} == expected
        for t_idx, m, s, dn in rows:
            t = tuple(words[i] for i in t_idx)
            assert s == descent_counts(t)
            assert dn == component_dn(p, t, m)


def _leaf_filter_census(n, g, k, d, words, wnum, wden, t0_lo=0, t0_hi=None):
    """The census as the kernel searched it before budgets were reduced,
    lattices shared and the bound split over the points: every word tuple
    whose first word index is in [t0_lo, t0_hi) on its own, its bound
    recomputed from all k points, stability at scale 2*wden, every value of
    every coordinate, the congruence at the leaf."""
    if t0_hi is None:
        t0_hi = len(words)
    nm = n - 1
    chi = 2 * g - 2 + k
    desc = [kernels.descent_vector(w) for w in words]
    C = [
        [2 * wden * ((n - l + 1) * j if j <= l - 1 else (l - 1) * (n - j)) for j in range(1, n)]
        for l in range(2, n + 1)
    ]
    rows = []
    for t in product(range(t0_lo, t0_hi), *[range(len(words))] * (k - 1)):
        s = tuple(sum(desc[i][j] for i in t) for j in range(nm))
        R = []
        for li in range(nm):
            l = li + 2
            r = (n - l + 1) * (l - 1) * n * chi * wden
            for p in range(k):
                tail = sum(wnum[p][a - 1] for a in words[t[p]][l - 1:])
                r += 2 * ((n - l + 1) * sum(wnum[p]) - n * tail)
            R.append(r - sum(C[li][j] * s[j] for j in range(nm)))
        if min(R) <= 0:
            continue
        base = d - n * (n - 1) * chi // 2 + sum((j + 1) * s[j] for j in range(nm))
        _leaf_filter_dfs(n, nm, C, R, base, 0, [0] * nm, t, s, rows)
    return rows


def _leaf_filter_dfs(n, nm, C, R, num, j, m, t, s, rows):
    if j == nm:
        if num % n == 0:
            rows.append((t, tuple(m), s, num // n))
        return
    cap = min((R[li] - 1) // C[li][j] for li in range(nm))
    for val in range(cap + 1):
        m[j] = val
        nxt = R if val == 0 else [R[li] - C[li][j] * val for li in range(nm)]
        _leaf_filter_dfs(n, nm, C, nxt, num + (j + 1) * val, j + 1, m, t, s, rows)
    m[j] = 0


P5220 = ModuliParams(5, 2, 2, 0)
LEAF_FILTER_CASES = [
    pytest.param(p, scale, seed, None, id=f"{p.n}-{p.g}-{p.k}-{p.d}-{name}")
    for p in ORACLE_GRID
    for name, (scale, seed) in zip(("scale1", "scale1/8"), ORACLE_WEIGHTS)
] + [
    # many points (k = 11), and n = 5 with two points, where each first word
    # is a prefix of the depth-first walk shared by 120 word tuples; the
    # whole (5, 2, 2, 0) census is 2,269,324 rows, 14.7 M leaf-filter nodes,
    # so it is checked on three pieces of its first-word range
    pytest.param(ModuliParams(2, 2, 11, 1), Fraction(1), 1, None, id="2-2-11-1-scale1"),
    pytest.param(P5220, small_weight_margin(P5220), 1, [(0, 1), (1, 3), (119, 120)],
                 id="5-2-2-0-margin"),
]


@pytest.mark.parametrize("p,scale,seed,ranges", LEAF_FILTER_CASES)
def test_census_rows_match_leaf_filter_search(p, scale, seed, ranges):
    """The rows of the depth-first walk over per-point vectors equal the
    per-tuple search, by default on the whole first-word range and on three
    pieces of it."""
    n, g, k, d, wnum, den = _census_args(p, seed, scale)
    words = kernels.words_lex(n)
    nw = len(words)
    if ranges is None:
        ranges = [(0, nw), (0, 1), (1, nw // 2 + 1), (nw // 2 + 1, nw)]
    for lo, hi in ranges:
        rows = list(kernels.enumerate_census(n, g, k, d, wnum, den, lo, hi, backend="python"))
        assert rows == _leaf_filter_census(n, g, k, d, words, wnum, den, lo, hi)


@given(
    a=st.integers(-50, 400),
    b=st.integers(1, 12),
    c=st.integers(1, 12),
    x=st.integers(0, 30),
)
def test_scaled_floor_identity(a, b, c, x):
    """(a - 1 - b*c*x) // (b*c) == ((a - 1) // b - c*x) // c for b, c >= 1:
    the cap of one coordinate at scale b equals its cap on the budget
    (a - 1) // b, so the budgets Q lose nothing."""
    assert (a - 1 - b * c * x) // (b * c) == ((a - 1) // b - c * x) // c


@given(
    n=st.sampled_from([2, 3, 5]),
    scale=st.integers(1, 12),
    num=st.integers(-40, 40),
    data=st.data(),
)
def test_reduced_lattice_matches_scaled_search(n, scale, num, data):
    """The one search on the budgets Q = (R - 1) // scale files under the
    residue of num the same m vectors, in the same order, as the
    leaf-filter search on the scaled coefficients scale * coef and bounds R,
    and it lists each point's loads coef[l].m, from which the kernel takes
    reach. Under every residue it files what that residue's own search
    finds."""
    nm = n - 1
    coef = [data.draw(st.lists(st.integers(1, 4), min_size=nm, max_size=nm)) for _ in range(nm)]
    R = data.draw(st.lists(st.integers(1, 12 * scale), min_size=nm, max_size=nm))
    C = [[scale * c for c in row] for row in coef]
    expected = []
    _leaf_filter_dfs(n, nm, C, R, num, 0, [0] * nm, (), (), expected)
    Q = [(r - 1) // scale for r in R]
    lattices, loads = kernels._lattice(n, coef, Q)
    lattice = lattices[num % n]
    assert [(m, num // n + q) for m, q in lattice] == [(m, dn) for _, m, _, dn in expected]
    assert loads[num % n] == [[sum(c * x for c, x in zip(row, m)) for row in coef] for m, _ in lattice]
    assert [*zip(lattices, loads)] == [residue_lattice(n, coef, Q, r) for r in range(n)]


@given(n=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_search_loads_and_residues_are_fixed_by_two_numbers(n, data):
    """Two numbers fix every stability load, checked on the kernel's own
    search output. With T = sum_j (n-j) m_j and P_l = sum_{j<l} (l-1-j) m_j,
    every point the search files under residue r has loads
    coef[l].m = (l-1) T - n P_l for l = 2..n, r = T mod n and
    q = sum(m) - T // n."""
    coef = kernels.stability_coefficients(n)
    Q = data.draw(st.lists(st.integers(0, 10 * n), min_size=n - 1, max_size=n - 1))
    lattices, loads = kernels._lattice(n, coef, Q)
    for r, (lattice, lattice_loads) in enumerate(zip(lattices, loads)):
        for (m, q), load in zip(lattice, lattice_loads, strict=True):
            T = sum((n - j) * x for j, x in enumerate(m, 1))
            P = [sum((l - 1 - j) * x for j, x in enumerate(m[: l - 1], 1)) for l in range(2, n + 1)]
            assert load == [(l - 1) * T - n * P[l - 2] for l in range(2, n + 1)], (m, load)
            assert (r, q) == (T % n, sum(m) - T // n), (m, r, q)


def test_census_searches_once_at_the_largest_budgets(monkeypatch):
    """At (5, 3, 1, 2) the 120 word tuples have 47 distinct (Q, offset mod n)
    keys and 16 distinct lattices; 5 keys are dominated by no other key of
    their residue, and their own searches list 4,095 points. The census
    searches once, with no residue, at the componentwise largest budgets of
    the 47 keys, and lists 4,611 points; every key's lattice is filtered
    from that search. Word tuples with equal keys, recomputed here from the
    Fraction form of the stability bound, share one lattice tuple."""
    p = ModuliParams(5, 3, 1, 2)
    w = sample_generic_weights(p, seed=1, scale=small_weight_margin(p))
    n, g, k, d, wnum, den = _census_args(p, 1, small_weight_margin(p))
    searched = []
    real = kernels._lattice

    def spy(n, coef, Q):
        out = real(n, coef, Q)
        searched.append((tuple(Q), sum(map(len, out[0]))))
        return out

    monkeypatch.setattr(kernels, "_lattice", spy)
    census = kernels.enumerate_census(n, g, k, d, wnum, den)
    assert len(census.uses) == 16
    words = kernels.words_lex(n)
    keys = {_lattice_key(p, w, t) for t in product(words, repeat=k)}
    assert len(keys) == 47 and min(min(Q) for Q, _ in keys) >= 0
    assert searched == [(tuple(map(max, zip(*(Q for Q, _ in keys)))), 4_611)]
    coef = _coefficients(n)
    alone = [residue_lattice(n, coef, Q, r)[0] for Q, r in _undominated(keys)]
    assert len(alone) == 5 and sum(map(len, alone)) == 4_095
    shared = {}
    for group in census.groups():
        key = _lattice_key(p, w, tuple(words[i] for i in group.t_idx))
        assert shared.setdefault(key, group.lattice) is group.lattice
    assert len(shared) == 47


def _undominated(keys):
    """The keys (Q, residue) that no other key of their residue dominates
    componentwise."""
    return {
        (Q, r) for Q, r in keys
        if not any(o != Q and s == r and all(map(le, Q, o)) for o, s in keys)
    }


P5312 = ModuliParams(5, 3, 1, 2)
KEY_ORACLE_CASES = [(P5312, small_weight_margin(P5312), 1)] + [
    (p, scale, seed) for p in ORACLE_GRID for scale, seed in ORACLE_WEIGHTS
]


def test_every_key_gets_the_lattice_of_its_own_search(monkeypatch):
    """Every key of (5, 3, 1, 2) and of the oracle grid, filtered from the
    census's one search or from a dominating key, or taken whole, gets the
    lattice, loads and reach that its own residue's search finds for that
    key alone; the memo keeps every key of the census, recomputed here from
    the Fraction form of the stability bound. Each census searches once,
    and across the cases the kernel takes some lattices whole and filters
    others."""
    seen = Counter()
    real_lattice, real_filtered = kernels._lattice, kernels._filtered

    def lattice(*args):
        seen["searched"] += 1
        return real_lattice(*args)

    def filtered(lattice, loads, reach, Q):
        out = real_filtered(lattice, loads, reach, Q)
        seen["whole" if out[0] is lattice else "filtered"] += 1
        return out

    monkeypatch.setattr(kernels, "_lattice", lattice)
    monkeypatch.setattr(kernels, "_filtered", filtered)
    for p, scale, seed in KEY_ORACLE_CASES:
        w = sample_generic_weights(p, seed=seed, scale=scale)
        memo = {}
        seen["searched"] = 0
        kernels.enumerate_census(*_census_args(p, seed, scale), 0, None, memo)
        assert seen["searched"] == 1
        keys = {_lattice_key(p, w, t) for t in product(kernels.words_lex(p.n), repeat=p.k)}
        assert {(Q, r) for _, _, Q, r in memo} == {(Q, r) for Q, r in keys if min(Q) >= 0}
        coef = _coefficients(p.n)
        for (_, n, Q, r), (found, loads, reach) in memo.items():
            alone, alone_loads = residue_lattice(n, coef, Q, r)
            assert found == tuple(alone) and loads == alone_loads
            assert reach == tuple(max((ld[l] for ld in alone_loads), default=0) for l in range(n - 1))
    assert min(seen[kind] for kind in ("whole", "filtered")) > 0, seen


# budgets cut to zero at residue 1: the filter keeps none of the points
@example(n=3, residue=1, coef=[1] * 16, budgets=[5] * 4, cuts=[5] * 4)
@given(
    n=st.integers(2, 5),
    residue=st.integers(0, 4),
    coef=st.lists(st.integers(1, 5), min_size=16, max_size=16),
    budgets=st.lists(st.integers(0, 20), min_size=4, max_size=4),
    cuts=st.lists(st.integers(0, 20), min_size=4, max_size=4),
)
def test_filtering_a_lattice_gives_the_lattice_of_smaller_budgets(n, residue, coef, budgets, cuts):
    """For positive coef, budgets Q' <= Q and one residue, the points that
    the one search at Q files under that residue are that residue's own
    L(Q); those whose loads are at most Q' are L(Q'), in the same order with
    the same q, and so are their loads and reach; when L(Q)'s reach is
    within Q', the filter returns L(Q) itself."""
    nm, residue = n - 1, residue % n
    coef = [coef[nm * i:nm * (i + 1)] for i in range(nm)]
    Q = budgets[:nm]
    small = [max(q - cut, 0) for q, cut in zip(Q, cuts)]
    lattices, loads = kernels._lattice(n, coef, Q)
    wide, wide_loads = tuple(lattices[residue]), loads[residue]
    assert (list(wide), wide_loads) == residue_lattice(n, coef, Q, residue)
    reach = kernels._reach(wide_loads, nm)
    lattice, loads, small_reach = kernels._filtered(wide, wide_loads, reach, small)
    alone, alone_loads = residue_lattice(n, coef, small, residue)
    assert lattice == tuple(alone) and loads == alone_loads
    assert small_reach == kernels._reach(alone_loads, nm)
    if all(map(le, reach, small)):
        assert lattice is wide


def test_census_with_a_shared_memo_equals_a_fresh_census(monkeypatch):
    """Censuses of a small grid share one memo, as a sweep's do: each reads
    the lattices kept by earlier ones, searches only when it has a key not
    yet kept, and lists the rows of a fresh census run without the memo.
    The shared censuses search fewer times than the fresh ones."""
    memo = {}
    searches = []
    real = kernels._lattice

    def spy(*args):
        searches.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "_lattice", spy)
    shared_searches = alone = 0
    for n, g, k, d, seed, scale in product((2, 3), (2, 3), (1, 2), (0, 1), (1, 2),
                                           (Fraction(1, 8), Fraction(1))):
        args = _census_args(ModuliParams(n, g, k, d), seed, scale)
        before = len(memo)
        searches.clear()
        shared = kernels.enumerate_census(*args, 0, None, memo)
        assert len(searches) == (len(memo) > before)
        shared_searches += len(searches)
        searches.clear()
        fresh = kernels.enumerate_census(*args)
        alone += len(searches)
        assert list(shared) == list(fresh)
        assert shared.uses == fresh.uses
    kept = [key for key in memo if key[0] == "lattice"]
    assert len(kept) == len(memo) and 0 < shared_searches < alone


def _coefficients(n):
    """coef[l-2][j-1]: the coefficient of m_j + s_j in the l-th stability
    inequality."""
    return [
        [(n - l + 1) * j if j <= l - 1 else (l - 1) * (n - j) for j in range(1, n)]
        for l in range(2, n + 1)
    ]


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_kernel_and_certificate_read_one_coefficient_table(monkeypatch, n):
    """The rows in the kernel's word tables are the rows the small-weight
    certificate checks, and both equal the formula above."""
    read = []
    real = chambers.stability_coefficients
    monkeypatch.setattr(chambers, "stability_coefficients", lambda n: read.append(real(n)) or read[-1])
    small_weight_margin(ModuliParams(n, 2, 1))
    assert read == [kernels._word_tables(n)[2]]
    assert read[0] == tuple(map(tuple, _coefficients(n)))


def _lattice_key(p, w, t):
    """(Q, offset mod n) of the word tuple t, one letter tuple per point,
    with Q[l] the largest integer below the l-th stability bound minus its
    s side: coef.m < bound iff coef.m <= Q[l]."""
    n, s = p.n, descent_counts(t)
    budgets = []
    for l, coef in enumerate(_coefficients(n), start=2):
        rhs = Fraction((n - l + 1) * (l - 1) * n * (2 * p.g - 2 + p.k), 2)
        for row, word in zip(w.alpha, t):
            rhs += (n - l + 1) * sum(row) - n * sum(row[a - 1] for a in word[l - 1:])
        budgets.append(math.ceil(rhs - sum(c * sj for c, sj in zip(coef, s))) - 1)
    offset = p.d - n * (n - 1) * (2 * p.g - 2 + p.k) // 2 + sum((j + 1) * sj for j, sj in enumerate(s))
    return tuple(budgets), offset % n


def _census_searching_every_key(p, w):
    """The census rows with no lattice reused: every word tuple's key,
    recomputed from the Fraction form of the stability bound, is searched on
    its own, and d_n comes from component_dn."""
    words = kernels.words_lex(p.n)
    coef = _coefficients(p.n)
    rows = []
    for t_idx in product(range(len(words)), repeat=p.k):
        t = tuple(words[i] for i in t_idx)
        Q, residue = _lattice_key(p, w, t)
        if min(Q) < 0:
            continue
        lattice, _ = residue_lattice(p.n, coef, Q, residue)
        rows.extend((t_idx, m, descent_counts(t), component_dn(p, t, m)) for m, _ in lattice)
    return rows


# seed 1 at scale 1/8 gives (3, 2, 2, 0) a key whose budgets cover a searched
# lattice's reach but exceed its budgets on one index: reusing that lattice
# would lose points
@pytest.mark.parametrize(
    "scale,seed",
    ORACLE_WEIGHTS + [(Fraction(1, 8), 1)],
    ids=["scale1", "scale1/8", "scale1/8-seed1"],
)
@pytest.mark.parametrize("p", ORACLE_GRID, ids=lambda p: f"{p.n}-{p.g}-{p.k}-{p.d}")
def test_lattice_reuse_matches_searching_every_key(p, scale, seed):
    w = sample_generic_weights(p, seed=seed, scale=scale)
    census = kernels.enumerate_census(*_census_args(p, seed, scale))
    assert list(census) == _census_searching_every_key(p, w)


def _uses_by_identity(uses):
    return sorted((id(lattice), count) for lattice, count in uses)


@pytest.mark.parametrize("scale,seed", ORACLE_WEIGHTS, ids=["scale1", "scale1/8"])
@pytest.mark.parametrize("p", ORACLE_GRID, ids=lambda p: f"{p.n}-{p.g}-{p.k}-{p.d}")
def test_census_uses_match_its_word_tuples(p, scale, seed):
    """The kernel's per-lattice word-tuple counts equal the oracle's, taken
    by lattice identity over the word tuples walked again; uses promises
    no order."""
    census = kernels.enumerate_census(*_census_args(p, seed, scale))
    assert _uses_by_identity(census.uses) == _uses_by_identity(census_uses(census.groups()))


@pytest.mark.parametrize("p,scale,seed", [
    (ModuliParams(2, 2, 11, 1), Fraction(1), 1),
    (ModuliParams(3, 2, 3, 0), Fraction(1), 1),
    (ModuliParams(3, 3, 3, 1), Fraction(1, 8), 2),
], ids=["2-2-11-1", "3-2-3-0", "3-3-3-1-scale1/8"])
def test_census_uses_match_its_word_tuples_at_many_points(p, scale, seed):
    """Phase one counts one prefix of k - 1 words at a time; its counts
    equal those of the per-tuple walk that groups() takes, with many points
    and with three points at n = 3."""
    census = kernels.enumerate_census(*_census_args(p, seed, scale))
    assert _uses_by_identity(census.uses) == _uses_by_identity(census_uses(census.groups()))


@pytest.mark.parametrize("p,cuts", [
    (ModuliParams(3, 2, 3, 0), (0, 1, 4, 6)),
    (ModuliParams(3, 2, 1, 1), (0, 2, 3, 6)),
    (ModuliParams(2, 2, 11, 1), (0, 1, 2)),
], ids=["3-2-3-0", "3-2-1-1", "2-2-11-1"])
def test_first_word_shards_add_up_to_the_census(p, cuts):
    """The censuses of disjoint first-word ranges count, per lattice, word
    tuples that add up to the whole census's; at k = 1 the range cuts the
    last point's own columns."""
    args = _census_args(p, seed=1, scale=Fraction(1))
    whole = Counter()
    for lattice, count in kernels.enumerate_census(*args).uses:
        whole[lattice] += count
    shards = Counter()
    for lo, hi in zip(cuts, cuts[1:]):
        census = kernels.enumerate_census(*args, lo, hi)
        assert _uses_by_identity(census.uses) == _uses_by_identity(census_uses(census.groups()))
        for lattice, count in census.uses:
            shards[lattice] += count
    assert shards == whole


@given(
    n=st.sampled_from([2, 3]), g=st.integers(2, 3), k=st.integers(1, 4), d=st.integers(-2, 3),
    data=st.data(),
)
def test_census_uses_match_its_word_tuples_at_random_weights(n, g, k, d, data):
    """Any integer weights, generic or not, and any first-word range: the
    per-prefix counts equal the per-tuple walk's."""
    wden = data.draw(st.integers(n, 40))
    wnum = tuple(tuple(sorted(data.draw(st.sets(st.integers(0, wden - 1), min_size=n, max_size=n))))
                 for _ in range(k))
    lo = data.draw(st.integers(0, math.factorial(n)))
    hi = data.draw(st.integers(lo, math.factorial(n)))
    census = kernels.enumerate_census(n, g, k, d, wnum, wden, lo, hi)
    assert _uses_by_identity(census.uses) == _uses_by_identity(census_uses(census.groups()))


CENSUS_PEAK = """
import gc, json, tracemalloc
from fractions import Fraction
from parmirror import kernels
from parmirror.chambers import integer_weights, sample_generic_weights
from parmirror.moduli import ModuliParams

p = ModuliParams(2, 2, 11, 1)
den, wnum = integer_weights(sample_generic_weights(p, seed=1, scale=Fraction(1)))
kernels._word_tables(p.n)
gc.collect()
tracemalloc.start()
census = kernels.enumerate_census(p.n, p.g, p.k, p.d, wnum, den)
_, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
print(json.dumps([sum(count for _, count in census.uses), len(census), peak]))
"""


def test_census_memory_does_not_grow_with_word_tuples(run_fresh):
    """The kernel counts the word tuples per key and keeps no record of any
    of them: the census walks them again where rows are read. At
    (2, 2, 11, 1), 2,048 word tuples and 8,192 rows, its tracemalloc peak
    is 21,360 bytes (21,136 when each undominated key had its own search,
    21,856 while it interned its points in a dict, 19,392 before it kept
    each lattice's loads), measured in a fresh interpreter
    after the weights and word tables are built; the kernel that kept one
    record per word tuple peaked at 460,456 (Python 3.11, free lists
    cleared first so every tuple is traced)."""
    tuples, rows, peak = run_fresh(CENSUS_PEAK)
    assert tuples == 2048 and rows == 8192
    assert peak <= 30_000, peak
