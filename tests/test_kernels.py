"""Census kernel dispatch and backend equivalence.

The compiled kernel must return bit-identical rows to the pure-Python one on
every instance where the dispatcher would select it, and the dispatcher must
fall back to Python when the int64 headroom bound fails. On small instances
the rows must equal the census built from the Fraction-valued reference
checks, and, in order, the rows of a search that tests every value of the
last coordinate at the leaf.
"""

from fractions import Fraction
from itertools import permutations, product

import pytest

from parmirror import _census_py, kernels
from parmirror.chambers import sample_generic_weights, weight_denominator
from parmirror.cstar_fixed import (
    PermTuple,
    PermWord,
    component_dn,
    degree_constraint,
    stability_check,
)
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
    w = sample_generic_weights(p, seed=seed, scale=scale)
    den = weight_denominator(w)
    wnum = tuple(tuple(int(a * den) for a in row) for row in w.alpha)
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
    rows = kernels.enumerate_census(*args, backend="python")
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
    for t_idx, m, s, dn in rows:
        assert len(t_idx) == p.k
        assert len(m) == p.n - 1 and len(s) == p.n - 1
        assert all(mj >= 0 for mj in m)
        assert all(0 <= sj <= p.k for sj in s)
        assert isinstance(dn, int)


@pytest.mark.skipif(not kernels.HAVE_COMPILED, reason="compiled kernel unavailable")
@pytest.mark.parametrize("p,seed", INSTANCES)
def test_compiled_backend_matches_python(p, seed):
    args = _census_args(p, seed)
    py = kernels.enumerate_census(*args, backend="python")
    cy = kernels.enumerate_census(*args, backend="compiled")
    assert py == cy


@pytest.mark.skipif(not kernels.HAVE_COMPILED, reason="compiled kernel unavailable")
def test_compiled_backend_matches_python_nonsmall_weights():
    p = ModuliParams(2, 3, 2, 1)
    args = _census_args(p, seed=11, scale=Fraction(1))
    assert kernels.enumerate_census(*args, backend="python") == kernels.enumerate_census(
        *args, backend="compiled"
    )


def test_span_partition_matches_full_run():
    p = ModuliParams(3, 2, 2, 1)
    args = _census_args(p, seed=4)
    full = kernels.enumerate_census(*args, backend="python")
    pieces = []
    for lo, hi in [(0, 2), (2, 3), (3, 6)]:
        pieces.extend(kernels.enumerate_census(*args, t0_lo=lo, t0_hi=hi, backend="python"))
    assert pieces == full


def test_int64_headroom_bound():
    assert kernels.int64_safe(2, 2, 1, 0, 10**6)
    assert kernels.int64_safe(7, 5, 4, 6, 10**6)
    assert not kernels.int64_safe(2, 2, 1, 0, 10**18)


def test_dispatch_falls_back_when_unsafe(monkeypatch):
    p = ModuliParams(2, 2, 1, 0)
    n, g, k, d, wnum, den = _census_args(p, seed=1)
    big = 10**18 // den
    wnum_big = tuple(tuple(a * big for a in row) for row in wnum)
    den_big = den * big
    called = {}

    real = kernels._census_py.enumerate_census

    def spy(*args, **kwargs):
        called["python"] = True
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels._census_py, "enumerate_census", spy)
    rows = kernels.enumerate_census(n, g, k, d, wnum_big, den_big)
    assert called.get("python")
    assert rows == kernels.enumerate_census(n, g, k, d, wnum, den, backend="python")


def test_unknown_backend_rejected():
    p = ModuliParams(2, 2, 1, 0)
    args = _census_args(p, seed=1)
    with pytest.raises(ValueError):
        kernels.enumerate_census(*args, backend="fortran")


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
    for row, word in zip(w.alpha, t.words):
        rhs += (n - 1) * sum(row) - n * sum(row[word.letters[j] - 1] for j in range(1, n))
    budget = rhs - sum(c * s for c, s in zip(coef, t.descents))

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
    den = weight_denominator(w)
    wnum = tuple(tuple(int(a * den) for a in row) for row in w.alpha)
    words = [PermWord(letters) for letters in kernels.words_lex(p.n)]
    expected = set()
    for t_idx in product(range(len(words)), repeat=p.k):
        t = PermTuple(tuple(words[i] for i in t_idx))
        for m in _l2_region(p, w, t):
            if degree_constraint(p, t, m) and stability_check(p, w, t, m):
                expected.add((t_idx, m))
    assert expected
    for backend in kernels.backends():
        rows = kernels.enumerate_census(p.n, p.g, p.k, p.d, wnum, den, backend=backend)
        assert len(rows) == len(expected)
        assert {(t_idx, m) for t_idx, m, _, _ in rows} == expected
        for t_idx, m, s, dn in rows:
            t = PermTuple(tuple(words[i] for i in t_idx))
            assert s == t.descents
            assert dn == component_dn(p, t, m)


def _leaf_filter_dfs(n, nm, C, R, num, j, m, t, s, rows):
    """The census search before its last coordinate was stepped by residue
    class: every value of every coordinate, with the congruence at the leaf."""
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


@pytest.mark.parametrize("scale,seed", ORACLE_WEIGHTS, ids=["scale1", "scale1/8"])
@pytest.mark.parametrize("p", ORACLE_GRID, ids=lambda p: f"{p.n}-{p.g}-{p.k}-{p.d}")
def test_census_rows_match_leaf_filter_search(monkeypatch, p, scale, seed):
    args = _census_args(p, seed, scale)
    rows = kernels.enumerate_census(*args, backend="python")
    monkeypatch.setattr(_census_py, "_dfs", _leaf_filter_dfs)
    assert rows == kernels.enumerate_census(*args, backend="python")
