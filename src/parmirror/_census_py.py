"""Pure-Python census kernel.

Enumerates, for fixed (n, g, k, d) and integer weight numerators over a
common denominator, all pairs (word tuple, m vector) that satisfy the
degree congruence and every strict stability inequality. This is the
reference implementation and the fallback when the compiled kernel is
unavailable or the int64 headroom check fails; it runs on unbounded ints.

Row format: (word index tuple, m tuple, s tuple, d_n). Rows come out in
lexicographic order of (word indices, m), which both kernels share. The
depth-first search over m steps its last coordinate by the one residue
class mod n that meets the congruence, so every leaf it reaches is a row.
"""

from __future__ import annotations

from itertools import product


def descent_vector(word) -> tuple[int, ...]:
    return tuple(1 if word[i] > word[i + 1] else 0 for i in range(len(word) - 1))


def enumerate_census(n, g, k, d, words, wnum, wden, t0_lo=0, t0_hi=None):
    """Census rows whose first word index lies in [t0_lo, t0_hi).

    words: all of S_n as tuples in lexicographic order. wnum[p][i] is the
    numerator of weight alpha_{i+1} at point p over the common denominator
    wden. Stability is evaluated at scale 2*wden so everything stays in
    integer arithmetic.
    """
    nw = len(words)
    if t0_hi is None:
        t0_hi = nw
    nm = n - 1
    chi = 2 * g - 2 + k
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
    # per-l coefficient of (m_j + s_j) in the stability bound, and its copy
    # at scale 2*wden for the m side
    sco = [
        [(n - l + 1) * j if j <= l - 1 else (l - 1) * (n - j) for j in range(1, n)]
        for l in range(2, n + 1)
    ]
    C = [[2 * wden * c for c in row] for row in sco]
    dn_shift = n * (n - 1) * chi // 2
    rows: list = []
    index_ranges = [range(t0_lo, t0_hi)] + [range(nw)] * (k - 1)
    for t in product(*index_ranges):
        s = [0] * nm
        for p in range(k):
            dv = desc[t[p]]
            for j in range(nm):
                s[j] += dv[j]
        R = []
        feasible = True
        for li in range(nm):
            l = li + 2
            w2 = 0
            for p in range(k):
                w2 += (n - l + 1) * tot[p] - n * tails[p][t[p]][li]
            r = 2 * w2 + (n - l + 1) * (l - 1) * n * chi * wden
            for j in range(nm):
                r -= C[li][j] * s[j]
            if r <= 0:
                feasible = False
                break
            R.append(r)
        if not feasible:
            continue
        base = d - dn_shift
        for j in range(nm):
            base += (j + 1) * s[j]
        _dfs(n, nm, C, R, base, 0, [0] * nm, t, tuple(s), rows)
    return rows


def _dfs(n, nm, C, R, num, j, m, t, s, rows):
    """Append the rows below the prefix m[:j], in increasing m order.

    The last coordinate m_{n-1} enters the congruence with coefficient
    n - 1, a unit mod n, so exactly one residue class of its values passes:
    it is stepped from num mod n in strides of n, with no leaf filter.
    """
    cap = min((R[li] - 1) // C[li][j] for li in range(nm))
    if j == nm - 1:
        for val in range(num % n, cap + 1, n):
            m[j] = val
            rows.append((t, tuple(m), s, (num + nm * val) // n))
        m[j] = 0
        return
    for val in range(cap + 1):
        m[j] = val
        nxt = R if val == 0 else [R[li] - C[li][j] * val for li in range(nm)]
        _dfs(n, nm, C, nxt, num + (j + 1) * val, j + 1, m, t, s, rows)
    m[j] = 0
